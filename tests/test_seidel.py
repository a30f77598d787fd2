"""The Seidel element of the ruled loop: one inverse solve per cutoff, and
the closed form rho = T- e^{delta F}, rho^-1 = (F + T-) e^{(1 - delta) F}
with delta = (4 + 3 kappa) / (6 + 6 kappa)."""

from fractions import Fraction

import pytest

from qhfib import NotInvertible, QhfibError, catalog, format_rational
from qhfib.cli import main
from qhfib.fixtures import parse_qh
from qhfib.quantum import QuantumRing

KAPPAS = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/4")
CUTOFFS = (Fraction(2), Fraction(6), Fraction(24))


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one entry per inverse_or_none call."""
    calls = []
    real = QuantumRing.inverse_or_none

    def counted(self, q, cutoff):
        calls.append(cutoff)
        return real(self, q, cutoff)

    monkeypatch.setattr(QuantumRing, "inverse_or_none", counted)
    return calls


def test_rho_command_solves_the_inverse_once(capsys, solves):
    assert main(["rho", "--builtin", "ruled", "--cutoff", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "rho = T-@e^{7/12*F}", "rho^-1 = F@e^{5/12*F}+T-@e^{5/12*F}"]
    assert len(solves) == 1


def test_compose_mirror_solves_the_mirror_inverse_and_the_composite_unit(capsys, solves):
    assert main(["compose", "--mirror", "--builtin", "ruled", "--cutoff", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rho(composite) = 1"
    assert len(solves) == 2


def test_each_cutoff_is_solved_once_per_model(solves):
    fib = catalog.build("ruled")
    for cutoff in (Fraction(6), 6, Fraction(4)):
        fib.rho(cutoff)
        fib.rho_inverse(cutoff)
        fib.rho_shape(cutoff)
    assert solves == [Fraction(6), Fraction(4)]


def test_a_failed_solve_is_not_cached(monkeypatch):
    fib = catalog.build("ruled")

    def raising(self, q, cutoff):
        raise QhfibError("solve failed")

    monkeypatch.setattr(QuantumRing, "inverse_or_none", raising)
    for _ in range(2):
        with pytest.raises(QhfibError, match="solve failed"):
            fib.rho(6)
    monkeypatch.undo()
    monkeypatch.setattr(QuantumRing, "inverse_or_none", lambda self, q, cutoff: None)
    for _ in range(2):
        with pytest.raises(NotInvertible, match="is not invertible modulo 6"):
            fib.rho_inverse(6)
    monkeypatch.undo()
    assert fib.rho_shape(6)["monomial"]


@pytest.mark.parametrize("kappa", KAPPAS)
def test_the_seidel_element_has_its_closed_form(kappa):
    fib = catalog.build("ruled", kappa=kappa)
    k = Fraction(kappa)
    delta = (4 + 3 * k) / (6 + 6 * k)
    d, d1 = format_rational(delta), format_rational(1 - delta)
    want_rho = parse_qh(fib.fiber, f"T-@e^{{{d}*F}}")
    want_inv = parse_qh(fib.fiber, f"F@e^{{{d1}*F}}+T-@e^{{{d1}*F}}")
    ring = fib.fiber_ring
    for cutoff in CUTOFFS:
        rho, inv = fib.rho(cutoff), fib.rho_inverse(cutoff)
        assert rho == want_rho
        assert inv == want_inv
        assert ring.product(rho, inv, cutoff).truncate(cutoff) == ring.unit()
