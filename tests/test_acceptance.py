"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `python3 -m pytest tests/test_acceptance.py -s` to see the
per-criterion PASS/FAIL lines on stdout.  Every comparison is exact
rational equality; there are no tolerances anywhere in this file.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qhfib import (
    QHClass,
    QhfibError,
    QuantumRing,
    TableIncomplete,
    catalog,
    compose,
    mirror,
    ring_split_check,
    run_suite,
    splitting_correction,
    tensor_model,
    verify_product_pattern,
)
from qhfib.fixtures import from_dict, parse_qh, to_dict
from qhfib.splitting import correction_valid
from tests.conftest import BUILTINS, STEP_LINE, offending_lines

CUTOFF = Fraction(6)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({name}): FAIL")
        raise
    print(f"acceptance {num} ({name}): PASS")


def test_criterion_1_ruled_loop_end_to_end():
    with criterion(1, "ruled loop end-to-end"):
        for kappa in (Fraction(1), Fraction(2), Fraction(1, 2)):
            fib = catalog.build("ruled", kappa=kappa)
            delta = (4 + 3 * kappa) / (6 + 6 * kappa)
            # normalized section: sigma_ref plus delta fiber classes
            assert fib.sigma_phi().coords == (delta, 0, 1)
            assert fib.rho(CUTOFF) == parse_qh(fib.fiber, f"T-@e^{{{delta}*F}}")
            assert fib.invariant_Ic() == (1, 2)
            assert fib.invariant_Iu() == {"T": Fraction(-4) / (3 * (1 + kappa))}
            # characteristic numbers are independent of the twisting parameter
            assert [fib.invariant_Ik(k) for k in range(4)] == [
                Fraction(0), Fraction(8, 3), Fraction(4), Fraction(4)]


def test_criterion_2_fiber_ring_and_seidel_inverse():
    with criterion(2, "fiber quantum ring and Seidel inverse"):
        model, table = catalog.ruled_surface_fiber()
        ring = QuantumRing(model, table)
        T = model.qh_basis("T-")
        F = model.qh_basis("F")
        pt = model.qh_basis("pt")
        e = model.h2.gen("F")
        # the two quantum products
        assert ring.product(T, T, CUTOFF) == -pt + ring.unit().shift(-e)
        assert ring.product(pt, T, CUTOFF) == F.shift(-e)
        # every other basis product is classical: no Novikov correction
        quantum = {frozenset({"T-"}), frozenset({"pt", "T-"})}
        classical = {
            ("F", "F"): model.qh(),
            ("F", "T-"): pt,
            ("F", "pt"): model.qh(),
            ("pt", "pt"): model.qh(),
        }
        for la, _ in model.basis:
            for lb, _ in model.basis:
                if la == "1" or lb == "1":
                    other = model.qh_basis(lb if la == "1" else la)
                    assert ring.product(
                        model.qh_basis(la), model.qh_basis(lb), CUTOFF) == other
                    continue
                if frozenset({la, lb}) in quantum:
                    continue
                got = ring.product(model.qh_basis(la), model.qh_basis(lb), CUTOFF)
                assert got == classical[tuple(sorted((la, lb)))]
                assert all(c.omega == 0 for c in got.terms)
        # exhaustive associativity window: three times the fiber area
        assert model.h2.omega == (Fraction(2),)
        assert ring.associativity_report(3 * Fraction(2))["status"] == "pass"
        # the Seidel element inverts, and the inverse checks by multiplication
        fib = catalog.build("ruled")
        delta = Fraction(7, 12)
        inv = fib.rho_inverse(CUTOFF)
        assert inv == parse_qh(
            fib.fiber, f"F@e^{{{1 - delta}*F}}+T-@e^{{{1 - delta}*F}}")
        prod = fib.fiber_ring.product(fib.rho(CUTOFF), inv, CUTOFF)
        assert prod.truncate(CUTOFF) == fib.fiber_ring.unit()


def test_criterion_3_trivial_bundle_laws():
    with criterion(3, "trivial bundle laws"):
        fib = catalog.build("sphere-product")
        tot = fib.total
        # the operator attached to the reference section is the identity
        assert fib.psi_operator(CUTOFF, sigma=fib.sigma_phi()).is_identity(CUTOFF)
        # the total ring is the tensor square of the fiber ring mod cutoff:
        # vertical part lands at base degree zero, horizontal part costs one
        # base sphere; cutoff 6 excludes multi-sheet terms (base area 5)
        tm, tt = tensor_model(*catalog.sphere(1), *catalog.sphere(5))
        tring = QuantumRing(tm, tt)
        lbl = {"1": "1|pt", "pt": "pt|pt", "s(1)": "1|1", "s(pt)": "pt|1"}

        def transport(q):
            acc = tm.qh()
            for cls, vec in q.terms.items():
                a, s = cls.coords
                assert s == 0
                w = list(tm.zero_vector())
                for idx, coeff in enumerate(vec):
                    if coeff:
                        w[tm.label_index(lbl[tot.basis[idx][0]])] = coeff
                acc = acc + QHClass(tm, {tm.h2.cls((a, Fraction(0))): w})
            return acc

        base = tm.h2.cls((Fraction(0), Fraction(1)))
        for la, _ in tot.basis:
            for lb, _ in tot.basis:
                p, q = tot.qh_basis(la), tot.qh_basis(lb)
                v = fib.vertical_product(p, q, CUTOFF)
                h = fib.horizontal_product(p, q, CUTOFF)
                lhs = tring.product(transport(p), transport(q), CUTOFF)
                rhs = (transport(v) + transport(h).shift(-base)).truncate(CUTOFF)
                assert lhs == rhs
        # stored tables match the product pattern and all axiom suites
        assert verify_product_pattern(fib)["status"] == "pass"
        assert run_suite(fib, "gw-axioms", CUTOFF).ok


def test_criterion_4_composition_and_group_laws():
    with criterion(4, "composition and group laws"):
        ruled = catalog.build("ruled")
        comp, rep = compose(ruled, mirror(ruled, CUTOFF), CUTOFF)
        assert rep["status"] == "pass"
        assert comp.rho(CUTOFF) == comp.fiber_ring.unit()
        assert comp.psi_operator(CUTOFF).is_identity(CUTOFF)
        # rho of a synthesized composite is the quantum product of the factors
        sq, rep2 = compose(ruled, ruled, CUTOFF)
        assert rep2["status"] == "pass"
        want = ruled.fiber_ring.product(
            ruled.rho(CUTOFF), ruled.rho(CUTOFF), CUTOFF).truncate(CUTOFF)
        assert sq.rho(CUTOFF) == want
        # the half-turn rotation composes with itself to the trivial loop
        rot = catalog.build("sphere-rotation")
        double, rep3 = compose(rot, rot, CUTOFF)
        assert rep3["status"] == "pass"
        assert double.rho(CUTOFF) == rot.fiber_ring.unit()


def test_criterion_5_splitting_machinery():
    with criterion(5, "splitting machinery"):
        rng = random.Random(5150)
        checked = 0
        while checked < 120:
            n = rng.choice((2, 3))
            k = rng.randint(2, 6)
            degrees = [rng.choice(range(0, 2 * n + 1)) for _ in range(k)]
            q = [[Fraction(0)] * k for _ in range(k)]
            nonzero = False
            for i in range(k):
                for j in range(i, k):
                    if degrees[i] + degrees[j] != 2 * n - 2:
                        continue
                    v = Fraction(rng.randint(-5, 5))
                    q[i][j] = v
                    q[j][i] = v * (-1) ** (degrees[i] * degrees[j])
                    if i == j and degrees[i] % 2:
                        q[i][j] = Fraction(0)
                    nonzero = nonzero or bool(q[i][j])
            if not nonzero:
                continue
            lam = splitting_correction(degrees, n, q)
            assert correction_valid(degrees, q, lam)
            checked += 1
        # vertical-vanishing fixture: the splitting section passes its
        # isotropy identities and the full report is clean
        qtp = catalog.build("quantum-trivial-product")
        rep = ring_split_check(qtp, CUTOFF)
        assert rep["status"] == "pass"
        for want in ("pairing-isotropic", "triple-isotropic",
                     "fiber-squares-to-total"):
            assert any(ln.startswith(f"{want}: pass") for ln in rep["details"])
        # a fixture with nonvanishing vertical invariants fails honestly
        ruled = catalog.build("ruled")
        bad = ring_split_check(ruled, CUTOFF)
        assert bad["status"] == "skip"
        assert bad["details"] == offending_lines(ruled)
        assert not any(STEP_LINE.match(ln) for ln in bad["details"])


def test_criterion_6_wang_and_mutation_detection():
    with criterion(6, "Wang exactness and mutation detection"):
        for name in BUILTINS:
            assert catalog.build(name).wang_report()["status"] == "pass"
        missed = []
        for name in BUILTINS:
            clean = to_dict(catalog.build(name))
            for tk in ("fiber_gw", "vertical_gw", "section_gw"):
                for part in ("two_point", "three_point", "four_point_chi"):
                    for pos in range(len(clean[tk].get(part, ()))):
                        d = to_dict(catalog.build(name))
                        entry = d[tk][part][pos]
                        entry[2] = str(Fraction(entry[2]) + 1)
                        try:
                            detected = not run_suite(from_dict(d), "all", CUTOFF).ok
                        except QhfibError:
                            detected = True
                        if not detected:
                            missed.append((name, tk, part, pos))
        assert not missed, f"undetected mutations: {missed}"


def test_criterion_7_nonsqueezing_bound():
    with criterion(7, "nonsqueezing bound"):
        qtp = catalog.build("quantum-trivial-product")
        assert qtp.base_area == Fraction(2)
        assert qtp.nonsqueezing().bound == Fraction(2)
        # zeroing every through-point section count removes the bound
        d = to_dict(qtp)
        d["section_gw"]["three_point"] = [
            e for e in d["section_gw"]["three_point"] if "pt" not in e[0]]
        assert from_dict(d).nonsqueezing().bound is None
        # no declared completeness window means no bound claim at all
        with pytest.raises(TableIncomplete):
            catalog.build("ruled").nonsqueezing()
