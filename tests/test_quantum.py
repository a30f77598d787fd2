"""Quantum products on a closed fiber: oracles, axioms, inversion."""

from fractions import Fraction

import pytest

from qhfib import (
    DimensionRuleViolation,
    GWTable,
    NotInvertible,
    QuantumRing,
    TableIncomplete,
    catalog,
    tensor_model,
)
from qhfib.quantum import check, step
from tests.conftest import CUTOFF, replaced


@pytest.fixture(scope="module")
def ring():
    model, table = catalog.ruled_surface_fiber()
    return QuantumRing(model, table)


def test_a_ring_needs_a_fiber_table():
    # section counts are parametrized and have no product of their own
    fib = catalog.build("sphere-product")
    with pytest.raises(ValueError) as err:
        QuantumRing(fib.total, fib.section_gw)
    assert str(err.value) == "a quantum ring needs a fiber table, not a section one"


def test_unit_is_the_fundamental_class(ring):
    m = ring.model
    for lbl, _ in m.basis:
        a = m.qh_basis(lbl)
        assert ring.product(ring.unit(), a, CUTOFF) == a


def test_product_oracles(ring):
    m = ring.model
    T = m.qh_basis("T-")
    F = m.qh_basis("F")
    pt = m.qh_basis("pt")
    e = m.h2.gen("F")
    assert ring.product(T, T, CUTOFF) == -pt + ring.unit().shift(-e)
    assert ring.product(pt, T, CUTOFF) == F.shift(-e)
    assert ring.product(pt, pt, CUTOFF).is_zero()
    assert ring.product(T, F, CUTOFF) == pt
    assert ring.product(F, F, CUTOFF).is_zero()


def test_product_is_commutative_and_graded(ring):
    m = ring.model
    dim = 2 * m.n
    for la, da in m.basis:
        for lb, db in m.basis:
            a, b = m.qh_basis(la), m.qh_basis(lb)
            ab = ring.product(a, b, CUTOFF)
            assert ab == ring.product(b, a, CUTOFF)
            if not ab.is_zero():
                assert ab.homogeneous_degree() == da + db - dim


def test_associativity_reports(ring):
    assert ring.associativity_report(CUTOFF)["status"] == "pass"
    assert ring.assoc1_report()["status"] == "pass"
    assert ring.axioms_report()["status"] == "pass"
    assert ring.qh_plus_closure_report(CUTOFF)["status"] == "pass"


def test_inverse_oracle(ring):
    m = ring.model
    T = m.qh_basis("T-")
    e = m.h2.gen("F")
    want = (m.qh_basis("F") + T).shift(e)
    inv = ring.inverse(T, CUTOFF)
    assert inv == want
    assert ring.product(T, inv, CUTOFF).truncate(CUTOFF) == ring.unit()
    assert ring.is_unit(T, CUTOFF)


def test_point_class_is_not_a_unit(ring):
    pt = ring.model.qh_basis("pt")
    assert not ring.is_unit(pt, CUTOFF)
    with pytest.raises(NotInvertible):
        ring.inverse(pt, CUTOFF)
    with pytest.raises(NotInvertible):
        ring.inverse(ring.model.qh(), CUTOFF)


def test_table_rejects_dimension_rule_violations():
    model, _ = catalog.ruled_surface_fiber()
    F = model.h2.gen("F")
    with pytest.raises(DimensionRuleViolation):
        GWTable(model, two_point={("pt", "pt", F): Fraction(1)})
    with pytest.raises(DimensionRuleViolation):
        GWTable(model, three_point={("F", "F", "F", F): Fraction(1)})


def test_table_rejects_unusable_key_classes():
    model, _ = catalog.ruled_surface_fiber()
    F = model.h2.gen("F")
    with pytest.raises(ValueError):
        GWTable(model, two_point={("T-", "pt", model.h2.zero()): Fraction(1)})
    with pytest.raises(ValueError):
        GWTable(model, two_point={("T-", "pt", -F): Fraction(1)})
    with pytest.raises(ValueError):
        GWTable(model, two_point={("T-", "pt", F.scale(Fraction(1, 2))): Fraction(1)})


def test_koszul_canonicalization_merges_key_orders():
    model, table = catalog.ruled_surface_fiber()
    F = model.h2.gen("F")
    i, j, k = (model.label_index(x) for x in ("T-", "T-", "pt"))
    assert table.three(i, j, k, F) == table.three(k, i, j, F) == 1


def test_window_semantics():
    model, table = catalog.ruled_surface_fiber()
    F = model.h2.gen("F")
    i, j = model.label_index("T-"), model.label_index("pt")
    # stored entry
    assert table.two(i, j, F) == 1
    # inside the declared-complete window, unstored means zero
    assert table.two(i, i, F.scale(2)) == 0
    # outside the window the table refuses to answer
    narrow = GWTable(model, two_point={("T-", "pt", F): Fraction(1)},
                     complete_below={"two_point": Fraction(2)})
    assert narrow.two(i, j, F) == 1
    with pytest.raises(TableIncomplete):
        narrow.two(i, i, F.scale(2))
    with pytest.raises(TableIncomplete):
        narrow.three(i, i, j, F)


def test_replace_builds_an_independent_table():
    model, table = catalog.ruled_surface_fiber()
    F = model.h2.gen("F")
    key = ((model.label_index("F"), model.label_index("T-"),
            model.label_index("T-"), model.label_index("T-")), F)
    tampered = replaced(table, "four_point_chi", {key: Fraction(5)})
    assert tampered.four_point_chi[key] == 5
    assert table.four_point_chi[key] == 1
    ring = QuantumRing(model, tampered)
    assert ring.assoc1_report()["status"] == "fail"


def test_tensor_ring_of_two_spheres():
    mf, gf = catalog.sphere(1)
    mb, gb = catalog.sphere(5)
    tm, tt = tensor_model(mf, gf, mb, gb, "SxS")
    ring = QuantumRing(tm, tt)
    assert ring.associativity_report(CUTOFF)["status"] == "pass"
    pp = tm.qh_basis("pt|pt")
    a = tm.h2.gen("A")
    ap = tm.h2.gen("A'")
    assert ring.product(pp, pp, CUTOFF) == tm.qh_basis("1|1").shift(-a - ap)
    assert ring.product(ring.unit(), pp, CUTOFF) == pp


def test_tensor_ring_of_ruled_fiber_and_sphere():
    # the factor-2 triple (1, 1, pt) must also pair in its orders (1, pt, 1)
    # and (pt, 1, 1) against the ruled fiber's sorted keys
    mf, gf = catalog.ruled_surface_fiber()
    mb, gb = catalog.sphere(5)
    tm, tt = tensor_model(mf, gf, mb, gb, "RxS")
    ring = QuantumRing(tm, tt)
    one_pt, f_one = tm.qh_basis("1|pt"), tm.qh_basis("F|1")
    assert ring.product(one_pt, f_one, CUTOFF) == tm.qh_basis("F|pt")
    assert ring.product(f_one, one_pt, CUTOFF) == tm.qh_basis("F|pt")
    for cutoff in (2, 4):
        assert ring.associativity_report(cutoff)["status"] == "pass"


def test_check_records_decide_fail_then_skip_then_pass():
    assert check([]) == {"status": "pass", "details": []}
    assert check([], ["b", "a", "b"]) == {"status": "skip", "details": ["a", "b"]}
    assert check(["x"], ["a"]) == {"status": "fail", "details": ["x"]}
    rep = check([])
    step(rep, "first", True)
    step(rep, "second", False, "why")
    step(rep, "third", True, "fine")
    assert rep == {"status": "fail",
                   "details": ["first: pass", "second: fail (why)", "third: pass (fine)"]}


def test_a_unit_is_inverted_however_far_its_inverse_lies(ring):
    """No window of candidate exponents bounds the answer: (T- e^{-nF})^-1 =
    (F + T-) e^{(n+1)F} at every n and cutoff."""
    m = ring.model
    F = m.h2.gen("F")
    for n in (0, 1, 5, 20, 60):
        q = m.qh_basis("T-").shift(F.scale(-n))
        want = (m.qh_basis("F") + m.qh_basis("T-")).shift(F.scale(n + 1))
        for cutoff in (0, 2, CUTOFF):
            assert ring.inverse(q, cutoff) == want


def test_a_stored_invariant_with_a_fundamental_slot_fails_the_axioms(ring):
    m = ring.model
    idx = tuple(map(m.label_index, ("1", "pt", "pt")))
    bad = QuantumRing(m, replaced(ring.table, "three_point", {(idx, m.h2.gen("F")): 1}))
    assert bad.axioms_report() == {"status": "fail", "details": [
        "three_point (1,pt,pt; H2<1*F>) = 1, must vanish (fundamental-class insertion)"]}
