"""The scalar rule: every stored exact rational is an int when its
denominator is 1 and a Fraction otherwise, never a float. `_exact` applies
it, `_linalg` answers under it, and a quotient of ints stays exact.
A walk over the shipped models finds every stored scalar canonical, and a
property test checks the class arithmetic against plain Fraction sums."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhfib import (
    FibrationModel, GWTable, H2Lattice, ManifoldModel, NovikovElement, QHClass, QuantumRing,
    catalog, mirror, nov_invert, run_suite)
from qhfib._linalg import invert, rref, solve
from qhfib.fibration import PsiOperator
from qhfib.novikov import H2Class, _exact
from tests.conftest import BUILTINS, CUTOFF
from tests.test_seidel import KAPPAS


def canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_exact_keeps_ints_and_lowers_integral_fractions():
    half = Fraction(1, 2)
    assert _exact(half) is half  # a Fraction is never rebuilt
    for x, want in [(3, 3), (-7, -7), (Fraction(6, 2), 3), (Fraction(-4, 2), -2),
                    (Fraction(0), 0), (True, 1), ("2", 2), ("3/4", Fraction(3, 4)),
                    (0.5, Fraction(1, 2))]:
        got = _exact(x)
        assert got == want and type(got) is type(want), x


@pytest.mark.parametrize("bad", ["x", "1/0", None])
def test_exact_refuses_what_fraction_refuses(bad):
    with pytest.raises((ValueError, TypeError, ZeroDivisionError)):
        _exact(bad)


def test_linalg_on_int_input_divides_exactly():
    assert solve([[2]], [1]) == [Fraction(1, 2)]
    red, pivots = rref([[2, 1], [4, 4]])
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1]
    red, _ = rref([[2, 1]])
    assert red == [[1, Fraction(1, 2)]]
    inv = invert([[2, 0], [0, 1]])
    assert inv == [[Fraction(1, 2), 0], [0, 1]]
    for x in [*solve([[2]], [1]), *red[0], *inv[0], *inv[1]]:
        assert canonical(x)
    assert [type(x) for x in [*red[0], *inv[0], *inv[1]]] == [int, Fraction, Fraction, int, int, int]


def test_linalg_divides_by_a_unit_or_an_even_pivot_in_ints():
    red, pivots = rref([[-1, 3, 0], [2, 4, 6]])
    assert red == [[1, 0, Fraction(9, 5)], [0, 1, Fraction(3, 5)]] and pivots == [0, 1]
    rows = [*rref([[2, 4, -6], [0, 3, 9]])[0], *invert([[1, 2], [0, -1]]), solve([[3, 6]], [9]),
            *rref([[Fraction(2), Fraction(4, 2)]])[0]]
    assert rows == [[1, 0, -9], [0, 1, 3], [1, 2], [0, -1], [3, 0], [1, 1]]
    assert all(type(x) is int for row in rows for x in row)


def test_nov_invert_of_two_is_one_half():
    lat = H2Lattice(generators=("A",), omega=(1,), c1=(0,), spherical=(True,))
    inv = nov_invert(NovikovElement(lat, {lat.zero(): 2}), 6)
    assert inv.terms == {lat.zero(): Fraction(1, 2)}
    assert all(type(a) is Fraction for a in inv.terms.values())


# -- the walk over the shipped models ------------------------------------------


def scalars(x, seen):
    """Every number x holds, through the model, table, ring, fibration and
    class types and every value they keep; numbers in a key tuple included."""
    if x is None or isinstance(x, (str, bool)):
        return
    if isinstance(x, (int, Fraction, float)):
        yield x
        return
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, H2Lattice):
        parts = [x.omega, x.c1, x.embed]
    elif isinstance(x, H2Class):
        parts = [x.coords, x.omega, x.c1, x.lattice]
    elif isinstance(x, (NovikovElement, QHClass)):
        parts = [x.terms]
    elif isinstance(x, PsiOperator):
        parts = [x.images, x.cutoff]
    elif isinstance(x, ManifoldModel):
        parts = [x.pairing, x.triple, x.h2, x._kept]
    elif isinstance(x, GWTable):
        parts = [x.two_point, x.three_point, x.four_point_chi, x.complete_below, x._kept]
    elif isinstance(x, QuantumRing):
        parts = [x.model, x.table, x._kept]
    elif isinstance(x, FibrationModel):
        parts = [x.iota, x.splitting_map, x.iota_h2, x.sigma_ref, x.base_area, x.fiber,
                 x.fiber_gw, x.total, x.vertical_gw, x.section_gw, x.fiber_ring,
                 x.vertical_ring, x._kept]
    elif isinstance(x, dict):
        parts = [*x.keys(), *x.values()]
    elif isinstance(x, (list, tuple)):
        parts = x
    else:
        raise TypeError(f"the walk does not know {type(x).__name__}")
    for part in parts:
        yield from scalars(part, seen)


@pytest.mark.parametrize("name, kappa", [(name, None) for name in BUILTINS] + [
    ("ruled", k) for k in KAPPAS])
def test_every_stored_scalar_is_an_int_or_a_proper_fraction(name, kappa):
    fib = catalog.build(name, kappa=kappa) if kappa else catalog.build(name)
    run_suite(fib, "all", CUTOFF)  # fills the kept values the walk reads
    f, ring = fib.fiber, fib.fiber_ring
    results = [fib.fiber.dual_basis(), fib.total.dual_basis(), fib._iota_preimages(),
               fib.fiber_restriction_matrix(), fib.psi_operator(CUTOFF).images]
    results += ring.basis_table(True)[0]
    for table, owner in ((fib.fiber_gw, f), (fib.vertical_gw, fib.total)):
        results += [owner._cap_pair(i, k) for i in range(len(owner.basis))
                    for k in range(len(owner.basis))]
        results += [table._pair(cls, i, k) for cls in table.known_key_classes("three_point")
                    for i in range(len(owner.basis)) for k in range(len(owner.basis))]
    results += [fib.rho(CUTOFF), fib.rho_inverse(CUTOFF), mirror(fib, CUTOFF)]
    found = list(scalars([fib, results], set()))
    assert len(found) > 100
    bad = [x for x in found if not canonical(x)]
    assert not bad, bad[:5]


def test_the_walk_sees_proper_fractions_and_the_mirror_table():
    fib = catalog.build("ruled", kappa="1/2")
    two = mirror(fib, CUTOFF).section_gw.two_point
    assert two and all(canonical(v) for v in two.values())
    found = list(scalars(fib, set()))
    assert any(type(x) is Fraction for x in found)  # the section's area is not integral


def test_the_kept_constants_of_a_pairing_with_a_fractional_inverse_are_canonical():
    lat = H2Lattice(generators=("A",), omega=(1,), c1=(2,), spherical=(True,))
    m = ManifoldModel("sphere, pairing 2", 1, [("1", 2), ("pt", 0)], [[0, 2], [2, 0]],
                      {("1", "1", "pt"): 2}, lat)
    assert m.dual_basis() == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert m._cap_pair(0, 0) == [(0, 1)]  # 2 times the dual of pt, 1/2 [1]
    found = list(scalars(m, set()))
    assert found and all(map(canonical, found))


# -- the arithmetic against plain Fraction sums --------------------------------

LAT = H2Lattice(generators=("A", "B"), omega=(2, Fraction(1, 3)), c1=(1, 0),
                spherical=(True, True))
MODEL = ManifoldModel("sphere over A, B", 1, [("1", 2), ("pt", 0)], [[0, 1], [1, 0]],
                      {("1", "1", "pt"): 1}, LAT)

scalar = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
exps = st.tuples(scalar, scalar).map(LAT.cls)
vectors = st.lists(scalar, min_size=2, max_size=2)
qh_classes = st.dictionaries(exps, vectors, max_size=4).map(lambda t: QHClass(MODEL, t))
novikov = st.dictionaries(exps, scalar, max_size=4).map(lambda t: NovikovElement(LAT, t))
cutoffs = st.one_of(st.integers(0, 6), st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)))


def key(e):
    return Fraction(e.omega), Fraction(e.c1)


def ref_qh(q):
    return {key(e): [Fraction(x) for x in v] for e, v in q.terms.items()}


def ref_nov(x):
    return {key(e): Fraction(a) for e, a in x.terms.items()}


def assert_qh(got, want):
    assert ref_qh(got) == {k: v for k, v in want.items() if any(v)}
    for e, v in got.terms.items():
        assert all(map(canonical, [*v, *e.coords, e.omega, e.c1])), got


def assert_nov(got, want):
    assert ref_nov(got) == {k: v for k, v in want.items() if v}
    for e, a in got.terms.items():
        assert all(map(canonical, [a, *e.coords, e.omega, e.c1])), got


def ref_mul(x, y):
    out = {}
    for (w1, c1), a in x.items():
        for (w2, c2), b in y.items():
            k = (w1 + w2, c1 + c2)
            out[k] = out.get(k, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


@given(qh_classes, qh_classes, scalar, exps, cutoffs)
def test_class_arithmetic_matches_plain_fractions(a, b, r, e, cutoff):
    ra, rb = ref_qh(a), ref_qh(b)
    total = dict(ra)
    for k, v in rb.items():
        total[k] = [x + y for x, y in zip(total.get(k, [Fraction(0)] * 2), v)]
    assert_qh(a + b, total)
    assert_qh(a.scale(r), {k: [Fraction(r) * x for x in v] for k, v in ra.items()})
    w, c = key(e)
    assert_qh(a.shift(e), {(k[0] + w, k[1] + c): v for k, v in ra.items()})
    assert_qh(a.truncate(cutoff), {k: v for k, v in ra.items() if k[0] >= -Fraction(cutoff)})


@given(novikov, novikov, cutoffs)
def test_novikov_product_and_inverse_match_plain_fractions(x, y, cutoff):
    rx, ry = ref_nov(x), ref_nov(y)
    assert_nov(x * y, ref_mul(rx, ry))
    if not rx:
        return
    top = max(w for w, _ in rx)
    if sum(w == top for w, _ in rx) != 1 or top > cutoff:
        return  # refused: covered by the Novikov tests
    # the geometric series of the inverse, in Fractions throughout
    (w0, c0), a0 = next((k, a) for k, a in rx.items() if k[0] == top)
    r = {(w - w0, c - c0): -a / a0 for (w, c), a in rx.items() if (w, c) != (w0, c0)}
    window = Fraction(cutoff) - w0
    acc, power = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}
    while True:
        power = {k: v for k, v in ref_mul(power, r).items() if k[0] >= -window}
        if not power:
            break
        for k, v in power.items():
            acc[k] = acc.get(k, Fraction(0)) + v
    want = {(w - w0, c - c0): v / a0 for (w, c), v in acc.items()
            if w - w0 >= -Fraction(cutoff)}
    assert_nov(nov_invert(x, cutoff), want)
