"""The associativity check from the left products alone, against the
per-triple sweep and the per-pair table fill it replaced, and the two
facts it rests on: the kept basis table is graded commutative, and each
term of e_i * e_j has the parity of |i| + |j|."""

import itertools
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from qhfib import QhfibError, QuantumRing, catalog, tensor_model
from qhfib.fixtures import from_dict, to_dict
from qhfib.quantum import check, contract, sum_offsets, vanishes
from tests.conftest import replaced
from tests.test_kernel import EDITED

CUTOFFS = (None, Fraction(1, 2), Fraction(2), Fraction(6), Fraction(24))


def ref_basis_table(r, bounded):
    """The basis table as the per-pair fill made it: row by row, each pair
    (i, j) reading every block in turn."""
    w = r.table.window("three_point") if bounded else None

    def row(i, j):
        return tuple((b, t, x) for b, (_, cls) in enumerate(r._sources)
                     if b == 0 or w is None or cls.omega <= w
                     for t, x in r.table.constants(cls, [(i, j, 1)]).items())

    k = range(len(r.model.basis))
    rows = tuple(tuple(row(i, j) for j in k) for i in k)
    return rows, tuple(zip(*rows))


def ref_associativity_failures(r, cutoff):
    """The failing triples of the per-triple sweep, in order: both sides of
    each triple summed in one exact accumulator (`vanishes`) from the
    reference table, the right side read as e_i * (e_j * e_k) itself."""
    size = len(r.model.basis)
    rows, cols = ref_basis_table(r, cutoff is not None)
    exps = [e if cutoff is None or e.omega >= -cutoff else None for e in r.exponents]
    sums = sum_offsets({}, exps, exps, cutoff, size)
    return [(i, j, k) for i, j, k in itertools.product(range(size), repeat=3)
            if not vanishes((rows[i][j], cols[k], sums, 1), (rows[j][k], rows[i], sums, -1))]


def ref_associativity_report(r, cutoff):
    """The report as the sweep made it: the sides of each failing triple
    built by one product each, every triple's when the table raises."""
    m = r.model
    if cutoff is not None:
        r._cover(cutoff)

    def as_class(i, j):
        return contract(r.table, m.qh_basis(m.labels[i]), m.qh_basis(m.labels[j]),
                        r._sources, floor=None if cutoff is None else -cutoff)

    try:
        triples = ref_associativity_failures(r, cutoff)
    except QhfibError:
        triples = itertools.product(range(len(m.basis)), repeat=3)
    failures = []
    for i, j, k in triples:
        la, lb, lc = m.labels[i], m.labels[j], m.labels[k]
        left = r.product(as_class(i, j), m.qh_basis(lc), cutoff)
        right = r.product(m.qh_basis(la), as_class(j, k), cutoff)
        if left != right:
            failures.append(f"({la}*{lb})*{lc} != {la}*({lb}*{lc}): {left!r} vs {right!r}")
    return check(failures)


def outcome(fn, *args):
    """What fn returns, or the type and text of the data error it raises."""
    try:
        return fn(*args)
    except QhfibError as exc:
        return type(exc).__name__, str(exc)


def assert_matches_the_sweep(r, cutoffs=CUTOFFS):
    """The kept table, the failing triples and the report of r at each
    cutoff, or the raise of each, are the reference's; returns the
    statuses and raise types of the reports."""
    seen = set()
    for cutoff in cutoffs:
        bounded = cutoff is not None
        assert outcome(r.basis_table, bounded) == outcome(ref_basis_table, r, bounded), cutoff
        assert outcome(r.associator_failures, cutoff) == outcome(
            ref_associativity_failures, r, cutoff), cutoff
        report = outcome(r.associativity_report, cutoff)
        assert report == outcome(ref_associativity_report, r, cutoff), cutoff
        seen.add(report[0] if isinstance(report, tuple) else report["status"])
    return seen


def rings(site):
    fib = from_dict(EDITED[site])
    return fib.fiber_ring, fib.vertical_ring


@pytest.mark.parametrize("site", EDITED)
def test_the_associator_matches_the_per_triple_sweep(site):
    for r in rings(site):
        assert_matches_the_sweep(r)


def test_a_block_that_reads_its_slots_raises_before_the_next_block_is_read():
    # ruled's total ring, unbounded: the cap reads the triple form, which
    # leaves (Zm, Zm, Zp) undeclared, and every key class lies above the
    # window of 0. The table fills block by block, so the cap's raise at the
    # pair (Zm, Zm) comes first; the per-pair fill met the class F at the
    # pair (pt, pt) first. The report builds the products either way.
    d = to_dict(catalog.build("ruled"))
    d["vertical_gw"]["complete_below"]["three_point"] = "0"
    r = from_dict(d).vertical_ring
    m = r.model
    for c in combinations_with_replacement(range(len(m.basis)), 3):
        if sum(m.degrees[t] for t in c) == 4 * m.n:
            m.triple.setdefault(c, 0)
    del m.triple[tuple(sorted(map(m.labels.index, ("Zm", "Zm", "Zp"))))]
    m.triple_complete = False
    missing = "MissingTripleData", "ruled-total: triple intersection (Zm, Zm, Zp) undeclared"
    assert outcome(r.basis_table, False) == missing
    assert outcome(ref_basis_table, r, False) == (
        "TableIncomplete", "ruled-total: three_point invariant (pt,pt,pt; H2<1*F>) is outside "
        "the declared-complete range (complete through area 0)")
    assert outcome(r.basis_table, True) == outcome(ref_basis_table, r, True) == missing
    for cutoff in (None, Fraction(0)):
        assert outcome(r.associativity_report, cutoff) == outcome(
            ref_associativity_report, r, cutoff)


@pytest.mark.parametrize("site", ["ruled", "torus-product", "ruled fiber_gw.three_point[0] +1"])
def test_the_associator_reads_the_rows_of_the_table_alone(site, monkeypatch):
    # the right sides come from graded commutativity, not from the columns
    real = QuantumRing.basis_table
    for r in rings(site):
        want = r.associator_failures(Fraction(6))
        monkeypatch.setattr(QuantumRing, "basis_table", lambda self, b: (real(self, b)[0], None))
        assert r.associator_failures(Fraction(6)) == want == ref_associativity_failures(
            r, Fraction(6))
        monkeypatch.setattr(QuantumRing, "basis_table", real)


def test_the_edited_fixtures_reach_failing_and_raising_associators():
    seen = set()
    for site in EDITED:
        for r in rings(site):
            got = outcome(r.associator_failures, Fraction(6))
            seen.add("raise" if isinstance(got, tuple) else "fail" if got else "pass")
    assert seen == {"pass", "fail", "raise"}


def sphere_ladder(classes):
    """The ruled fiber tensored with spheres of area 5 up to `classes` classes."""
    m, t = catalog.ruled_surface_fiber()
    while len(m.basis) < classes:
        m, t = tensor_model(m, t, *catalog.sphere(5))
    return QuantumRing(m, t)


def equal_spheres():
    """S^2(1) x S^2(1): its two line classes have equal area and Chern number."""
    return QuantumRing(*tensor_model(*catalog.sphere(1), *catalog.sphere(1)))


@pytest.mark.parametrize("classes", [8, 16, 32])
def test_the_associator_matches_the_sweep_on_the_sphere_ladder(classes):
    assert assert_matches_the_sweep(sphere_ladder(classes), (None, Fraction(2), Fraction(6))) == {
        "pass"}


def test_the_associator_matches_the_sweep_where_equal_area_classes_meet():
    r = equal_spheres()
    seen = assert_matches_the_sweep(r)
    for key, n in r.table.three_point.items():
        for d in (1, Fraction(1, 3), -n):
            edited = QuantumRing(r.model, replaced(r.table, "three_point", {key: n + d}))
            seen |= assert_matches_the_sweep(edited)
    assert seen == {"pass", "fail"}


def parity(model, i):
    return model.degrees[i] % 2


@pytest.mark.parametrize("site", EDITED)
def test_the_basis_table_is_graded_commutative_and_keeps_the_parity(site):
    # a table that raises (no window declared, or one below a key class
    # unbounded) holds nothing to check
    for r in rings(site):
        m = r.model
        for bounded in (True, False):
            try:
                rows, cols = r.basis_table(bounded)
            except QhfibError:
                continue
            for i, j in itertools.product(range(len(m.basis)), repeat=2):
                sign = (-1) ** (m.degrees[i] * m.degrees[j])
                assert rows[j][i] == tuple((b, t, sign * x) for b, t, x in rows[i][j])
                assert all(parity(m, t) == (parity(m, i) + parity(m, j)) % 2
                           for _, t, _ in rows[i][j])
            assert cols == tuple(zip(*rows))
