"""Exact inversion through the k x k multiplication matrix, against the
candidate-exponent search it replaced.

That search walked a window of exponents sized by a heuristic, solved one
large linear system over it, and refused every unit whose inverse fell
outside the window. It is kept here as the reference: wherever it found an
inverse, inverse_or_none must return the same class. The other tests are
units the search refused and classes that are not units."""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from qhfib import (
    GWTable, H2Lattice, ManifoldModel, NotInvertible, NovikovElement, QuantumRing, catalog,
    tensor_model)
from qhfib._linalg import solve
from qhfib.fixtures import parse_qh
from qhfib.novikov import nov_invert
from tests.test_kernel import assert_same

KAPPAS = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/4")
FIBRATIONS = [("ruled", k) for k in KAPPAS] + [
    (name, None) for name in ("sphere-rotation", "sphere-product", "quantum-trivial-product")]
CUTOFFS = tuple(map(Fraction, ("0", "1/2", "1", "2", "3", "5", "6", "12", "24", "48", "96")))
BUDGET = 4096


class SearchExhausted(Exception):
    pass


def ref_candidate_exponents(ring, q, cutoff):
    keys = ring.table.known_key_classes("three_point")
    bases = [-e for e in q.terms]
    base_hi = max(b.omega for b in bases)
    base_lo = min(b.omega for b in bases)
    if keys:
        min_step = min(k.omega for k in keys)
        max_step = max(k.omega for k in keys)
        max_c1 = max(abs(k.c1) for k in keys)
        slack = int(cutoff / min_step) + 2
        hi = base_hi + slack * max_step
    else:
        max_c1 = Fraction(0)
        hi = base_hi
    lo = min(base_lo - cutoff, -cutoff)
    depth = int((hi - lo) / min_step) + 1 if keys else 0
    c1_lo = min(b.c1 for b in bases) - depth * max_c1
    c1_hi = max(b.c1 for b in bases) + depth * max_c1
    seen = dict.fromkeys(bases)
    frontier = list(seen)
    while frontier:
        if len(seen) > BUDGET:
            raise SearchExhausted
        nxt = []
        for e in frontier:
            for k in keys:
                for step in (k, -k):
                    c = e + step
                    if lo <= c.omega <= hi and c1_lo <= c.c1 <= c1_hi and c not in seen:
                        seen[c] = None
                        nxt.append(c)
        frontier = nxt
    return sorted(seen, key=lambda c: (-c.omega, c.c1, c.coords))


def ref_inverse_or_none(ring, q, cutoff):
    """The candidate search: one linear system over the window of exponents."""
    cutoff = Fraction(cutoff)
    m = ring.model
    if q.is_zero():
        return None
    dim = len(m.basis)
    cands = ref_candidate_exponents(ring, q, cutoff)
    cols_by_basis = [ring.product(q, m.qh_basis(lbl)) for lbl in m.labels]
    targets = {}
    for e in cands:
        for col in cols_by_basis:
            for g in col.terms:
                t = g + e
                if t.omega >= -cutoff and t not in targets:
                    targets[t] = len(targets)
    zero = m.h2.zero()
    if zero not in targets:
        targets[zero] = len(targets)
    a = [[Fraction(0)] * (len(cands) * dim) for _ in range(len(targets) * dim)]
    rhs = [Fraction(0)] * (len(targets) * dim)
    rhs[targets[zero] * dim + m.fundamental_index] = Fraction(1)
    for ci, e in enumerate(cands):
        for k in range(dim):
            for g, vec in cols_by_basis[k].terms.items():
                ti = targets.get(g + e)
                if ti is not None:
                    for comp in range(dim):
                        a[ti * dim + comp][ci * dim + k] += vec[comp]
    x = solve(a, rhs)
    if x is None:
        return None
    inv = m.qh({e: x[ci * dim:(ci + 1) * dim] for ci, e in enumerate(cands)})
    if ring.product(q, inv).truncate(cutoff) != ring.unit().truncate(cutoff):
        return None
    return inv


def ref_fl_inverse(ring, q, cutoff):
    """The Faddeev-LeVerrier loop over the dense multiplication matrix: every
    entry of A M_j a sum over all s, started at zero, then the same window,
    unit decision and final check as inverse_or_none."""
    m, k = ring.model, len(ring.model.basis)
    zero = NovikovElement(m.h2)
    cols = [ring.product(q, m.qh_basis(lbl)).terms for lbl in m.labels]
    a = [[NovikovElement(m.h2, {e: v[t] for e, v in col.items()}) for col in cols]
         for t in range(k)]
    mj = [[NovikovElement.unit(m.h2) if t == u else zero for u in range(k)] for t in range(k)]
    for j in range(1, k):
        am = [[sum((a[t][s] * mj[s][u] for s in range(k) if a[t][s].terms and mj[s][u].terms),
                   zero) for u in range(k)] for t in range(k)]
        c = sum((am[t][t] for t in range(k)), zero) * Fraction(-1, j)
        mj = [[x + c if t == u else x for u, x in enumerate(row)] for t, row in enumerate(am)]
    fx = m.fundamental_index
    adj_x = [row[fx] for row in mj]
    minus_c = sum((a[fx][s] * adj_x[s] for s in range(k) if a[fx][s].terms), zero)
    window = Fraction(cutoff) + max((e.omega for e in q.terms if e.omega > 0), default=0)
    widen = max((e.omega for p in adj_x for e in p.terms), default=0)
    try:
        inv_c = nov_invert(minus_c, window + widen)
    except NotInvertible:
        return None
    terms: dict = {}
    for t, p in enumerate(adj_x):
        for e, x in (p * inv_c).terms.items():
            if e.omega >= -window:
                terms.setdefault(e, m.zero_vector())[t] = x
    inv = m.qh(terms)
    if ring.product(q, inv, cutoff) != ring.unit().truncate(cutoff):
        return None
    return inv


def assert_same_inverse(ring, q, cutoff):
    """inverse_or_none gives what the dense loop gives, with the same
    coordinates printed, or raises the same way."""
    try:
        want = ref_fl_inverse(ring, q, cutoff)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            ring.inverse_or_none(q, cutoff)
        return
    got = ring.inverse_or_none(q, cutoff)
    if want is None:
        assert got is None, (q, cutoff)
    else:
        assert_same(got, want)
    return want is not None


def two_generator_sphere():
    """A sphere-like ring with an empty table, declared complete through
    area 100, over a lattice whose generators A and B both have area 1,
    with Chern numbers 0 and 2."""
    lat = H2Lattice(generators=("A", "B"), omega=(Fraction(1), Fraction(1)),
                    c1=(Fraction(0), Fraction(2)), spherical=(True, True))
    m = ManifoldModel("two-generator sphere", 1, [("1", 2), ("pt", 0)],
                      [[0, 1], [1, 0]], {("1", "1", "pt"): 1}, lat)
    return QuantumRing(m, GWTable(m, "fiber", complete_below=100))


def assert_inverse(ring, q, inv, cutoff):
    assert ring.product(q, inv).truncate(cutoff) == ring.unit()


def build(name, kappa):
    return catalog.build(name, kappa=kappa) if kappa else catalog.build(name)


def fiber_ring(name):
    return two_generator_sphere() if name == "two-generator" else catalog.build(name).fiber_ring


@pytest.mark.parametrize("name, kappa", FIBRATIONS)
def test_the_exact_inverse_matches_the_candidate_search(name, kappa):
    fib = build(name, kappa)
    ring, m = fib.fiber_ring, fib.fiber
    units = 0
    for cutoff in CUTOFFS:
        classes = [fib.q_class(cutoff, fib.sigma_phi()), fib.q_class(cutoff)]
        classes += [m.qh_basis(lbl) for lbl in m.labels]
        for q in classes:
            want = ref_inverse_or_none(ring, q, cutoff)
            got = ring.inverse_or_none(q, cutoff)
            assert got == want, (q, cutoff)
            units += got is not None
    assert units


def random_class(rnd, m):
    gens = [m.h2.gen(g) for g in m.h2.generators]
    terms = {}
    for _ in range(rnd.randint(1, 3)):
        e = m.h2.zero()
        for g in gens:
            e = e + g.scale(rnd.randint(-2, 2))
        vec = terms.setdefault(e, m.zero_vector())
        vec[rnd.randrange(len(vec))] += rnd.choice((-2, -1, 1, 2, Fraction(1, 2)))
    return m.qh(terms)


@pytest.mark.parametrize("name, refused", [
    ("ruled", 11), ("sphere-rotation", 0), ("sphere-product", 0),
    ("quantum-trivial-product", 43), ("two-generator", 40)])
def test_every_class_the_search_inverts_is_inverted_exactly(name, refused):
    """The search set the terms its window equations did not reach to 0, so
    its answer can miss terms of the inverse, and it refused units whose
    inverse left its window. The exact inverse keeps every term of area
    >= -(cutoff + max(0, leading area of q)), the same at any larger cutoff."""
    rnd = random.Random(f"inverse-{name}")
    ring = fiber_ring(name)
    search_refused = 0
    for _ in range(150):
        q = random_class(rnd, ring.model)
        cutoff = Fraction(rnd.choice((0, 1, 2, 6)))
        want = ref_inverse_or_none(ring, q, cutoff)
        got = ring.inverse_or_none(q, cutoff)
        assert got is not None or want is None, (q, cutoff)
        if got is not None:
            assert_inverse(ring, q, got, cutoff)
            window = cutoff + max(Fraction(0), *(e.omega for e in q.terms))
            assert ring.inverse_or_none(q, cutoff + 5).truncate(window) == got
            assert all(e.omega >= -window for e in got.terms)
            search_refused += want is None
    assert search_refused == refused


def leibniz_det(ring, q):
    """det of the multiplication matrix of q, summed over permutations."""
    m = ring.model
    cols = [ring.product(q, m.qh_basis(lbl)).terms for lbl in m.labels]
    det = NovikovElement(m.h2)
    for perm in permutations(range(len(cols))):
        term = NovikovElement.unit(m.h2) * (-1) ** sum(
            a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        for t, s in enumerate(perm):
            term = term * NovikovElement(m.h2, {e: v[t] for e, v in cols[s].items()})
        det = det + term
    return det


def is_a_novikov_unit(x):
    """Nonzero with one term of greatest area."""
    top = max((e.omega for e in x.terms), default=None)
    return top is not None and sum(e.omega == top for e in x.terms) == 1


@pytest.mark.parametrize("name", ("ruled", "sphere-rotation", "quantum-trivial-product",
                                  "two-generator"))
def test_a_class_is_inverted_exactly_when_its_determinant_is_a_unit(name):
    rnd = random.Random(f"determinant-{name}")
    ring = fiber_ring(name)
    seen = set()
    for _ in range(60):
        q = random_class(rnd, ring.model)
        unit = is_a_novikov_unit(leibniz_det(ring, q))
        assert (ring.inverse_or_none(q, Fraction(2)) is not None) == unit, q
        seen.add(unit)
    assert seen == {True, False} or name == "sphere-rotation"


@pytest.mark.parametrize("ring, text, inverse", [
    (catalog.build("ruled").fiber_ring, "F@e^{2*F}+T-@e^{-F}", "-F@e^{5*F}+F@e^{2*F}+T-@e^{2*F}"),
    (two_generator_sphere(), "1@e^{A}+pt@e^{B}", "1@e^{-A}-pt@e^{-2*A+B}"),
], ids=["ruled", "two-generator"])
def test_units_whose_inverse_the_search_missed_are_inverted(ring, text, inverse):
    q, want = parse_qh(ring.model, text), parse_qh(ring.model, inverse)
    assert ring.product(q, want) == ring.unit()
    assert ref_inverse_or_none(ring, q, Fraction(2)) is None
    for cutoff in map(Fraction, range(7)):
        assert ring.inverse_or_none(q, cutoff) == want
        assert ring.inverse(q, cutoff) == want


@pytest.mark.parametrize("ring, text", [
    (catalog.build("ruled").fiber_ring, "pt"),
    (catalog.build("ruled").fiber_ring, "F+pt"),
    (two_generator_sphere(), "pt"),
    (two_generator_sphere(), "1@e^{A}+1@e^{B}"),
], ids=["ruled pt", "ruled F+pt", "two-generator pt", "two-generator A+B"])
def test_classes_that_are_not_units_have_no_inverse(ring, text):
    """det A is 0, or its terms of greatest area are not one monomial."""
    q = parse_qh(ring.model, text)
    assert not is_a_novikov_unit(leibniz_det(ring, q))
    for cutoff in map(Fraction, (0, 2, 6, 24)):
        assert ring.inverse_or_none(q, cutoff) is None
        assert not ring.is_unit(q, cutoff)
        with pytest.raises(NotInvertible, match=re.escape(f"{q!r} is not a unit")):
            ring.inverse(q, cutoff)


@pytest.mark.parametrize("name", catalog.BUILTIN_FIBRATIONS)
def test_the_seidel_element_inverts_as_the_dense_loop_does(name):
    fib = catalog.build(name)
    for cutoff in map(Fraction, (0, 2, 6, 24)):
        assert assert_same_inverse(fib.fiber_ring, fib.q_class(cutoff, fib.sigma_phi()), cutoff)


@pytest.mark.parametrize("name", ("ruled", "sphere-rotation", "sphere-product",
                                  "quantum-trivial-product", "two-generator", "equal-areas"))
def test_the_drawn_classes_invert_as_the_dense_loop_does(name):
    """The classes the two random tests above draw, at their cutoffs. On
    S^2(1) x S^2(1) ("equal-areas") A and A' are one class, so equal
    exponents with different coordinates meet in the sums of A M_j, and the
    order of the sums decides which coordinates are printed."""
    if name == "equal-areas":
        ring = QuantumRing(*tensor_model(*catalog.sphere(1), *catalog.sphere(1)))
    else:
        ring = fiber_ring(name)
    decided = []
    rnd = random.Random(f"inverse-{name}")
    for _ in range(150):
        q = random_class(rnd, ring.model)
        decided.append(assert_same_inverse(ring, q, Fraction(rnd.choice((0, 1, 2, 6)))))
    if name not in ("sphere-product", "equal-areas"):
        rnd = random.Random(f"determinant-{name}")
        for _ in range(60):
            decided.append(assert_same_inverse(ring, random_class(rnd, ring.model), Fraction(2)))
    assert True in decided
    assert False in decided or name in ("sphere-rotation", "sphere-product", "equal-areas")
