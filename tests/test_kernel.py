"""The contraction kernel against a reference that solves every pairing
system anew, term by term, by elimination on the transposed pairing."""

import functools
import json
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhfib import (
    DegeneratePairing,
    GWTable,
    H2Lattice,
    ManifoldModel,
    MissingTripleData,
    QHClass,
    QhfibError,
    QuantumRing,
    TableIncomplete,
    catalog,
    format_rational,
    run_suite,
    tensor_model,
)
from qhfib._linalg import multilinear, solve
from qhfib.fibration import PsiOperator, compose, mirror
from qhfib.manifold import koszul_sorted
from qhfib.fixtures import format_qh, from_dict, parse_qh, to_dict
from qhfib.quantum import check
from tests.conftest import BUILTINS, replaced, rerun
from tests.test_derived import MUTATED

CUTOFF = Fraction(6)


# models are never mutated, so each is built once for the whole module
@functools.cache
def fibration(name):
    return catalog.build(name)


@functools.cache
def ring(name):
    """A QuantumRing by name: '<builtin>/fiber', '<builtin>/vertical' or a
    tensor model."""
    if name == "sphere x sphere":
        return QuantumRing(*tensor_model(*catalog.sphere(1), *catalog.sphere(5)))
    if name == "ruled fiber x sphere":
        return QuantumRing(*tensor_model(*catalog.ruled_surface_fiber(), *catalog.sphere(5)))
    if name == "ruled fiber x sphere x sphere":
        return QuantumRing(*tensor_model(*tensor_model(*catalog.ruled_surface_fiber(),
                                                       *catalog.sphere(2)), *catalog.sphere(3)))
    if name == "torus x sphere":
        return QuantumRing(*tensor_model(*catalog.torus(), *catalog.sphere(5)))
    fib, space = fibration(name.split("/")[0]), name.split("/")[1]
    return fib.fiber_ring if space == "fiber" else fib.vertical_ring


RINGS = [f"{b}/{s}" for b in BUILTINS for s in ("fiber", "vertical")] + [
    "sphere x sphere", "ruled fiber x sphere"]
# plus odd-degree three-point entries (torus x sphere) and 16 classes
SCATTERED = RINGS + ["torus x sphere", "ruled fiber x sphere x sphere"]


# -- the reference ------------------------------------------------------------


def unit_vector(m, i):
    v = m.zero_vector()
    v[i] = Fraction(1)
    return v


def ref_solve_pairing(m, rhs):
    """x with x . e_j = rhs[j]: the pairing system, transposed, solved anew."""
    k = len(m.basis)
    x = solve([[m.pairing[i][j] for i in range(k)] for j in range(k)], list(rhs))
    assert x is not None
    return x


def ref_cap(m, a, b):
    return ref_solve_pairing(
        m, [m.triple_form(a, b, unit_vector(m, j)) for j in range(len(m.basis))])


def ref_rhs(m, va, vb, three, cls):
    return [
        sum((x * y * three(i, k, j, cls)
             for i, x in enumerate(va) if x for k, y in enumerate(vb) if y), Fraction(0))
        for j in range(len(m.basis))
    ]


def ref_product(r, a, b, cutoff):
    m, table = r.model, r.table
    out = m.qh({})
    for ea, va in a.terms.items():
        for eb, vb in b.terms.items():
            base = ea + eb
            out = out + m.qh({base: ref_cap(m, va, vb)})
            for cls in table.known_key_classes("three_point"):
                shift = base - cls
                if cutoff is not None and shift.omega < -cutoff:
                    continue  # outside the window: never read
                rhs = ref_rhs(m, va, vb, table.three, cls)
                if any(rhs):
                    out = out + m.qh({shift: ref_solve_pairing(m, rhs)})
    return out if cutoff is None else out.truncate(cutoff)


def ref_nested_failures(r, cutoff):
    """The failure lines of the nested reference products (a*b)*c and
    a*(b*c), each distinct product made once, in first-use order."""
    m, failures, memo = r.model, [], {}

    def mul(a, b):
        if (a, b) not in memo:
            memo[a, b] = ref_product(r, a, b, cutoff)
        return memo[a, b]

    for la in m.labels:
        for lb in m.labels:
            for lc in m.labels:
                a, b, c = m.qh_basis(la), m.qh_basis(lb), m.qh_basis(lc)
                left = mul(mul(a, b), c)
                right = mul(a, mul(b, c))
                if left != right:
                    failures.append(
                        f"({la}*{lb})*{lc} != {la}*({lb}*{lc}): {left!r} vs {right!r}")
    return failures


def ref_horizontal_product(fib, a, b, cutoff, sigma):
    m, table = fib.total, fib.section_gw
    offset0 = sigma - fib.sigma_ref
    cands = [offset0] + [
        cls for cls in table.known_key_classes("three_point")
        if cls != offset0 and fib.fiber_class_from_total(cls - offset0) is not None
    ]
    out = m.qh({})
    for ea, va in a.terms.items():
        for eb, vb in b.terms.items():
            base = ea + eb
            for cls in cands:
                shift = base - (cls - offset0)
                rhs = ref_rhs(m, va, vb, table.three, cls)
                if shift.omega >= -cutoff and any(rhs):
                    out = out + m.qh({shift: ref_solve_pairing(m, rhs)})
    return out.truncate(cutoff)


def ref_psi_images(fib, cutoff, sigma):
    """Psi(e_i) from two-point section counts of iota-images: at each
    offset, the x with x . e_j = n(iota e_i, iota e_j), solved anew."""
    f, table = fib.fiber, fib.section_gw
    k = len(f.basis)
    offset0 = sigma - fib.sigma_ref
    offsets = {offset0: f.h2.zero()}
    for cls in table.known_key_classes("two_point"):
        b = fib.fiber_class_from_total(cls - offset0)
        if b is not None and b.omega <= cutoff:
            offsets.setdefault(cls, b)
    images = []
    for i in range(k):
        img = f.qh({})
        for cls, b in offsets.items():
            row = [
                sum((xa * xb * table.two(p, q, cls)
                     for p, xa in enumerate(fib.iota[i]) if xa
                     for q, xb in enumerate(fib.iota[j]) if xb), Fraction(0))
                for j in range(k)
            ]
            img = img + f.qh({-b: ref_solve_pairing(f, row)})
        images.append(img.truncate(cutoff))
    return images


def ref_loop_table(fib):
    """The fiber-keyed two-point table {(i, j, B): n(iota e_i, iota e_j;
    sigma_ref + B)} over the stored keys inside the two-point window."""
    table, w = {}, fib.section_gw.window("two_point")
    for key in fib.section_gw.known_key_classes("two_point"):
        b = fib.fiber_class_from_total(key)
        if b is None or key.omega > w:
            continue
        for i, vi in enumerate(fib.iota):
            for j, vj in enumerate(fib.iota):
                val = sum((xa * xb * fib.section_gw.two(p, q, key)
                           for p, xa in enumerate(vi) if xa
                           for q, xb in enumerate(vj) if xb), Fraction(0))
                if val:
                    table[(i, j, b)] = val
    return table


def ref_loop_images(fib, arity):
    """Psi's images at the reference section read slot by slot: for every
    stored key inside the window and every pair (i, j), the count
    n(iota e_i, iota e_j[, iota e_X]; key) summed from table queries over
    the nonzero coordinates, then each row solved against the pairing."""
    f = fib.fiber
    w = fib.section_gw.window(arity)
    extra = [fib.iota[f.fundamental_index]] if arity == "three_point" else []
    rows = [{f.h2.zero(): f.zero_vector()} for _ in f.basis]
    for key in fib.section_gw.known_key_classes(arity):
        b = fib.fiber_class_from_total(key)
        if b is None or key.omega > w:
            continue

        def read(*slots):
            return fib.section_gw.query(arity, slots, key)

        for i, vi in enumerate(fib.iota):
            for j, vj in enumerate(fib.iota):
                val = multilinear(read, vi, vj, *extra)
                if val:
                    rows[i].setdefault(b, f.zero_vector())[j] += val
    return [f.qh({-b: ref_solve_pairing(f, row) for b, row in r.items()}) for r in rows]


def ref_composite_images(f, g, cutoff, offset):
    """Psi of g glued after f at the section moved by the fiber class
    `offset`, through the convolved two-point tables: n(i, j; B + B') is the
    sum over s of x_s n_g(s, j; B'), x . e_t = n_f(i, t; B); then Psi(e_i)
    is the sum over A of y e^{offset - A}, y . e_j = n(i, j; A)."""
    fiber = f.fiber
    if g.fiber is not fiber:
        g = g.replace(fiber=fiber, fiber_gw=f.fiber_gw)
    rows = {}
    for (i, t, bf), n in ref_loop_table(f).items():
        rows.setdefault((i, bf), fiber.zero_vector())[t] += n
    g_table, table = ref_loop_table(g), {}
    for (i, bf), row in rows.items():
        x = ref_solve_pairing(fiber, row)
        for (s, j, bg), y in g_table.items():
            if x[s]:
                key = (i, j, bf + bg)
                table[key] = table.get(key, Fraction(0)) + x[s] * y
    images = []
    for i in range(len(fiber.basis)):
        # the section's own class leads, as in the operator
        rows_i = {fiber.h2.zero(): fiber.zero_vector()}
        for (a, j, c), val in table.items():
            if a == i and val:
                rows_i.setdefault(c - offset, fiber.zero_vector())[j] += val
        img = fiber.qh({-rel: ref_solve_pairing(fiber, row) for rel, row in rows_i.items()})
        images.append(img.truncate(cutoff))
    return images


def ref_apply(op, a):
    """Psi(a) as a chain of QHClass sums: each image scaled, shifted and
    added in turn, then truncated at the operator's cutoff."""
    if a.model is not op.model:
        raise ValueError("operator acts on a different model")
    out = op.model.qh({})
    for e, vec in a.terms.items():
        for i, x in enumerate(vec):
            if x != 0:
                out = out + op.images[i].scale(x).shift(e)
    return out.truncate(op.cutoff)


def ref_splitting_sum(r, v1, v2, v3, v4, cls, candidates):
    """sum over A1+A2=cls of n(v1,v2,e;A1) n(e^,v3,v4;A2), classical parts
    included, slot by slot through the dual basis; None when some needed
    invariant is unavailable."""
    m = r.model
    dual = m.dual_basis()
    total = Fraction(0)
    for a1 in candidates:
        a2 = cls - a1
        if a2 not in candidates and not a2.is_zero():
            continue
        for al in range(len(m.basis)):
            e = unit_vector(m, al)
            try:
                if a1.is_zero():
                    first = m.triple_form(v1, v2, e)
                else:
                    first = sum(
                        v1[i] * v2[j] * r.table.three(i, j, al, a1)
                        for i in range(len(v1)) if v1[i]
                        for j in range(len(v2)) if v2[j]
                    )
                if first == 0:
                    continue
                f = dual[al]
                if a2.is_zero():
                    second = m.triple_form(f, v3, v4)
                else:
                    second = sum(
                        f[i] * v3[j] * v4[k] * r.table.three(i, j, k, a2)
                        for i in range(len(f)) if f[i]
                        for j in range(len(v3)) if v3[j]
                        for k in range(len(v4)) if v4[k]
                    )
            except TableIncomplete:
                return None
            total += first * second
    return total


def ref_split_candidates(r):
    """The classes A1 and A2 range over: the three-point key classes, then zero."""
    return dict.fromkeys([*r.table.known_key_classes("three_point"), r.model.h2.zero()])


def ref_assoc1_report(r):
    """Every sorted quadruple of the dimension rule at every chi candidate
    class, its stored value against ref_splitting_sum."""
    m, table = r.model, r.table
    failures, skips = [], []
    cands = ref_split_candidates(r)
    for cls in r._chi_candidate_classes():
        for idx in combinations_with_replacement(range(len(m.basis)), 4):
            if sum(m.degrees[t] for t in idx) != table._dim_target(
                    "four_point_chi", table._key_c1(cls)):
                continue
            try:
                stored = table.four_chi(*idx, cls)
            except TableIncomplete as exc:
                skips.append(str(exc))
                continue
            derived = ref_splitting_sum(r, *(unit_vector(m, t) for t in idx), cls, cands)
            if derived is None:
                skips.append(f"splitting data incomplete for class {cls!r}")
            elif derived != stored:
                labels = ",".join(m.labels[t] for t in idx)
                failures.append(f"chi-invariant ({labels}; {cls!r}) = {format_rational(stored)} "
                                f"but 3-point splitting gives {format_rational(derived)}")
    return check(failures, skips)


# -- random classes -------------------------------------------------------------


def draw_class(data, m):
    """A few terms c e^{-B}, B a nonnegative combination of spherical
    generators, so every product stays inside the declared windows."""
    lat = m.h2
    terms = {}
    for _ in range(data.draw(st.integers(1, 2))):
        e = lat.zero()
        for g in lat.spherical_indices():
            e = e - lat.gen(lat.generators[g]).scale(data.draw(st.integers(0, 2)))
        vec = terms.setdefault(e, m.zero_vector())
        for i in range(len(m.basis)):
            vec[i] += data.draw(st.integers(-2, 2))
    return QHClass(m, terms)


def assert_same(got, want):
    # equal classes, and the same coordinates printed for every exponent
    assert got == want
    assert format_qh(got) == format_qh(want)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=15)
@given(data=st.data())
def test_product_and_cap_match_the_reference(name, data):
    r = ring(name)
    m = r.model
    a, b = draw_class(data, m), draw_class(data, m)
    assert_same(r.product(a, b, CUTOFF), ref_product(r, a, b, CUTOFF))
    va, vb = a.classical(), b.classical()
    assert m.cap(va, vb) == ref_cap(m, va, vb)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=15)
@given(data=st.data())
def test_product_without_a_cutoff_matches_the_reference(name, data):
    r = ring(name)
    a, b = draw_class(data, r.model), draw_class(data, r.model)
    assert_same(r.product(a, b), ref_product(r, a, b, None))


def outcome(fn):
    """The product fn computes, or the TableIncomplete it raises."""
    try:
        return fn()
    except TableIncomplete as exc:
        return "raised", str(exc), exc.missing


@functools.cache
def ring_with_a_key_above_the_window():
    """The ruled fiber ring plus three-point entries at a class far above
    the declared window: e_F * e_T- is complete there, 1 * F lacks only
    its pt slot, and every other pair lacks its entries."""
    r = ring("ruled/fiber")
    m, table = r.model, r.table
    high = m.h2.gen("F").scale(1000)
    assert high.omega > table.window("three_point")
    one, f, t, pt = (m.label_index(x) for x in ("1", "F", "T-", "pt"))
    entries = {(tuple(sorted((f, t, j))), high): Fraction(j + 1) for j in range(4)}
    for j in (one, f, t):
        entries.setdefault((tuple(sorted((one, f, j))), high), Fraction(7))
    return QuantumRing(m, replaced(table, "three_point", entries))


def sparse_class(data, m):
    return QHClass(m, {m.h2.zero(): [
        data.draw(st.sampled_from([0, 0, 0, 1, -1, 2])) for _ in m.basis]})


@settings(max_examples=60)
@given(data=st.data())
def test_a_key_above_the_window_raises_where_the_per_term_path_does(data):
    r = ring_with_a_key_above_the_window()
    a, b = sparse_class(data, r.model), sparse_class(data, r.model)
    got = outcome(lambda: r.product(a, b))
    want = outcome(lambda: ref_product(r, a, b, None))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same(got, want)


def test_a_key_above_the_window_raises_the_entry_the_whole_sum_meets_first():
    # the pair (1, F) comes first and lacks only its last slot; (1, T-) lacks
    # its first, which the per-term sum, slot by slot, reads first
    r = ring_with_a_key_above_the_window()
    m = r.model
    a, b = parse_qh(m, "1"), parse_qh(m, "F+T-")
    want = outcome(lambda: ref_product(r, a, b, None))
    assert want[2][1] == tuple(m.label_index(x) for x in ("1", "1", "T-"))
    assert outcome(lambda: r.product(a, b)) == want
    # the complete pair alone multiplies, at the high class too
    f, t = parse_qh(m, "F"), parse_qh(m, "T-")
    assert_same(r.product(f, t), ref_product(r, f, t, None))
    assert any(e.omega < -1000 for e in r.product(f, t).terms)


def test_an_undeclared_triple_raises_the_entry_the_whole_sum_meets_first():
    # the cap part reads slot by slot too: the pair (Zm, Zm) alone meets
    # (Zm, Zm, Zp) first, the sum Zm * (M + Zm) meets (Zm, M, M) in the M
    # slot; triples through the fundamental class are the pairing, so only
    # the degree-4 triples of the total space can be undeclared
    d = to_dict(fibration("ruled"))
    d["total"]["triple_complete"] = False
    r = from_dict(d).vertical_ring
    with pytest.raises(MissingTripleData, match=r"\(Zm, M, M\) undeclared"):
        r.product(parse_qh(r.model, "Zm"), parse_qh(r.model, "M+Zm"), CUTOFF)
    with pytest.raises(MissingTripleData, match=r"\(Zm, Zm, Zp\) undeclared"):
        r.product(parse_qh(r.model, "Zm"), parse_qh(r.model, "Zm"), CUTOFF)


# one count + 1 in each of these tables breaks associativity
TAMPERED = [("sphere x sphere", key) for key in ring("sphere x sphere").table.three_point] + [
    ("ruled/vertical", next(iter(ring("ruled/vertical").table.three_point)))]


@pytest.mark.parametrize("name,key", TAMPERED)
def test_associativity_report_matches_the_nested_products(name, key):
    r = tampered(name, key, 1)
    want = ref_nested_failures(r, CUTOFF)
    assert want
    assert r.associativity_report(CUTOFF) == {"status": "fail", "details": want}


def tampered(name, key, d):
    r = ring(name)
    return QuantumRing(r.model, replaced(r.table, "three_point", {key: r.table.three_point[key] + d}))


def report_or_raise(fn):
    """The check record fn returns, or the type and text of the data error
    it raises."""
    try:
        return fn()
    except (TableIncomplete, MissingTripleData) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", RINGS)
@pytest.mark.parametrize("cutoff", [None, Fraction(0), Fraction(2), Fraction(6), Fraction(24)])
def test_associativity_report_matches_the_reference(name, cutoff):
    r = ring(name)
    assert cutoff is None or cutoff <= r.table.window("three_point")
    assert r.associativity_report(cutoff) == check(ref_nested_failures(r, cutoff))


# +1 and -1 on every stored three-point count of every ring, at cutoff 6,
# and at 2 too where the reference is fast (at most four classes)
EACH_COUNT = [(name, key, d, cutoff) for name in RINGS for key in ring(name).table.three_point
              for d in (1, -1) for cutoff in (
                  [Fraction(2), CUTOFF] if len(ring(name).model.basis) <= 4 else [CUTOFF])]


# plus a change of 1/3 (coefficients with denominator 3) on every ring, and
# +1 and 1/3 on the odd-degree entries of torus x sphere (odd Koszul signs)
EACH_COUNT += [(name, key, Fraction(1, 3), CUTOFF) for name in RINGS
               for key in ring(name).table.three_point] + [
    ("torus x sphere", key, d, CUTOFF) for key in ring("torus x sphere").table.three_point
    for d in (1, Fraction(1, 3))]


@pytest.mark.parametrize("name,key,d,cutoff", EACH_COUNT)
def test_associativity_report_matches_the_reference_on_each_changed_count(name, key, d, cutoff):
    r = tampered(name, key, d)
    assert r.associativity_report(cutoff) == check(ref_nested_failures(r, cutoff))


@pytest.mark.parametrize("name", RINGS)
@pytest.mark.parametrize("window", [Fraction(0), Fraction(3)])
def test_associativity_report_raises_where_the_nested_products_raised(name, window):
    r = ring(name)
    m = r.model
    table = GWTable(m, "fiber", complete_below={"three_point": window}, three_point={
        idx + (cls,): v for (idx, cls), v in r.table.three_point.items()})
    short = QuantumRing(m, table)
    first = m.qh_basis(m.labels[0])
    for cutoff in (Fraction(2), Fraction(6)):
        got = report_or_raise(lambda: short.associativity_report(cutoff))
        if cutoff <= window:
            assert got == check(ref_nested_failures(short, cutoff))
        else:
            # the first nested product, e_0 * e_0, made the window check
            assert got == report_or_raise(lambda: short.product(first, first, cutoff)) == (
                "TableIncomplete", f"{m.name}: product needs three-point data through area {cutoff}")


def with_one_undeclared_triple(name, ck):
    """A fresh copy of the ring whose triple form declares every triple of
    the right degree, zeros included, except ck."""
    if "/" in name:
        fib = from_dict(to_dict(fibration(name.split("/")[0])))
        r = fib.fiber_ring if name.endswith("/fiber") else fib.vertical_ring
    else:
        r = ring.__wrapped__(name)
    m = r.model
    for c in combinations_with_replacement(range(len(m.basis)), 3):
        if sum(m.degrees[t] for t in c) == 4 * m.n:
            m.triple.setdefault(c, Fraction(0))  # the constructor keeps only nonzero entries
    del m.triple[ck]
    m.triple_complete = False
    return r


def degree_triples(name):
    m = ring(name).model
    return [(name, c) for c in combinations_with_replacement(range(len(m.basis)), 3)
            if sum(m.degrees[t] for t in c) == 4 * m.n]


# the rings with at most four classes: the reference runs until the raise
UNDECLARED = [case for name in RINGS if len(ring(name).model.basis) <= 4
              for case in degree_triples(name)]


@pytest.mark.parametrize("name,ck", UNDECLARED)
def test_associativity_report_names_the_undeclared_triple_the_nested_products_meet(name, ck):
    r = with_one_undeclared_triple(name, ck)
    got = report_or_raise(lambda: r.associativity_report(CUTOFF))
    assert got[0] == "MissingTripleData"
    assert got == report_or_raise(lambda: ref_nested_failures(r, CUTOFF))


def total_with_first(label):
    """The fixture dict of ruled's total space and vertical table as a ring,
    its basis reordered to put the class label first: a first class that is
    not the unit, whose products reach rows past its own."""
    d = to_dict((fibration("ruled").total, fibration("ruled").vertical_gw))
    basis = d["model"]["basis"]
    order = sorted(range(len(basis)), key=lambda i: basis[i][0] != label)
    d["model"]["basis"] = [basis[i] for i in order]
    d["model"]["pairing"] = [[d["model"]["pairing"][i][j] for j in order] for i in order]
    return d


FIRSTS = {label: total_with_first(label) for label in ("Zm", "S")}


@pytest.mark.parametrize("first,ck", [(first, ck) for first in FIRSTS
                                      for ck in combinations_with_replacement(range(8), 3)
                                      if sum(from_dict(FIRSTS[first])[0].degrees[t]
                                             for t in ck) == 12])
def test_a_raising_row_is_named_as_the_nested_products_first_meet_it(first, ck):
    # reading the table row by row would name another undeclared slot in
    # half of these with Zm first, and the parent's walk of the rows in the
    # nested products' first-use order in one with S first; the report
    # builds the nested products themselves when the table raises
    m, table = from_dict(FIRSTS[first])
    for c in combinations_with_replacement(range(len(m.basis)), 3):
        if sum(m.degrees[t] for t in c) == 4 * m.n:
            m.triple.setdefault(c, Fraction(0))
    del m.triple[ck]
    m.triple_complete = False
    r = QuantumRing(m, table)
    for cutoff in (Fraction(1), CUTOFF):  # below and above the area of F
        got = report_or_raise(lambda: r.associativity_report(cutoff))
        assert got[0] == "MissingTripleData"
        assert got == report_or_raise(lambda: ref_nested_failures(r, cutoff))


# -- the cap on a triple form not declared complete -----------------------------


@pytest.mark.parametrize("name,ck", UNDECLARED)
def test_cap_on_an_incomplete_form_is_the_reference_or_its_first_raise(name, ck):
    # ref_cap reads t(a, b, e_j) j outermost, the order of the whole sum
    m = with_one_undeclared_triple(name, ck).model
    vectors = [unit_vector(m, i) for i in range(len(m.basis))] + [[Fraction(1)] * len(m.basis)]
    outcomes = [(report_or_raise(lambda: m.cap(va, vb)), report_or_raise(lambda: ref_cap(m, va, vb)))
                for va in vectors for vb in vectors]
    assert all(got == want for got, want in outcomes)
    assert {type(got) for got, _ in outcomes} == {list, tuple}  # both cases met


def test_cap_on_an_incomplete_form_names_the_first_undeclared_slot_j_outermost():
    # Zm cap (Zm + Zp) reads (Zm, Zm, j) and (Zm, Zp, j) for each j in turn:
    # (Zm, Zp, M) comes before (Zm, Zm, Zp), which the pair (Zm, Zm) alone meets
    d = to_dict(fibration("ruled"))
    d["total"]["triple_complete"] = False
    m = from_dict(d).total
    with pytest.raises(MissingTripleData, match=r"\(Zm, Zp, M\) undeclared"):
        m.cap(m.basis_vector("Zm"), parse_qh(m, "Zm+Zp").classical())
    with pytest.raises(MissingTripleData, match=r"\(Zm, Zm, Zp\) undeclared"):
        m.cap(m.basis_vector("Zm"), m.basis_vector("Zm"))
    assert m.cap(m.basis_vector("F"), m.basis_vector("M")) == ref_cap(
        m, m.basis_vector("F"), m.basis_vector("M"))


def test_cap_on_a_singular_incomplete_form_raises_degenerate_pairing_first():
    # c pairs with nothing, and (a, a, a) is undeclared: the pairing is
    # refused before any slot is read
    lat = H2Lattice(("A",), (Fraction(1),), (Fraction(2),), (True,))
    m = ManifoldModel(
        "singular", 3, [("1", 6), ("a", 4), ("b", 2), ("c", 2), ("pt", 0)],
        [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
        {}, lat, triple_complete=False,
    )
    a = m.basis_vector("a")
    with pytest.raises(MissingTripleData):
        m.triple_eval(1, 1, 1)
    with pytest.raises(DegeneratePairing):
        m.cap(a, a)


@pytest.mark.parametrize("name", RINGS)
def test_only_a_failing_triple_makes_products(name, monkeypatch):
    calls = []
    product = QuantumRing.product

    def counted(self, *args):
        calls.append(args)
        return product(self, *args)

    monkeypatch.setattr(QuantumRing, "product", counted)
    assert ring(name).associativity_report(CUTOFF)["status"] == "pass"
    assert calls == []
    # a failing triple builds each of its two sides with one product
    for key in ring(name).table.three_point:
        calls.clear()
        details = tampered(name, key, 1).associativity_report(CUTOFF)["details"]
        assert len(calls) == 2 * len(details)


@pytest.mark.parametrize("name", BUILTINS)
@settings(max_examples=15)
@given(data=st.data())
def test_horizontal_product_matches_the_reference(name, data):
    fib = fibration(name)
    a, b = draw_class(data, fib.total), draw_class(data, fib.total)
    try:
        got = fib.horizontal_product(a, b, CUTOFF)
    except TableIncomplete:
        # the reference has no window check; the table must really lack one
        assert fib.section_gw.window("three_point") is None
        return
    assert_same(got, ref_horizontal_product(fib, a, b, CUTOFF, fib.sigma_ref))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("cutoff", [Fraction(0), Fraction(2), Fraction(6)])
def test_psi_operator_matches_the_reference(name, cutoff):
    fib = fibration(name)
    sigmas = [fib.sigma_ref, fib.sigma_phi()]
    for g in fib.fiber.h2.spherical_indices():
        gen = fib.fiber.h2.gen(fib.fiber.h2.generators[g])
        sigmas.append(fib.sigma_phi() + fib.iota_h2_class(gen))
        sigmas.append(fib.sigma_ref - fib.iota_h2_class(gen.scale(Fraction(1, 2))))
    for sigma in sigmas:
        got = fib.psi_operator(cutoff, sigma).images
        want = ref_psi_images(fib, cutoff, sigma)
        for g_img, w_img in zip(got, want):
            assert_same(g_img, w_img)


COMPOSITES = [(name, "mirror") for name in BUILTINS] + [
    ("ruled", "kappa=1/2"), ("ruled", "kappa=3/2"), ("sphere-rotation", "sphere-rotation")]


@pytest.mark.parametrize("first,second", COMPOSITES)
@pytest.mark.parametrize("cutoff", [Fraction(2), Fraction(6), Fraction(24)])
def test_composite_operator_matches_the_table_convolution(first, second, cutoff):
    f = fibration(first)
    if second == "mirror":
        g = mirror(f, cutoff)
    elif second.startswith("kappa="):
        g = catalog.build(first, kappa=second.removeprefix("kappa="))
    else:
        g = fibration(second)
    comp = compose(f, g, cutoff)[0]
    lat = f.fiber.h2
    # the reference section, the normalized one, and one moved by a generator
    for offset in (lat.zero(), comp.normalized_offset(), lat.gen(lat.generators[0])):
        if comp.window < offset.omega + cutoff:
            with pytest.raises(TableIncomplete, match="composite table complete through"):
                comp.psi_operator(cutoff, offset)
            continue
        got = comp.psi_operator(cutoff, offset).images
        want = ref_composite_images(f, g, cutoff, offset)
        assert len(got) == len(want)
        for g_img, w_img in zip(got, want):
            assert_same(g_img, w_img)


def random_class(rng, m, exps):
    """Up to three monomials +-e_t e^E, E drawn from exps, so that sums of
    images often cancel."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms.setdefault(rng.choice(exps), m.zero_vector())[rng.randrange(len(m.basis))] += \
            rng.choice((-1, 1))
    return m.qh(terms)


def sum_shape(op, a):
    """(a term of Psi(a) cancels, two terms meet at equal classes with
    different coordinates), read from the image terms the sum adds."""
    met = {}
    for e, vec in a.terms.items():
        for i, x in enumerate(vec):
            if x:
                for k, v in op.images[i].terms.items():
                    coords, total = met.setdefault(k + e, (set(), [0] * len(v)))
                    coords.add((k + e).coords)
                    total[:] = [s + x * y for s, y in zip(total, v)]
    return (any(not any(total) for _, total in met.values()),
            any(len(coords) > 1 for coords, _ in met.values()))


@pytest.mark.parametrize("name", BUILTINS)
def test_psi_apply_is_the_chain_of_class_sums(name):
    """Equal terms with the same coordinates kept, on the loop's operators
    and on random ones; quantum-trivial-product's two fiber generators have
    equal area and Chern number, so only there do coordinates differ."""
    fib = fibration(name)
    m, lat = fib.fiber, fib.fiber.h2
    rng = random.Random(name)
    exps = [lat.cls(c) for c in product((-1, 0, 1), repeat=len(lat.generators))]
    ops = [fib.psi_operator(CUTOFF), fib.psi_operator(CUTOFF, fib.sigma_phi())]
    ops += [PsiOperator(m, [random_class(rng, m, exps) for _ in m.basis], c)
            for c in rng.choices((0, 1, 2, 100), k=300)]
    shapes = set()
    for op in ops:
        a = random_class(rng, m, exps)
        got, want = op.apply(a), ref_apply(op, a)
        assert got == want
        assert [(e.coords, v) for e, v in got.terms.items()] == [
            (e.coords, v) for e, v in want.terms.items()]
        shapes.add(sum_shape(op, a))
    assert any(cancels for cancels, _ in shapes)
    assert any(differ for _, differ in shapes) == (name == "quantum-trivial-product")


BASIS_RINGS = [f"{b}/fiber" for b in BUILTINS] + [
    "sphere x sphere", "ruled fiber x sphere", "torus x sphere", "ruled fiber x sphere x sphere"]


def table_class(r, entries, cutoff):
    """Row (i, j) of a ring's kept basis table as the class e_i * e_j it
    sums to modulo the cutoff."""
    m, terms = r.model, {}
    for b, t, x in entries:
        if r.exponents[b].omega >= -cutoff:
            terms.setdefault(r.exponents[b], m.zero_vector())[t] += x
    return m.qh(terms)


@pytest.mark.parametrize("name", BASIS_RINGS)
def test_the_kept_basis_table_is_the_product(name):
    r = ring(name)
    m, w = r.model, r.table.window("three_point")
    kept = QuantumRing(m, r.table)
    table, columns = kept.basis_table(True)
    assert kept.basis_table(True)[0] is table
    assert columns == tuple(zip(*table))
    for cutoff in (Fraction(2), Fraction(6), Fraction(24)):
        if cutoff > w:
            continue
        for i, j in product(range(len(m.basis)), repeat=2):
            want = r.product(m.qh_basis(m.labels[i]), m.qh_basis(m.labels[j]), cutoff)
            assert_same(table_class(kept, table[i][j], cutoff), want)


def test_a_basis_table_that_raises_raises_every_time_and_is_not_kept():
    # unbounded, the key class F above the declared window reads its slots,
    # as a product without a cutoff does, and an unstored one raises
    d = to_dict(fibration("ruled"))
    d["fiber_gw"]["complete_below"]["three_point"] = "1"
    r = from_dict(d).fiber_ring
    texts = set()
    for _ in range(3):
        with pytest.raises(TableIncomplete) as err:
            r.basis_table(False)
        texts.add(str(err.value))
    assert texts == {report_or_raise(lambda: r.product(r.unit(), r.unit()))[1]}
    assert [args for name, args in r._kept if name == "QuantumRing.basis_table"] == []
    # bounded, the table leaves F out, as a product at a cutoff does, and is kept
    assert r.basis_table(True) is r.basis_table(True)
    assert {b for row in r.basis_table(True)[0] for entries in row for b, _, _ in entries} == {0}
    assert r.associativity_report(1) == check([])


# -- the module and vertical identities against the parent's reports -------------


def ref_module_identities(fib, cutoff, sigma=None):
    """The module identities as the parent's report made them, in order:
    (the (a, b) of each product the identity makes, its failure lines)."""
    op = fib.psi_operator(cutoff, sigma)
    ring, f = fib.fiber_ring, fib.fiber
    q = op.images[f.fundamental_index]
    for i, lbl in enumerate(f.labels):
        e = f.qh_basis(lbl)
        want = ring.product(q, e, cutoff)
        yield [(q, e)], ([] if op.images[i] == want else [
            f"Psi({lbl}) = {op.images[i]!r} but Q*{lbl} = {want!r}"])
    for i, la in enumerate(f.labels):
        for j, lb in enumerate(f.labels):
            a, b = f.qh_basis(la), f.qh_basis(lb)
            left = op.apply(ring.product(a, b, cutoff))
            right = ring.product(op.images[i], b, cutoff)
            yield [(a, b), (op.images[i], b)], ([] if left == right else [
                f"Psi({la}*{lb}) = {left!r} != Psi({la})*{lb} = {right!r}"])


def ref_vertical_identities(fib, cutoff):
    """The vertical identities of each pair as the parent's report made
    them, in order: (the (a, b) of each product, the failure lines)."""
    ring, f = fib.fiber_ring, fib.fiber
    basis = [f.qh_basis(lbl) for lbl in f.labels]
    iotas = [fib.iota_class(a) for a in basis]
    splits = [fib.splitting_class(a) for a in basis]
    for i, la in enumerate(f.labels):
        for j, lb in enumerate(f.labels):
            fiber_prod = ring.product(basis[i], basis[j], cutoff)
            left = fib.vertical_product(iotas[i], iotas[j], cutoff)
            mid = fib.vertical_product(splits[i], iotas[j], cutoff)
            want = fib.iota_class(fiber_prod).truncate(cutoff)
            lines = [] if left.is_zero() else [
                f"iota({la}) *v iota({lb}) = {left!r}, fiber classes in "
                "distinct fibers must multiply to zero"]
            if mid != want:
                lines.append(f"s({la}) *v iota({lb}) = {mid!r} != iota({la}*{lb}) = {want!r}")
            yield [(basis[i], basis[j]), (iotas[i], iotas[j]), (splits[i], iotas[j])], lines


def ref_report(identities, *args):
    """The parent's module or vertical report: its record, or the type and
    text of its first raise."""
    try:
        return check([line for _, lines in identities(*args) for line in lines])
    except QhfibError as exc:
        return type(exc).__name__, str(exc)


def new_report(report, *args):
    try:
        return report(*args)
    except QhfibError as exc:
        return type(exc).__name__, str(exc)


def normalized_section(fib):
    """sigma_phi, where Psi has terms of positive area, or None."""
    try:
        return fib.sigma_phi()
    except QhfibError:
        return None


def edited_fixtures():
    """(site, fixture dict): each builtin, and each with one stored count
    +1, negated or deleted; each with a three-point window of 3 on the
    fiber table, on the vertical table, or none declared on either; and
    each whose fiber or total triple form is not declared complete and
    leaves one entry out; and ruled with one vertical entry added whose
    two iota slots break only iota(F) *v iota(T-) = 0."""
    for name in BUILTINS:
        clean = to_dict(fibration(name))
        yield name, clean
        for tk in ("fiber_gw", "vertical_gw", "section_gw"):
            for arity in ("two_point", "three_point", "four_point_chi"):
                for pos in range(len(clean[tk].get(arity, ()))):
                    for edit in ("+1", "negated", "deleted"):
                        d = json.loads(json.dumps(clean))
                        if edit == "deleted":
                            del d[tk][arity][pos]
                        else:
                            v = Fraction(d[tk][arity][pos][2])
                            d[tk][arity][pos][2] = str(v + 1 if edit == "+1" else -v)
                        yield f"{name} {tk}.{arity}[{pos}] {edit}", d
        for tks, window in ((("fiber_gw",), "3"), (("vertical_gw",), "3"),
                            (("fiber_gw", "vertical_gw"), None)):
            d = json.loads(json.dumps(clean))
            for tk in tks:
                d[tk]["complete_below"]["three_point"] = window
            yield f"{name} {'+'.join(tks)} three-point window {window}", d
        for part in ("fiber", "total"):
            for pos in range(len(clean[part]["triple"])):
                d = json.loads(json.dumps(clean))
                d[part]["triple_complete"] = False
                del d[part]["triple"][pos]
                yield f"{name} {part}.triple[{pos}] undeclared", d
    d = to_dict(fibration("ruled"))
    d["vertical_gw"]["three_point"].append([["F", "T", "pt"], ["2", "0", "0"], "1"])
    yield "ruled vertical_gw.three_point (F,T,pt; 2F) added", d


EDITED = dict(edited_fixtures())
ORACLE_CUTOFFS = (Fraction(1, 2), Fraction(2), Fraction(6), Fraction(24))


@pytest.mark.parametrize("site", EDITED)
def test_module_and_vertical_reports_match_the_parents_products(site):
    # the module identities at the reference section and at sigma_phi
    fib = from_dict(EDITED[site])
    for cutoff in ORACLE_CUTOFFS:
        for sigma in (None, normalized_section(fib)):
            assert new_report(fib.module_report, cutoff, sigma) == ref_report(
                ref_module_identities, fib, cutoff, sigma), (cutoff, sigma)
        assert new_report(fib.vertical_report, cutoff) == ref_report(
            ref_vertical_identities, fib, cutoff), cutoff


def test_the_edited_fixtures_reach_every_outcome():
    # passing, failing and raising reports, raises of both kinds among them
    seen = set()
    for site, d in EDITED.items():
        fib = from_dict(d)
        for report in (fib.module_report, fib.vertical_report):
            got = new_report(report, CUTOFF)
            seen.add(got[0] if isinstance(got, tuple) else got["status"])
    assert seen == {"pass", "fail", "TableIncomplete", "MissingTripleData"}


IDENTITY_REPORTS = (
    lambda fib: fib.fiber_ring.associativity_report(CUTOFF),
    lambda fib: fib.vertical_ring.associativity_report(CUTOFF),
    lambda fib: fib.module_report(CUTOFF),
    lambda fib: fib.vertical_report(CUTOFF),
)


@pytest.mark.parametrize("name", BUILTINS)
def test_a_passing_identity_report_makes_no_product(name, monkeypatch):
    calls = []
    real = QuantumRing.product
    monkeypatch.setattr(QuantumRing, "product",
                        lambda self, *args: calls.append(args) or real(self, *args))
    fib = catalog.build(name)
    for _ in range(2):  # cold, then warm
        assert [report(fib)["status"] for report in IDENTITY_REPORTS] == ["pass"] * 4
    assert calls == []


@pytest.mark.parametrize("name", BUILTINS)
def test_a_second_identity_report_reads_no_constants(name, monkeypatch):
    fib = catalog.build(name)
    firsts = [report(fib) for report in IDENTITY_REPORTS]
    reads = []
    real = GWTable.constants
    monkeypatch.setattr(GWTable, "constants",
                        lambda self, *args: reads.append(args) or real(self, *args))
    assert [report(fib) for report in IDENTITY_REPORTS] == firsts
    assert reads == []


@pytest.mark.parametrize("site", [*MUTATED, *EDITED])
def test_a_failing_identity_makes_only_its_own_sides(site, monkeypatch):
    fib = from_dict(MUTATED.get(site) or EDITED[site])
    sigma = normalized_section(fib)
    calls = []
    real = QuantumRing.product
    for report, identities, args in ((fib.module_report, ref_module_identities, (None,)),
                                     (fib.module_report, ref_module_identities, (sigma,)),
                                     (fib.vertical_report, ref_vertical_identities, ())):
        try:
            want = list(identities(fib, CUTOFF, *args))
        except QhfibError:
            continue
        monkeypatch.setattr(QuantumRing, "product",
                            lambda self, a, b, cutoff=None: calls.append((a, b)) or real(
                                self, a, b, cutoff))
        got = report(CUTOFF, *args)
        monkeypatch.setattr(QuantumRing, "product", real)
        assert got == check([line for _, lines in want for line in lines])
        assert calls == [ab for sides, lines in want if lines for ab in sides]
        calls.clear()


def test_one_failing_vertical_pair_makes_only_its_three_products(monkeypatch):
    # a vertical count +1 on sphere-product breaks the identities of one pair
    fib = from_dict(MUTATED["sphere-product vertical_gw.three_point[0]"])
    [(sides, lines)] = [(sides, lines) for sides, lines in ref_vertical_identities(fib, CUTOFF)
                        if lines]
    calls = []
    real = QuantumRing.product
    monkeypatch.setattr(QuantumRing, "product", lambda self, a, b, cutoff=None: calls.append(
        (self, a, b)) or real(self, a, b, cutoff))
    assert fib.vertical_report(CUTOFF) == check(lines)
    rings = [fib.fiber_ring, fib.vertical_ring, fib.vertical_ring]
    assert calls == [(r, a, b) for r, (a, b) in zip(rings, sides)]


@pytest.mark.parametrize("name", ["sphere-product", "quantum-trivial-product"])
def test_psi_operator_falls_back_to_the_three_point_route(name):
    # without a two-point window, Psi reads the three-point counts with a
    # fundamental-class slot, which these tables keep equal to the two-point ones
    d = to_dict(fibration(name))
    d["section_gw"]["complete_below"]["two_point"] = None
    three_only = from_dict(d)
    got = three_only.psi_operator(CUTOFF).images
    want = fibration(name).psi_operator(CUTOFF).images
    assert [format_qh(x) for x in got] == [format_qh(x) for x in want]
    d["section_gw"]["complete_below"]["three_point"] = None
    with pytest.raises(TableIncomplete, match="two_point section data"):
        from_dict(d).psi_operator(CUTOFF)


def assert_loops_match_the_reference(fib):
    arities = [a for a in ("two_point", "three_point") if fib.section_gw.window(a) is not None]
    assert arities
    for arity in arities:
        for got, want in zip(fib._loop(arity).images, ref_loop_images(fib, arity), strict=True):
            assert_same(got, want)


@pytest.mark.parametrize("name", BUILTINS)
def test_loop_operator_matches_the_slot_by_slot_reference(name):
    assert_loops_match_the_reference(fibration(name))


def changed_section_copies():
    """(site, name, arity, key, count) for each stored section two- and
    three-point count +1, negated and deleted (count 0)."""
    for name in BUILTINS:
        table = fibration(name).section_gw
        for arity in ("two_point", "three_point"):
            for key, n in table._store(arity).items():
                for how, count in (("+1", n + 1), ("negated", -n), ("deleted", 0)):
                    yield f"{name} {arity} {key[0]} {key[1]!r} {how}", name, arity, key, count


SECTION_COPIES = {site: rest for site, *rest in changed_section_copies()}


@pytest.mark.parametrize("site", SECTION_COPIES)
def test_loop_operator_matches_the_reference_on_each_changed_section_count(site):
    name, arity, key, count = SECTION_COPIES[site]
    fib = fibration(name)
    entries = fib.section_gw.entries(fib.total.h2)
    entries[arity][key] = count
    assert_loops_match_the_reference(fib.replace(section=entries))


@pytest.mark.parametrize("name", ["sphere-product", "quantum-trivial-product", "torus-product"])
def test_three_point_route_matches_the_reference_without_a_two_point_window(name):
    d = to_dict(fibration(name))
    d["section_gw"]["complete_below"]["two_point"] = None
    fib = from_dict(d)
    assert_loops_match_the_reference(fib)
    want = [img.truncate(CUTOFF) for img in ref_loop_images(fib, "three_point")]
    for got, w in zip(fib.psi_operator(CUTOFF).images, want, strict=True):
        assert_same(got, w)


def test_singular_pairing_raises_instead_of_choosing_a_solution():
    # b pairs with nothing, so no pairing system has a unique solution
    lat = H2Lattice(("A",), (Fraction(1),), (Fraction(2),), (True,))
    m = ManifoldModel(
        "singular", 2, [("1", 4), ("a", 2), ("b", 2), ("pt", 0)],
        [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], {}, lat,
    )
    one, a, b = (m.basis_vector(x) for x in ("1", "a", "b"))
    with pytest.raises(DegeneratePairing):
        m.solve_pairing({m.point_index: Fraction(1)})
    with pytest.raises(DegeneratePairing):
        m.cap(one, a)
    with pytest.raises(DegeneratePairing):
        m.cap(a, b)  # every sum vanishes, and still no unique answer


# -- the kept constants ----------------------------------------------------------


def kept_constants(r):
    """{(class, i, k): (t, x) entries} of every constant the model keeps for
    e_i cap e_k (class None) and the table for e_i * e_k at a class."""
    out = {(None, *args): v for (name, args), v in r.model._kept.items()
           if name == "ManifoldModel._cap_pair"}
    out.update({args: v for (name, args), v in r.table._kept.items() if name == "GWTable._pair"})
    return out


@pytest.mark.parametrize("name", SCATTERED)
def test_scattered_constants_equal_the_slot_by_slot_contraction(name):
    r = ring(name)
    m = r.model
    k = len(m.basis)
    for a in m.labels:
        for b in m.labels:
            r.product(m.qh_basis(a), m.qh_basis(b))
    # every pair of the cap and of each key class is kept, and each kept
    # constant is the reference solve of its slots
    kept = kept_constants(r)
    classes = [None, *r.table.known_key_classes("three_point")]
    assert set(kept) == {(cls, i, j) for cls in classes for i, j in product(range(k), repeat=2)}
    triple = lambda i, k, j, _: m.triple_eval(i, k, j)  # noqa: E731
    for (cls, i, j), got in kept.items():
        three = triple if cls is None else r.table.three
        rhs = ref_rhs(m, unit_vector(m, i), unit_vector(m, j), three, cls)
        want = ref_solve_pairing(m, rhs) if any(rhs) else ()
        assert got == [(t, x) for t, x in enumerate(want) if x]


def test_odd_entries_scatter_with_their_koszul_signs():
    r = ring("torus x sphere")
    m = r.model
    a, b, one, dual = (m.label_index(x) for x in ("a|pt", "b|pt", "1|pt", "pt|1"))
    cls = r.table.known_key_classes("three_point")[0]
    rows = r.table._scattered(cls)
    assert rows[a, b][one] == -rows[b, a][one] == 1
    assert rows[one, a][b] == -rows[one, b][a] == 1
    # the kept constants carry the same signs: x . e_j = n(a, b, e_j) is
    # the class pairing to 1 with 1|pt alone
    assert r.table._pair(cls, a, b) == [(dual, Fraction(1))] == [
        (t, -x) for t, x in r.table._pair(cls, b, a)]


@pytest.mark.parametrize("name", [f"{b}/{s}" for b in BUILTINS for s in ("fiber", "vertical")])
def test_a_fresh_associativity_report_reads_no_slot(name, monkeypatch):
    fib = catalog.build(name.split("/")[0])
    r = fib.fiber_ring if name.endswith("/fiber") else fib.vertical_ring
    assert r.model.triple_complete and r.table.window("three_point") >= CUTOFF
    fresh = QuantumRing(r.model, GWTable(r.model, "fiber", **r.table.entries(r.model.h2)))
    reads = []
    monkeypatch.setattr(GWTable, "query", lambda self, *args: reads.append(args))
    monkeypatch.setattr(ManifoldModel, "triple_eval", lambda self, *args: reads.append(args))
    assert fresh.associativity_report(CUTOFF)["status"] == "pass"
    assert reads == []


@pytest.mark.parametrize("name", BUILTINS)
def test_a_warm_verify_makes_no_three_point_solve(name, monkeypatch):
    # cold, the constants solve through their kept builders; warm, every
    # contraction reads them kept, and only the invariants' Poincare duals
    # solve again
    callers = []
    real = ManifoldModel.solve_pairing
    monkeypatch.setattr(ManifoldModel, "solve_pairing", lambda self, rhs: callers.append(
        sys._getframe(1).f_code.co_name) or real(self, rhs))
    fib = catalog.build(name)
    cold = run_suite(fib, "all", CUTOFF)
    assert {"_cap_pair", "_pair"} <= set(callers)
    callers.clear()
    assert run_suite(fib, "all", CUTOFF).to_json() == cold.to_json()
    # every check body again on the warm model, past the record memo
    assert rerun(fib, CUTOFF) == cold.checks
    assert set(callers) <= {"_pd_of_covector"}


def fresh_copy(r):
    """A ring on a new model and a new table built from r's data, so that
    nothing it reads has been filled yet."""
    m = r.model
    fresh = ManifoldModel(m.name, m.n, m.basis, m.pairing, m.triple, m.h2, m.triple_complete)
    return QuantumRing(fresh, GWTable(fresh, "fiber", **r.table.entries(fresh.h2)))


@pytest.mark.parametrize("name", SCATTERED)
def test_a_single_product_solves_once_per_key_class_at_most(name, monkeypatch):
    r = ring(name)
    m = r.model
    bound = len(r.table.known_key_classes("three_point")) + 1  # plus the cap
    solves = []
    real = ManifoldModel.solve_pairing
    monkeypatch.setattr(ManifoldModel, "solve_pairing",
                        lambda self, rhs: solves.append(rhs) or real(self, rhs))
    for a in m.labels:
        for b in m.labels:
            want = r.product(m.qh_basis(a), m.qh_basis(b), CUTOFF)
            fresh = fresh_copy(r)
            fm = fresh.model
            solves.clear()
            got = fresh.product(fm.qh_basis(a), fm.qh_basis(b), CUTOFF)
            assert (got.terms, format_qh(got)) == (want.terms, format_qh(want))
            # one pair: at most one solve per class it reads, and a repeat reads them kept
            assert 0 < len(solves) <= bound
            solves.clear()
            fresh.product(fm.qh_basis(a), fm.qh_basis(b), CUTOFF)
            assert solves == []


@pytest.mark.parametrize("name,key", [
    ("torus x sphere", key) for key in ring("torus x sphere").table.three_point] + [
    ("ruled/vertical", key) for key in ring("ruled/vertical").table.three_point])
def test_a_tamper_in_any_slot_order_is_the_canonical_tamper(name, key):
    r = ring(name)
    m = r.model
    (ck, cls), new = key, r.table.three_point[key] + 1
    canonical = QuantumRing(m, replaced(r.table, "three_point", {(ck, cls): new}))
    products = {(a, b): canonical.product(m.qh_basis(a), m.qh_basis(b), CUTOFF)
                for a in m.labels for b in m.labels}
    assert any(p != r.product(m.qh_basis(a), m.qh_basis(b), CUTOFF)
               for (a, b), p in products.items())
    for perm in dict.fromkeys(permutations(ck)):
        sign = koszul_sorted(perm, m.degrees)[1]
        t = replaced(r.table, "three_point", {(perm, cls): sign * new})
        assert t.three_point == canonical.table.three_point
        tampered_ring = QuantumRing(m, t)
        for (a, b), p in products.items():
            assert_same(tampered_ring.product(m.qh_basis(a), m.qh_basis(b), CUTOFF), p)
    # a zero in any slot order deletes the entry
    perm = ck[::-1]
    assert (ck, cls) not in replaced(r.table, "three_point", {(perm, cls): 0}).three_point


# -- the four-point splitting -----------------------------------------------------


def split_quadruples(name, cls):
    """Every ordered quadruple; sorted ones on the 16-class ring, and on it and
    the 8-class ruled tensor ring only those of the dimension rule at cls
    (off it the reference takes minutes and no caller reads the sum)."""
    r = ring(name)
    m = r.model
    k = len(m.basis)
    quads = product(range(k), repeat=4) if k <= 8 else combinations_with_replacement(range(k), 4)
    if name not in ("ruled fiber x sphere", "ruled fiber x sphere x sphere"):
        return quads
    target = r.table._dim_target("four_point_chi", r.table._key_c1(cls))
    return [q for q in quads if sum(m.degrees[t] for t in q) == target]


@pytest.mark.parametrize("name", SCATTERED)
def test_four_point_splitting_equals_the_dual_basis_sum(name):
    r = ring(name)
    m = r.model
    cands = ref_split_candidates(r)
    nonzero = 0
    for cls in r._chi_candidate_classes():
        for q in split_quadruples(name, cls):
            want = ref_splitting_sum(r, *(unit_vector(m, t) for t in q), cls, cands)
            assert r._split_four(*q, cls) == want, (q, cls)
            nonzero += want != 0
    assert nonzero or not r.table.three_point


def with_changed_count(name, arity, key, d):
    r = ring(name)
    store = r.table._store(arity)
    return QuantumRing(r.model, replaced(r.table, arity, {key: store[key] + d}))


# +1 and -1 on every stored three-point and four-point count of the rings of
# at most eight classes
EACH_SPLIT_COUNT = [(name, arity, key, d) for name in RINGS + ["torus x sphere"]
                    for arity in ("three_point", "four_point_chi")
                    for key in ring(name).table._store(arity) for d in (1, -1)]


@pytest.mark.parametrize("name,arity,key,d", EACH_SPLIT_COUNT)
def test_four_point_report_matches_the_reference_on_each_changed_count(name, arity, key, d):
    r = with_changed_count(name, arity, key, d)
    assert r.assoc1_report() == ref_assoc1_report(r)


@pytest.mark.parametrize("name", SCATTERED)
@pytest.mark.parametrize("window", [None, Fraction(0), Fraction(1, 2), Fraction(3)])
def test_four_point_report_matches_the_reference_on_each_window(name, window):
    m = ring(name).model
    entries = ring(name).table.entries(m.h2)
    entries["complete_below"]["three_point"] = window
    short = QuantumRing(m, GWTable(m, "fiber", **entries))
    assert short.assoc1_report() == ref_assoc1_report(short)


def test_zero_and_positive_classes_split_with_different_signs():
    # the trivial bundle's classical section entries read t(v1 cap v2, v3, v4);
    # the positive classes read (v3*v4) . (v1*v2); the two differ by
    # (-1)^|v1*v2|, and only an odd v1 cap v2 tells them apart
    fib = fibration("torus-product")
    f, k = fib.fiber, len(fib.fiber.basis)
    signs = []
    for (idx, cls), val in fib.section_gw.four_point_chi.items():
        assert cls.is_zero()
        v1, v2, v3, v4 = (unit_vector(f, i % k) for i in idx)
        x = f.cap(v1, v2)
        assert val == f.triple_form(x, v3, v4)
        sign = (-1) ** (f.vector_degree(x) % 2)
        assert val == sign * f.intersect(f.cap(v3, v4), x)
        signs.append(sign)
    assert sorted(signs) == [-1, 1, 1, 1, 1]
    # on torus x sphere each term (v3*v4)_A2 . (v1*v2)_A1 is (-1)^|x| times
    # n(x, v3, v4; A2), x = (v1*v2)_A1 in the first slot, and an odd x meets a
    # nonzero value
    r = ring("torus x sphere")
    m = r.model
    size, keys = len(m.basis), r.table.known_key_classes("three_point")
    basis = {(i, j): r.product(m.qh_basis(a), m.qh_basis(b))
             for i, a in enumerate(m.labels) for j, b in enumerate(m.labels)}
    odd = 0
    for cls in r._chi_candidate_classes():
        for i, j, k, l in product(range(size), repeat=4):
            v3, v4 = unit_vector(m, k), unit_vector(m, l)
            want = Fraction(0)
            for a1 in [*keys, m.h2.zero()]:
                a2 = cls - a1
                x = basis[i, j].coefficient(-a1)
                if not any(x) or (a2 not in keys and not a2.is_zero()):
                    continue
                n = (m.triple_form(x, v3, v4) if a2.is_zero() else
                     sum(xt * r.table.three(t, k, l, a2) for t, xt in enumerate(x) if xt))
                sign = (-1) ** (m.vector_degree(x) % 2)
                want += sign * n
                odd += sign < 0 and n != 0
            assert r._split_four(i, j, k, l, cls) == want, (i, j, k, l, cls)
    assert odd


def undeclared_slots(outcome):
    """The labels of the triple a MissingTripleData outcome names, as a multiset."""
    kind, text = outcome
    assert kind == "MissingTripleData"
    return sorted(text.split("triple intersection (")[1].split(") undeclared")[0].split(", "))


@pytest.mark.parametrize("name,ck", UNDECLARED)
def test_four_point_report_names_the_undeclared_triple_the_reference_meets(name, ck):
    # the reference reads t(f, v3, v4) with the dual vector first, the cap
    # block t(v3, v4, e_j): the same undeclared triple, its slots maybe reordered
    r = with_one_undeclared_triple(name, ck)
    got = report_or_raise(r.assoc1_report)
    want = report_or_raise(lambda: ref_assoc1_report(r))
    if isinstance(want, dict):
        assert got == want
    else:
        assert undeclared_slots(got) == undeclared_slots(want)
