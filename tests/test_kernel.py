"""The contraction kernel against a reference that solves every pairing
system anew, term by term, by elimination on the transposed pairing."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhfib import (
    DegeneratePairing,
    H2Lattice,
    ManifoldModel,
    QHClass,
    QuantumRing,
    TableIncomplete,
    catalog,
    tensor_model,
)
from qhfib._linalg import solve
from qhfib.fixtures import format_qh, from_dict, to_dict

CUTOFF = Fraction(6)
BUILTINS = ("ruled", "sphere-rotation", "sphere-product", "quantum-trivial-product")


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
    fib, space = fibration(name.split("/")[0]), name.split("/")[1]
    return fib.fiber_ring if space == "fiber" else fib.vertical_ring


RINGS = [f"{b}/{s}" for b in BUILTINS for s in ("fiber", "vertical")] + [
    "sphere x sphere", "ruled fiber x sphere"]


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
                rhs = ref_rhs(m, va, vb, table.three, cls)
                if shift.omega >= -cutoff and any(rhs):
                    out = out + m.qh({shift: ref_solve_pairing(m, rhs)})
    return out.truncate(cutoff)


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
    """Psi(e_i) from two-point section counts of iota-images, contracted
    with dual vectors solved from e_i . f_j = delta_ij."""
    f, table = fib.fiber, fib.section_gw
    k = len(f.basis)
    dual = [solve(f.pairing, unit_vector(f, j)) for j in range(k)]
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
            vec = f.zero_vector()
            for j in range(k):
                val = sum(
                    (xa * xb * table.two(p, q, cls)
                     for p, xa in enumerate(fib.iota[i]) if xa
                     for q, xb in enumerate(fib.iota[j]) if xb), Fraction(0))
                for t, y in enumerate(dual[j]):
                    vec[t] += val * y
            img = img + f.qh({-b: vec})
        images.append(img.truncate(cutoff))
    return images


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


def test_singular_pairing_raises_instead_of_choosing_a_solution():
    # b pairs with nothing, so no pairing system has a unique solution
    lat = H2Lattice(("A",), (Fraction(1),), (Fraction(2),), (True,))
    m = ManifoldModel(
        "singular", 2, [("1", 4), ("a", 2), ("b", 2), ("pt", 0)],
        [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], {}, lat,
    )
    one, a, b = (m.basis_vector(x) for x in ("1", "a", "b"))
    with pytest.raises(DegeneratePairing):
        m.solve_pairing(m.basis_vector("pt"))
    with pytest.raises(DegeneratePairing):
        m.cap(one, a)
    with pytest.raises(DegeneratePairing):
        m.cap(a, b)  # every sum vanishes, and still no unique answer
