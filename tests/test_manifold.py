"""Classical layer: basis bookkeeping, pairing, triple form, cap products."""

import random
from fractions import Fraction

import pytest

from qhfib import (
    DegeneratePairing,
    H2Lattice,
    ManifoldModel,
    MissingTripleData,
    UnknownBasisLabel,
    catalog,
)
from qhfib.fibration import mirror
from qhfib.fixtures import manifold_from_dict, manifold_to_dict
from qhfib.manifold import koszul_sorted
from qhfib.quantum import tensor_model


@pytest.fixture(scope="module")
def surface():
    model, _ = catalog.ruled_surface_fiber()
    return model


def test_koszul_sorting_tracks_odd_swaps():
    assert koszul_sorted((2, 0, 1), (2, 2, 2)) == ((0, 1, 2), 1)
    # two odd-degree slots swap with a sign
    assert koszul_sorted((1, 0), (1, 1)) == ((0, 1), -1)
    assert koszul_sorted((1, 0), (2, 1)) == ((0, 1), 1)


def test_basis_lookup(surface):
    assert surface.label_index("T-") == surface.labels.index("T-")
    assert surface.degree_of(surface.label_index("pt")) == 0
    assert surface.indices_of_degree(2) == [1, 2]
    with pytest.raises(UnknownBasisLabel):
        surface.label_index("nope")


def test_fundamental_and_point_slots(surface):
    f = surface.fundamental_vector()
    p = surface.point_vector()
    assert surface.vector_degree(f) == 2 * surface.n
    assert surface.vector_degree(p) == 0
    assert surface.intersect(f, p) == 1
    assert surface.vector_degree([x + y for x, y in zip(f, p)]) is None
    assert surface.vector_degree(surface.zero_vector()) is None


def test_pairing_and_dual_basis(surface):
    dual = surface.dual_basis()
    k = len(surface.basis)
    for i in range(k):
        ei = surface.zero_vector()
        ei[i] = Fraction(1)
        for j in range(k):
            assert surface.intersect(ei, dual[j]) == (1 if i == j else 0)


def test_intersection_samples(surface):
    F = surface.basis_vector("F")
    T = surface.basis_vector("T-")
    assert surface.intersect(F, T) == 1
    assert surface.intersect(T, T) == -1
    assert surface.intersect(F, F) == 0


def test_triple_form_is_order_insensitive(surface):
    one = surface.fundamental_vector()
    F = surface.basis_vector("F")
    T = surface.basis_vector("T-")
    assert surface.triple_form(one, F, T) == 1
    assert surface.triple_form(T, one, F) == 1
    assert surface.triple_form(T, T, one) == -1
    # wrong total degree evaluates to zero, never an error
    assert surface.triple_form(F, F, F) == 0


def test_fundamental_slot_agrees_with_the_pairing(surface):
    one = surface.fundamental_vector()
    for j in range(len(surface.basis)):
        ej = surface.zero_vector()
        ej[j] = Fraction(1)
        for t in range(len(surface.basis)):
            et = surface.zero_vector()
            et[t] = Fraction(1)
            assert surface.triple_form(one, ej, et) == surface.intersect(ej, et)


def test_cap_products(surface):
    T = surface.basis_vector("T-")
    F = surface.basis_vector("F")
    assert surface.cap(F, T) == surface.basis_vector("pt")
    assert surface.cap(T, T) == [-x for x in surface.basis_vector("pt")]
    assert surface.cap(F, F) == surface.zero_vector()


def _tiny_lattice():
    return H2Lattice(("A",), (Fraction(1),), (Fraction(2),), (True,))


def test_degenerate_pairing_is_reported():
    m = ManifoldModel(
        "bad", 1, [("1", 2), ("pt", 0)],
        [[0, 0], [0, 0]], {}, _tiny_lattice(),
    )
    with pytest.raises(DegeneratePairing):
        m.dual_basis()


def test_pairing_shape_and_degree_validation():
    with pytest.raises(ValueError):
        ManifoldModel("bad", 1, [("1", 2), ("pt", 0)],
                      [[0, 1]], {}, _tiny_lattice())
    with pytest.raises(ValueError):
        # nonzero pairing off complementary degrees
        ManifoldModel("bad", 1, [("1", 2), ("pt", 0)],
                      [[1, 0], [0, 1]], {}, _tiny_lattice())
    with pytest.raises(ValueError):
        ManifoldModel("bad", 1, [("x", 2), ("x", 0)],
                      [[0, 1], [1, 0]], {}, _tiny_lattice())


def test_partial_triple_data_raises_only_when_queried():
    total = catalog.build("ruled").total
    m = ManifoldModel(
        total.name, total.n, total.basis, total.pairing,
        {("Zm", "Zm", "M"): Fraction(-1)}, total.h2,
        triple_complete=False,
    )
    Zm = m.basis_vector("Zm")
    M = m.basis_vector("M")
    Zp = m.basis_vector("Zp")
    assert m.triple_form(Zm, M, Zm) == -1
    # fundamental-slot values come from the pairing, not the declared dict
    assert m.triple_form(m.fundamental_vector(), M, Zm) == m.intersect(M, Zm)
    # wrong total degree still answers zero
    assert m.triple_form(Zm, M, m.fundamental_vector()) == 0
    with pytest.raises(MissingTripleData):
        m.triple_form(M, Zp, Zp)


def test_an_incomplete_model_keeps_its_declared_zero_triples():
    total = catalog.build("ruled").total
    declared = {("Zm", "Zm", "M"): Fraction(-1), ("M", "M", "Zp"): Fraction(0)}
    m = ManifoldModel(total.name, total.n, total.basis, total.pairing, declared, total.h2,
                      triple_complete=False)
    M, Zp = m.label_index("M"), m.label_index("Zp")
    assert m.triple_eval(M, Zp, M) == 0
    with pytest.raises(MissingTripleData, match=r"\(M, Zp, Zp\) undeclared"):
        m.triple_eval(M, Zp, Zp)
    back = manifold_from_dict(manifold_to_dict(m))
    assert back.triple == m.triple
    assert back.triple_eval(Zp, M, M) == 0
    # a complete model answers 0 for every undeclared triple, so it stores no zeros
    complete = ManifoldModel(total.name, total.n, total.basis, total.pairing, declared, total.h2)
    nonzero = ManifoldModel(total.name, total.n, total.basis, total.pairing,
                            {("Zm", "Zm", "M"): Fraction(-1)}, total.h2)
    assert all(complete.triple.values())
    assert manifold_to_dict(complete) == manifold_to_dict(nonzero)


def test_an_incomplete_model_keeps_the_triples_the_pairing_forces():
    # a triple through the fundamental class is a pairing value, zeros
    # included, so it is never undeclared
    total = catalog.build("ruled").total
    m = ManifoldModel(total.name, total.n, total.basis, total.pairing, {}, total.h2,
                      triple_complete=False)
    F, P, M = (m.label_index(x) for x in ("F", "P", "M"))
    assert m.triple_eval(F, P, M) == 0
    for i in range(len(m.basis)):
        for j in range(len(m.basis)):
            for t in (m.triple_eval(i, P, j), m.triple_eval(P, i, j), m.triple_eval(i, j, P)):
                assert t == total.intersect(m.basis_vector(m.labels[i]),
                                            m.basis_vector(m.labels[j]))
    with pytest.raises(MissingTripleData, match=r"\(M, M, M\) undeclared"):
        m.triple_eval(M, M, M)
    assert manifold_from_dict(manifold_to_dict(m)).triple == m.triple


def test_qh_class_arithmetic(surface):
    T = surface.qh_basis("T-")
    F = surface.qh_basis("F")
    e = surface.h2.gen("F")
    x = T + F.scale(Fraction(2))
    assert x - T == F + F
    assert (-x) + x == surface.qh()
    shifted = x.shift(-e)
    assert shifted.coefficient(-e) == [a + 2 * b for a, b in
                                       zip(surface.basis_vector("T-"),
                                           surface.basis_vector("F"))]
    assert shifted.classical() == surface.zero_vector()
    assert x.homogeneous_degree() == 2
    assert shifted.homogeneous_degree() == 2 + 2 * (-e).c1
    assert (T + surface.qh_basis("pt")).homogeneous_degree() is None


def test_qh_truncate_drops_deep_terms(surface):
    e = surface.h2.gen("F")
    x = surface.qh_basis("T-").shift(e.scale(-2))  # area -4
    assert x.truncate(Fraction(6)) == x
    assert x.truncate(Fraction(3)).is_zero()


def _sparse_models():
    models = {}
    for name in catalog.BUILTIN_FIBRATIONS:
        fib = catalog.build(name)
        models[f"{name}/fiber"], models[f"{name}/total"] = fib.fiber, fib.total
    ruled_x_sphere = tensor_model(*catalog.ruled_surface_fiber(), *catalog.sphere(2))
    models["ruled fiber x sphere"] = ruled_x_sphere[0]
    models["ruled fiber x sphere x sphere"] = tensor_model(*ruled_x_sphere, *catalog.sphere(3))[0]
    models["torus x torus"] = tensor_model(*catalog.torus(), *catalog.torus())[0]
    return models


SPARSE_MODELS = _sparse_models()


@pytest.mark.parametrize("name", SPARSE_MODELS)
def test_sparse_pairing_reads_equal_the_dense_matrix(name):
    m = SPARSE_MODELS[name]
    k = len(m.basis)
    rng = random.Random(f"sparse {name}")

    def vector():
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0
                for _ in range(k)]

    for _ in range(25):
        a, b = vector(), vector()
        dense = sum((a[i] * m.pairing[i][j] * b[j] for i in range(k) for j in range(k)),
                    Fraction(0))
        assert m.intersect(a, b) == dense
    for i in range(k):
        e_i = m.basis_vector(m.labels[i])
        assert [m.intersect(e_i, m.basis_vector(lbl)) for lbl in m.labels] == m.pairing[i]
    dense_entries = {(i, j): x for i, row in enumerate(m.pairing)
                     for j, x in enumerate(row[i:], i) if x}
    assert list(m.pairing_entries().items()) == list(dense_entries.items())


def _meet_models():
    """Every model of SPARSE_MODELS plus each builtin's mirror total space,
    whose lattice has the flipped area and Chern covectors."""
    models = dict(SPARSE_MODELS)
    for name in catalog.BUILTIN_FIBRATIONS:
        models[f"{name}/mirror total"] = mirror(catalog.build(name), 6).total
    return models


MEET_MODELS = _meet_models()


@pytest.mark.parametrize("name", MEET_MODELS)
def test_meet_class_is_the_pairing_against_the_embedded_coordinates(name):
    m = MEET_MODELS[name]
    assert m.h2.embed is not None
    deg2 = m.indices_of_degree(2)
    rng = random.Random(f"meet {name}")
    classes = [m.h2.gen(g) for g in m.h2.generators]
    classes += [m.h2.cls([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in m.h2.generators])
                for _ in range(5)]
    vectors = [m.basis_vector(lbl) for lbl in m.labels]
    vectors += [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in m.labels]
                for _ in range(5)]
    for cls in classes:
        emb = cls.embedded()
        for a in vectors:
            dense = sum((a[w] * m.pairing[w][d] * emb[q]
                         for w in range(len(m.basis)) for q, d in enumerate(deg2)), Fraction(0))
            assert m.meet_class(a, cls) == dense
