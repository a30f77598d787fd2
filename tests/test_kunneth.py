"""The signed cross product behind every product model, and the odd-degree
torus fiber it makes verifiable."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from qhfib import (
    GWTable,
    ManifoldModel,
    MissingTripleData,
    QuantumRing,
    catalog,
    mirror,
    run_suite,
    tensor_model,
)
from tests.conftest import CUTOFF


def ref_tensor(m1, t1, m2, t2):
    """The even-degree product rule slot by slot: the pairing entry by
    entry, the triple over every ordering of the second factor's key, and
    the three-point entries from a loop over all six slots. Returns the
    pairing, the canonical triple and {(key, class coordinates): n}."""
    k1, k2 = len(m1.basis), len(m2.basis)

    def bi(i, j):
        return i * k2 + j

    pairing = [[m1.pairing[i][a] * m2.pairing[j][b] for a in range(k1) for b in range(k2)]
               for i in range(k1) for j in range(k2)]
    triple = {}
    for (i, a, x), v1 in m1.triple.items():
        for key2, v2 in m2.triple.items():
            for j, b, y in set(permutations(key2)):
                triple[tuple(sorted((bi(i, j), bi(a, b), bi(x, y))))] = v1 * v2

    def value(m, t, i, j, k, cls):
        return m.triple_eval(i, j, k) if cls is None else t.three(i, j, k, cls)

    zeros1 = (Fraction(0),) * len(m1.h2.generators)
    zeros2 = (Fraction(0),) * len(m2.h2.generators)
    entries = {}
    for c1 in [None, *t1.known_key_classes("three_point")]:
        for c2 in [None, *t2.known_key_classes("three_point")]:
            if c1 is None and c2 is None:
                continue
            coords = (zeros1 if c1 is None else c1.coords) + (zeros2 if c2 is None else c2.coords)
            for i, j, a, b, x, y in product(range(k1), range(k2), repeat=3):
                key = (bi(i, j), bi(a, b), bi(x, y))
                if not key[0] <= key[1] <= key[2]:
                    continue
                v = value(m1, t1, i, a, x, c1) * value(m2, t2, j, b, y, c2)
                if v:
                    entries[key, coords] = v
    return pairing, triple, entries


EVEN_PAIRS = {
    "sphere x sphere": lambda: (*catalog.sphere(1), *catalog.sphere(5)),
    "ruled fiber x sphere": lambda: (*catalog.ruled_surface_fiber(), *catalog.sphere(5)),
    "sphere x ruled fiber": lambda: (*catalog.sphere(5), *catalog.ruled_surface_fiber()),
    "quantum-trivial x ruled fiber": lambda: (*catalog.quantum_trivial_fiber(),
                                              *catalog.ruled_surface_fiber()),
}


@pytest.mark.parametrize("pair", EVEN_PAIRS)
def test_tensor_model_matches_the_slot_by_slot_rule_on_even_factors(pair):
    m1, t1, m2, t2 = EVEN_PAIRS[pair]()
    model, table = tensor_model(m1, t1, m2, t2)
    pairing, triple, entries = ref_tensor(m1, t1, m2, t2)
    assert model.pairing == pairing
    assert model.triple == triple
    assert {(idx, cls.coords): v for (idx, cls), v in table.three_point.items()} == entries
    w = min(t1.window("three_point"), t2.window("three_point"))
    assert table.complete_below == {"two_point": None, "three_point": w, "four_point_chi": None}


ODD_PAIRS = {
    "torus x sphere": lambda: (*catalog.torus(), *catalog.sphere(5)),
    "sphere x torus": lambda: (*catalog.sphere(5), *catalog.torus()),
    "torus x torus": lambda: (*catalog.torus(), *catalog.torus()),
}


@pytest.mark.parametrize("cutoff", [2, 6])
@pytest.mark.parametrize("pair", ODD_PAIRS)
def test_tensor_models_with_odd_classes_are_associative(pair, cutoff):
    ring = QuantumRing(*tensor_model(*ODD_PAIRS[pair]()))
    assert ring.associativity_report(cutoff) == {"status": "pass", "details": []}


def test_cross_products_of_odd_classes_carry_the_koszul_sign():
    model, _ = tensor_model(*ODD_PAIRS["torus x torus"]())
    idx = model.label_index
    # (a x a') . (b x b') = (-1)^(|a'| |b|) (a . b)(a' . b')
    assert model.pairing[idx("a|a")][idx("b|b")] == -1
    assert model.pairing[idx("a|b")][idx("b|a")] == 1
    # t(a x 1, b x 1, 1 x pt) = t(a, b, 1) t(1, 1, pt), no odd class moves
    assert model.triple_eval(idx("a|1"), idx("b|1"), idx("1|pt")) == 1
    # t(1 x a, 1 x b, pt x 1): a and b move past even classes only
    assert model.triple_eval(idx("1|a"), idx("1|b"), idx("pt|1")) == 1
    # t(a x a, b x b, 1 x 1): the second a moves past b, so it agrees with the pairing
    assert model.triple_eval(idx("a|a"), idx("b|b"), idx("1|1")) == -1


def test_tensor_model_refuses_a_factor_with_undeclared_triples():
    m, gw = catalog.sphere(1)
    partial = ManifoldModel("partial-sphere", m.n, m.basis, m.pairing, {}, m.h2,
                            triple_complete=False)
    table = GWTable(partial, "fiber", complete_below=100)
    for factors in ((partial, table, *catalog.sphere(2)), (*catalog.sphere(2), partial, table)):
        with pytest.raises(MissingTripleData, match="partial-sphere: a tensor factor"):
            tensor_model(*factors)


@pytest.mark.parametrize("cutoff", [2, 6, 24])
def test_the_torus_product_verifies_with_the_identity_loop(cutoff):
    fib = catalog.build("torus-product")
    report = run_suite(fib, "all", cutoff)
    assert report.ok, report.to_json()
    assert all(c["status"] == "pass" for c in report.checks.values())
    assert fib.rho(cutoff) == fib.fiber_ring.unit()
    assert fib.psi_operator(cutoff).is_identity()


def test_the_mirror_keys_its_two_point_entries_by_orientation():
    # n~(iota a, iota b; 0) = (Q^-1 a)_0 . b = a . b, and b . a = -(a . b)
    fib = catalog.build("torus-product")
    rev = mirror(fib, CUTOFF)
    a, b = (fib.total.label_index(x) for x in ("a", "b"))
    n = fib.section_gw.two(a, b, fib.total.h2.zero())
    zero = rev.total.h2.zero()
    assert n == 1
    assert rev.section_gw.two(a, b, zero) == n
    assert rev.section_gw.two(b, a, zero) == -n
