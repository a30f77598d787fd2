"""Splitting corrections and the ring-splitting criterion."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhfib import (
    GWTable,
    TableIncomplete,
    catalog,
    corrected_splitting,
    format_rational,
    product_fixture,
    ring_split_check,
    run_suite,
    splitting_correction,
    tensor_model,
    verify_product_pattern,
)
from qhfib import fixtures
from qhfib.quantum import ARITIES, QuantumRing
from qhfib.splitting import correction_valid, product_section_tables
from tests.conftest import (
    CUTOFF, STEP_LINE, offending_lines, trivial_product_with_a_spherical_class)


def random_defect(rng, n):
    """Random graded defect matrix: entries only in complementary degrees
    d_i + d_j = 2n - 2, with the sign symmetry of an intersection pairing."""
    k = rng.randint(2, 6)
    degrees = [rng.choice(range(0, 2 * n + 1)) for _ in range(k)]
    q = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if degrees[i] + degrees[j] != 2 * n - 2:
                continue
            v = Fraction(rng.randint(-5, 5))
            q[i][j] = v
            q[j][i] = v * (-1) ** (degrees[i] * degrees[j])
            if i == j and degrees[i] % 2:
                q[i][j] = Fraction(0)  # odd self-pairing is forced to vanish
    return degrees, q


@pytest.mark.parametrize("n", [2, 3])
def test_randomized_corrections_cancel_the_defect(n):
    rng = random.Random(20240 + n)
    for _ in range(120):
        degrees, q = random_defect(rng, n)
        lam = splitting_correction(degrees, n, q)
        assert correction_valid(degrees, q, lam)


@given(st.integers(2, 4), st.integers(0, 10_000))
def test_corrections_cancel_arbitrary_defects(n, seed):
    degrees, q = random_defect(random.Random(seed), n)
    lam = splitting_correction(degrees, n, q)
    assert correction_valid(degrees, q, lam)


def test_misplaced_defects_are_rejected():
    # a defect between degrees 0 and 0 cannot come from a graded splitting
    with pytest.raises(ValueError):
        splitting_correction([0, 0], 2, [[0, 1], [1, 0]])


def test_corrected_splitting_repairs_a_primed_section():
    primed = catalog.sphere_rotation(primed=True)
    q = primed.splitting_pairing()
    assert any(any(row) for row in q)
    fixed = corrected_splitting(primed)
    assert not any(any(row) for row in fixed.splitting_pairing())
    assert fixed.structure_report()["status"] == "pass"
    # the shipped builder applies the same correction
    assert fixed.splitting_map == catalog.build("sphere-rotation").splitting_map
    # s(pt) gains half the fiber class
    i = fixed.fiber.label_index("pt")
    delta = [a - b for a, b in zip(fixed.splitting_map[i], primed.splitting_map[i])]
    F = fixed.total.label_index("F")
    assert delta[F] == Fraction(1, 2)
    assert sum(abs(x) for x in delta) == Fraction(1, 2)


def test_corrected_splitting_is_a_fixed_point(ruled):
    assert corrected_splitting(ruled) is ruled


def test_correction_preserves_module_identities():
    primed = catalog.sphere_rotation(primed=True)
    fixed = corrected_splitting(primed)
    assert fixed.module_report(CUTOFF)["status"] == "pass"
    assert fixed.vertical_report(CUTOFF)["status"] == "pass"


def test_ring_split_holds_for_the_quantum_trivial_product(trivial_product):
    rep = ring_split_check(trivial_product, CUTOFF)
    assert rep["status"] != "skip"
    assert rep["status"] == "pass"
    assert any(ln.startswith("hypothesis: pass") for ln in rep["details"])
    assert all(ln.split(" (", 1)[0].endswith(": pass") for ln in rep["details"])


def test_ring_split_reports_an_honest_hypothesis_failure(ruled):
    rep = ring_split_check(ruled, CUTOFF)
    assert rep["status"] == "skip"
    assert any("T-,pt" in line for line in rep["details"])
    # the criterion is conditional: no splitting claim is evaluated, and
    # the details are exactly the offending entries
    assert rep["details"] == offending_lines(ruled)
    assert not any(STEP_LINE.match(line) for line in rep["details"])


@pytest.mark.parametrize("entries, pairing, triple", [
    # n(pt, 1, s(e1)) = 2: s(pt) gains 2 e2 x pt, which meets s(e1) and so
    # t([M], s(e1), s(pt)) = s(e1) . s(pt)
    ({("1", "pt", "s(e1)"): 2},
     "pairing-isotropic: fail (s(e1) . s(pt) != 0)",
     "triple-isotropic: fail (t(s(1), s(e1), s(pt)) != 0)"),
    # s(e1) gains the fiber class and s(pt) loses e2 x pt: the two cancel in
    # s(e1) . s(pt), while t(F, s(e1), s(e2)) = e1 . e2 survives
    ({("1", "e1", "s(pt)"): 1, ("1", "pt", "s(e1)"): -1},
     "pairing-isotropic: pass",
     "triple-isotropic: fail (t(s(e1), s(e1), s(e2)) != 0)"),
])
def test_ring_split_names_the_first_section_images_that_meet(trivial_product, entries,
                                                             pairing, triple):
    """Classical section counts that tilt the section map off the splitting
    slots: every image stays classical and restricts to its class, but some
    images meet."""
    fib = trivial_product
    m = fib.total
    section = fib.section_gw.entries(m.h2)
    for labels, n in entries.items():
        section["three_point"][tuple(map(m.label_index, labels)), m.h2.zero()] = Fraction(n)
    rep = ring_split_check(fib.replace(section=section), CUTOFF)
    assert rep["status"] == "fail"
    assert rep["details"] == [
        "hypothesis: pass (all listed fiber and vertical invariants vanish)",
        "seidel-element: pass (rho = QH<quantum-trivial: 1>)",
        "section-map: pass (s(x) classical for every basis class)",
        "restricts-to-identity: pass",
        pairing,
        triple,
        "fiber-squares-to-total: pass ([M] *h [M] = QH<quantum-trivialxS2: s(1)>, "
        "expected QH<quantum-trivialxS2: s(1)>)",
        "chern-invariant-vanishes: pass (Ic = 0)",
        "coupling-invariant-vanishes: pass (Iu = {E1: 0, E2: 0})",
    ]


@pytest.mark.parametrize("entries, want", [
    # n(1, e1; sigma + E1) = 1 puts e2 e^{-E1} into rho
    ({"two_point": [("1", "e1")]},
     ["seidel-element: fail (Seidel element is not a basis monomial: "
      "QH<quantum-trivial: 1 + e2@e^H2<-1*E1>>)"]),
    # n(1, 1, s(pt); sigma + E1) = 1 gives [M] *h [M] a term at e^{-E1}
    ({"three_point": [("1", "1", "s(pt)")]},
     ["seidel-element: pass (rho = QH<quantum-trivial: 1>)",
      "section-map: fail (s(1) = QH<quantum-trivialxS2: s(1) + 1@e^H2<-1*E1>> has quantum "
      "corrections, not a classical class)"]),
])
def test_ring_split_stops_at_a_quantum_seidel_element_or_section_map(entries, want):
    fib = fixtures.from_dict(trivial_product_with_a_spherical_class(**entries))
    assert ring_split_check(fib, CUTOFF) == {"status": "fail", "details": [
        "hypothesis: pass (all listed fiber and vertical invariants vanish)", *want]}


def test_product_pattern_matches_the_stored_tables(sphere_product, trivial_product):
    assert verify_product_pattern(sphere_product)["status"] == "pass"
    assert verify_product_pattern(trivial_product)["status"] == "pass"
    two_spheres = product_fixture(*tensor_model(*catalog.sphere(1), *catalog.sphere(2)), 3)
    assert verify_product_pattern(two_spheres)["status"] == "pass"


def test_product_pattern_names_each_tampered_or_deleted_entry(sphere_product, trivial_product):
    compared = set()
    for fib in (sphere_product, trivial_product):
        for label in ("vertical", "section"):
            table = getattr(fib, f"{label}_gw")
            for arity in ARITIES:
                for key, val in table._store(arity).items():
                    compared.add((label, arity))
                    idx, cls = key
                    names = ",".join(fib.total.labels[i] for i in idx)
                    for stored in (val + 1, None):
                        entries = table.entries(fib.total.h2)
                        if stored is None:
                            del entries[arity][key]
                        else:
                            entries[arity][key] = stored
                        rep = verify_product_pattern(fib.replace(**{label: entries}))
                        assert rep["status"] == "fail"
                        assert rep["details"] == [
                            f"{label} {arity} ({names}; {cls!r}): stored "
                            f"{format_rational(stored or 0)}, product rule gives "
                            f"{format_rational(val)}"
                        ]
    assert compared == {("vertical", "two_point"), ("vertical", "three_point"),
                        ("section", "two_point"), ("section", "three_point"),
                        ("section", "four_point_chi")}


@pytest.mark.parametrize("fiber", ["sphere", "quantum-trivial", "sphere x sphere", "torus"])
def test_product_tables_load_through_gwtable_unchanged(fiber):
    """The builder emits sorted index tuples, so the constructor keeps every
    key, its class coordinates, its value and the entry order."""
    model, gw = {
        "sphere": catalog.sphere,
        "quantum-trivial": catalog.quantum_trivial_fiber,
        "sphere x sphere": lambda: tensor_model(*catalog.sphere(1), *catalog.sphere(2)),
        "torus": catalog.torus,
    }[fiber]()
    fib = product_fixture(model, gw, 3)
    vertical, section = product_section_tables(fib.fiber_ring, fib.iota_h2_class)
    loaded = (
        (vertical, GWTable(fib.total, "fiber", **vertical)),
        (section, GWTable(fib.total, "section", **section, section_c1=fib.section_gw.section_c1)),
    )

    def items(entries):
        return [(idx, cls.coords, v) for (idx, cls), v in entries.items()]

    for want, table in loaded:
        for arity in ARITIES:
            assert items(table._store(arity)) == items(want.get(arity, {}))


@pytest.mark.parametrize("name", ["sphere-product", "quantum-trivial-product", "torus-product"])
def test_product_builtins_declare_no_vertical_four_point_window(name):
    """No vertical four-point entries are synthesized, so none are declared
    complete: on sphere-product the vertical four-point splitting check is
    a skip, where a declared window made it fail on two silent zeros."""
    root = Path(__file__).resolve().parent.parent
    for fib in (catalog.build(name), fixtures.load(root / "fixtures" / f"{name}.json")):
        cb = fib.vertical_gw.complete_below
        assert cb["four_point_chi"] is None
        assert cb["two_point"] == cb["three_point"] == fib.fiber_gw.window("three_point")
        assert not fib.vertical_gw.four_point_chi
        report = QuantumRing(fib.total, fib.vertical_gw).assoc1_report()
        if name == "sphere-product":
            assert report["status"] == "skip"
            assert all("four_point_chi invariant" in line and "(none declared)" in line
                       for line in report["details"])
        else:  # the fiber stores no three-point class, so nothing splits
            assert report == {"status": "pass", "details": []}


def test_product_pattern_skips_non_product_fixtures(ruled):
    assert verify_product_pattern(ruled)["status"] == "skip"


def test_product_pattern_flags_a_tampered_section_count(sphere_product):
    fib = sphere_product
    section = fib.section_gw.entries(fib.total.h2)
    sec2 = section["two_point"]
    key = next(iter(sec2))
    sec2[key] = sec2[key] + 1
    tampered = fib.replace(section=section)
    rep = verify_product_pattern(tampered)
    assert rep["status"] == "fail"
    assert rep["details"]


def test_programming_errors_are_not_recorded_as_failures(monkeypatch):
    fib = catalog.build("quantum-trivial-product")

    def boom(*args, **kwargs):
        raise RuntimeError("a bug, not a verdict")

    monkeypatch.setattr(fib, "rho_shape", boom)
    with pytest.raises(RuntimeError):
        ring_split_check(fib, CUTOFF)
    monkeypatch.setattr(fib.total, "dual_basis", boom)
    with pytest.raises(RuntimeError):
        fib.structure_report()


@pytest.mark.parametrize("table, arity, text", [
    ("fiber_gw", "three_point", "quantum-trivial: product needs three-point data through area 6"),
    ("section_gw", "three_point", "quantum-trivialxS2: horizontal product needs three-point "
                                  "section data through area 6 (none declared)"),
])
def test_missing_data_skips_the_split_check_as_it_skips_every_check(table, arity, text):
    """The Seidel element (first case) or the section map (second) lacks
    data: the check raises, and the suite records a skip, not a failure."""
    d = fixtures.to_dict(catalog.build("quantum-trivial-product"))
    d[table]["complete_below"][arity] = "3" if table == "fiber_gw" else None
    fib = fixtures.from_dict(d)
    with pytest.raises(TableIncomplete) as err:
        ring_split_check(fib, CUTOFF)
    assert str(err.value) == text
    rep = run_suite(fib, "split", CUTOFF)
    assert rep.checks == {"ring-splitting": {"status": "skip", "details": [text]}} and rep.ok
