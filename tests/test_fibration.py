"""Fibrations over the sphere: Seidel elements, module structure, invariants."""

import gc
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import (
    DegeneratePairing,
    FibrationModel,
    GWTable,
    ManifoldModel,
    PrimingInvalid,
    QhfibError,
    TableIncomplete,
    catalog,
    mirror,
    run_suite,
    tensor_model,
)
from qhfib.cli import main
from qhfib.fibration import _normalizing_class
from qhfib.fixtures import format_qh, from_dict, parse_qh, to_dict
from tests.conftest import BUILTINS, CUTOFF

SPHERE_PRODUCT_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sphere-product.json"

# normalized section coefficient for each twisting parameter
RULED_DELTA = {
    Fraction(1): Fraction(7, 12),
    Fraction(2): Fraction(5, 9),
    Fraction(1, 2): Fraction(11, 18),
}


@pytest.mark.parametrize("kappa", sorted(RULED_DELTA))
def test_ruled_normalized_section(kappa):
    fib = catalog.build("ruled", kappa=kappa)
    assert fib.sigma_phi().coords == (RULED_DELTA[kappa], 0, 1)


@pytest.mark.parametrize("kappa", sorted(RULED_DELTA))
def test_ruled_seidel_element(kappa):
    fib = catalog.build("ruled", kappa=kappa)
    d = RULED_DELTA[kappa]
    assert fib.rho(CUTOFF) == parse_qh(fib.fiber, f"T-@e^{{{d}*F}}")
    inv = fib.rho_inverse(CUTOFF)
    assert inv == parse_qh(fib.fiber, f"F@e^{{{1 - d}*F}}+T-@e^{{{1 - d}*F}}")
    prod = fib.fiber_ring.product(fib.rho(CUTOFF), inv, CUTOFF)
    assert prod.truncate(CUTOFF) == fib.fiber_ring.unit()


def test_ruled_rho_shape(ruled):
    shape = ruled.rho_shape(CUTOFF)
    assert shape["monomial"]
    assert shape["coefficient"] == 1
    assert shape["label"] == "T-"
    assert shape["exponent"].coords == (Fraction(7, 12),)


def test_rotation_seidel_element(rotation):
    assert rotation.sigma_phi().coords == (Fraction(1, 2), Fraction(1))
    rho = rotation.rho(CUTOFF)
    assert rho == parse_qh(rotation.fiber, "pt@e^{1/2*A}")
    sq = rotation.fiber_ring.product(rho, rho, CUTOFF)
    assert sq == rotation.fiber_ring.unit()


def test_psi_respects_section_offsets(ruled):
    # moving the section by a fiber class twists the operator by e^{C}
    a = ruled.fiber.qh_basis("T-")
    C = ruled.fiber.h2.gen("F")
    base = ruled.psi_operator(CUTOFF, sigma=ruled.sigma_phi())
    moved = ruled.psi_operator(CUTOFF, sigma=ruled.sigma_phi() + ruled.iota_h2_class(C))
    assert moved.apply(a).truncate(CUTOFF) == base.apply(a).shift(C).truncate(CUTOFF)


def test_psi_at_the_reference_section_is_multiplication_by_rho(ruled):
    rho = ruled.q_class(CUTOFF, sigma=ruled.sigma_phi())
    op = ruled.psi_operator(CUTOFF, sigma=ruled.sigma_phi())
    for lbl, _ in ruled.fiber.basis:
        a = ruled.fiber.qh_basis(lbl)
        want = ruled.fiber_ring.product(rho, a, CUTOFF).truncate(CUTOFF)
        assert op.apply(a).truncate(CUTOFF) == want


def test_psi_composes_like_the_seidel_representation(rotation):
    op = rotation.psi_operator(CUTOFF, sigma=rotation.sigma_phi())
    assert not op.is_identity(CUTOFF)
    assert op.compose(op).is_identity(CUTOFF)


def test_module_and_wang_reports(ruled, rotation):
    for fib in (ruled, rotation):
        assert fib.module_report(CUTOFF)["status"] == "pass"
        assert fib.wang_report()["status"] == "pass"
        assert fib.vertical_report(CUTOFF)["status"] == "pass"
        assert fib.vertical_table_report()["status"] == "pass"
        assert fib.section_divisor_report()["status"] == "pass"
        assert fib.structure_report()["status"] == "pass"


def ruled_below_the_fiber_window():
    """The ruled surface with its fiber three-point window at area 0, below
    the vertical key class F."""
    fib = catalog.build("ruled")
    entries = fib.fiber_gw.entries(fib.fiber.h2)
    entries["complete_below"]["three_point"] = 0
    return fib.replace(fiber_gw=GWTable(fib.fiber, "fiber", **entries))


@pytest.mark.parametrize("labels", [("pt", "Zm", "Zm"), ("T", "S", "Zm")])
def test_a_wrong_vertical_count_fails_below_the_fiber_window(labels):
    """An entry whose fiber sum reads only stored fiber slots is still
    compared, and fails, where other entries of its row lack fiber data."""
    fib = ruled_below_the_fiber_window()
    assert fib.vertical_table_report()["status"] == "skip"
    entries = fib.vertical_gw.entries(fib.total.h2)
    slots = tuple(fib.total.labels.index(lbl) for lbl in labels)
    (key,) = [key for key in entries["three_point"] if key[0] == slots]
    entries["three_point"][key] += 1
    assert fib.replace(vertical=entries).vertical_table_report() == {
        "status": "fail",
        "details": [f"vertical ({','.join(labels)}; {key[1]!r}) = 2, fiber data forces 1"],
    }


def test_the_vertical_entries_check_needs_no_fiber_pairing(monkeypatch):
    """Below the fiber window the check reads fiber slots one at a time and
    solves no fiber pairing, so a singular one cannot stop it."""
    want = ruled_below_the_fiber_window().vertical_table_report()
    fib = ruled_below_the_fiber_window()

    def singular():
        raise DegeneratePairing("ruled-surface: intersection pairing is singular")

    monkeypatch.setattr(fib.fiber, "_pairing_columns", singular)
    assert fib.vertical_table_report() == want


@pytest.mark.parametrize("cutoff", [2, 6, 24])
@pytest.mark.parametrize("name", BUILTINS)
def test_module_identities_hold_at_the_normalized_section(name, cutoff):
    """Psi(a) = Q*a and Psi(a*b) = Psi(a)*b hold at the normalized section
    as at the reference one, whose report the default section reads."""
    fib = catalog.build(name)
    passed = {"status": "pass", "details": []}
    assert fib.module_report(cutoff, fib.sigma_phi()) == passed
    assert fib.module_report(cutoff) == fib.module_report(cutoff, fib.sigma_ref) == passed


def test_a_divisor_in_two_slots_is_reported_once():
    """(1,1,pt) holds the divisor 1 in two slots; both reduce to the same
    two-point entry, so a wrong value is one failure."""
    d = json.loads(SPHERE_PRODUCT_FIXTURE.read_text())
    d["product_structure"] = False
    entry = next(e for e in d["section_gw"]["three_point"] if e[0] == ["1", "1", "pt"])
    entry[2] = "2"
    assert from_dict(d).section_divisor_report() == {"status": "fail", "details": [
        "3-point (1,1,pt; H2<0>) = 2 but the divisor slot 1 forces 1"]}


def test_vertical_product_identities(ruled):
    f = ruled.fiber
    for la, _ in f.basis:
        for lb, _ in f.basis:
            a, b = f.qh_basis(la), f.qh_basis(lb)
            ia, ib = ruled.iota_class(a), ruled.iota_class(b)
            sa = ruled.splitting_class(a)
            # two iota images multiply to zero vertically
            assert ruled.vertical_product(ia, ib, CUTOFF).is_zero()
            # the splitting acts as a module map over the fiber ring
            prod = ruled.fiber_ring.product(a, b, CUTOFF)
            want = ruled.iota_class(prod)
            got = ruled.vertical_product(sa, ib, CUTOFF)
            assert got.truncate(CUTOFF) == want.truncate(CUTOFF)


def test_horizontal_product_knows_its_sections(sphere_product):
    fib = sphere_product
    i1 = fib.total.qh_basis("1")
    ipt = fib.total.qh_basis("pt")
    s1 = fib.total.qh_basis("s(1)")
    assert fib.horizontal_product(i1, i1, CUTOFF) == s1
    assert fib.horizontal_product(i1, s1, CUTOFF).is_zero()
    a = fib.total.h2.gen("A")
    assert fib.horizontal_product(ipt, ipt, CUTOFF) == s1.shift(-a)


def test_ruled_invariants(ruled):
    assert ruled.invariant_Ic() == (1, 2)
    assert ruled.invariant_Iu() == {"T": Fraction(-2, 3)}
    assert [ruled.invariant_Ik(k) for k in range(4)] == [
        Fraction(0), Fraction(8, 3), Fraction(4), Fraction(4)]


@pytest.mark.parametrize("kappa,iu", [
    (Fraction(2), Fraction(-4, 9)),
    (Fraction(1, 2), Fraction(-8, 9)),
])
def test_ruled_invariants_vary_with_twisting(kappa, iu):
    fib = catalog.build("ruled", kappa=kappa)
    assert fib.invariant_Iu() == {"T": iu}
    # the characteristic numbers do not depend on the twisting parameter
    assert [fib.invariant_Ik(k) for k in range(4)] == [
        Fraction(0), Fraction(8, 3), Fraction(4), Fraction(4)]


def test_rotation_invariants(rotation):
    assert rotation.invariant_Ic() == (1, 2)
    assert rotation.invariant_Iu() == {}
    summary = rotation.invariants_summary()
    assert summary["Ic"] == (1, 2)
    assert len(summary["Ik"]) == rotation.fiber.n + 2


@pytest.mark.parametrize("embed,text", [
    (None, "ruled-loop: total lattice has no degree-2 embedding"),
    # T embeds as F: three generators, but not a basis
    ([["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]],
     "ruled-loop: lattice generators must form a basis of degree-2 homology"),
])
def test_invariants_refuse_a_lattice_that_is_no_degree_2_basis(ruled, embed, text):
    d = to_dict(ruled)
    d["total"]["h2"]["embed"] = embed
    fib = from_dict(d)
    for invariant in (fib.invariant_Iu, lambda: fib.invariant_Ik(0)):
        with pytest.raises(QhfibError) as exc:
            invariant()
        assert str(exc.value) == text


def loop_builds(monkeypatch):
    """The list that gets one (model name, arity) item per loop that
    FibrationModel._loop builds: per operator it returns that it has not
    returned before, so handing out a kept loop again adds nothing."""
    builds, seen, loop = [], [], FibrationModel._loop

    def counted(self, arity):
        op = loop(self, arity)
        if not any(op is old for old in seen):
            seen.append(op)
            builds.append((self.name, arity))
        return op

    monkeypatch.setattr(FibrationModel, "_loop", counted)
    return builds


@pytest.mark.parametrize("name", ["ruled", "sphere-rotation", "sphere-product"])
def test_a_warm_suite_solves_no_loop_again(name, monkeypatch):
    fib = catalog.build(name)
    builds = loop_builds(monkeypatch)
    run_suite(fib, "all", CUTOFF)
    assert (fib.name, "two_point") in builds
    builds.clear()
    run_suite(fib, "all", CUTOFF)
    assert builds == []


def test_compose_with_the_mirror_solves_each_loop_once(monkeypatch, capsys):
    # ruled and its mirror: the composite only multiplies the two loops
    builds = loop_builds(monkeypatch)
    assert main(["compose", "--mirror", "--builtin", "ruled", "--cutoff", "6"]) == 0
    assert builds == [("ruled-loop", "two_point"), ("ruled-loop~", "two_point")]


def test_nonsqueezing_needs_a_declared_window(ruled):
    with pytest.raises(TableIncomplete):
        ruled.nonsqueezing()


def test_nonsqueezing_bound_on_the_trivial_product(trivial_product):
    res = trivial_product.nonsqueezing()
    assert res.bound == Fraction(2)
    assert res.window == Fraction(100)


def test_priming_is_validated_at_construction(ruled):
    bad = [list(r) for r in ruled.splitting_map]
    i = ruled.fiber.label_index("F")
    bad[i] = [2 * x for x in bad[i]]
    with pytest.raises(PrimingInvalid):
        ruled.replace(name="bad", splitting=bad)


def test_fiber_class_recovery(ruled):
    F = ruled.fiber.h2.gen("F")
    total_F = ruled.iota_h2_class(F)
    back = ruled.fiber_class_from_total(total_F)
    assert back == F
    assert ruled.fiber_class_from_total(ruled.sigma_ref) is None


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    """No reference cycle runs through a fibration, so dropping the last
    reference frees it and its rings, tables, cached Seidel pairs, kept
    mirror and restriction rows, and class lattices. The mirror holds no
    reference to the fibration it came from."""
    fib = catalog.build("ruled")
    fib.rho(CUTOFF)
    rev = mirror(fib, CUTOFF)
    rev.rho(CUTOFF)
    fib.fiber_restriction_matrix()
    gone = [weakref.ref(x) for x in (fib, rev, fib.fiber.h2, fib.total.h2, rev.total.h2)]
    del rev
    gc.disable()
    try:
        del fib
        assert [ref() for ref in gone] == [None] * 5
    finally:
        gc.enable()


def test_a_primed_splitting_fails_the_structure_report():
    assert catalog.sphere_rotation(primed=True).structure_report() == {
        "status": "fail", "details": ["splitting is primed but not corrected: "
                                      "s(e_i).s(e_j) != 0 (q = [['0', '0'], ['0', '-1']])"]}


def test_fiber_classes_that_multiply_vertically_fail_the_vertical_report():
    # n(pt, pt, s(1); A) = 1 makes iota(pt) *v iota(pt) = pt e^{-A}
    d = to_dict(catalog.build("sphere-product"))
    d["vertical_gw"]["three_point"].append([["pt", "pt", "s(1)"], ["1", "0"], "1"])
    assert from_dict(d).vertical_report(CUTOFF) == {"status": "fail", "details": [
        "s(1) *v iota(pt) = QH<spherexS2: pt + s(1)@e^H2<-1*A>> != iota(1*pt) = QH<spherexS2: pt>",
        "iota(pt) *v iota(pt) = QH<spherexS2: pt@e^H2<-1*A>>, fiber classes in distinct "
        "fibers must multiply to zero",
    ]}


@pytest.mark.parametrize("u0, c0", [
    (0, 0), (1, 0), (0, 1), (Fraction(-3, 2), 4), (7, Fraction(-5, 3))])
def test_normalization_fixes_area_and_chern_number_where_the_fiber_tells_them_apart(u0, c0):
    # the spherical generators have (area, Chern) = (1, 2) and (5, 2): rank 2
    lattice = tensor_model(*catalog.sphere(1), *catalog.sphere(5))[0].h2
    sph = lattice.spherical_indices()
    assert [(lattice.omega[i], lattice.c1[i]) for i in sph] == [(1, 2), (5, 2)]
    b = _normalizing_class(lattice, Fraction(u0), Fraction(c0), "test")
    assert b.is_spherical()
    assert (b.omega, b.c1) == (-u0, -c0)


# -- failure lines of the Wang, vertical-table and rho-shape checks ---------------


def with_odd_classes(model, name, extra, pairs):
    """model plus the odd basis classes extra [(label, degree)], appended,
    each pair (a, b) of pairs meeting once (and (b, a) with the graded sign)."""
    basis = list(model.basis) + extra
    labels = [lbl for lbl, _ in basis]
    pairing = [list(row) + [0] * len(extra) for row in model.pairing]
    pairing += [[0] * len(basis) for _ in extra]
    for a, b in pairs:
        pairing[labels.index(a)][labels.index(b)] = 1
        pairing[labels.index(b)][labels.index(a)] = -1
    return ManifoldModel(name, model.n, basis, pairing, model.triple, model.h2)


def vectors(model, *images):
    """Homology vectors of model, each given as {label: coordinate}."""
    return [model.vector((model.label_index(lbl), Fraction(x)) for lbl, x in img.items())
            for img in images]


def test_a_total_space_of_the_wrong_size_fails_the_wang_sequence(rotation):
    # an odd pair v . w = 1 makes 6 classes over a 2-class fiber
    total = with_odd_classes(rotation.total, "odd-total", [("v", 1), ("w", 3)], [("v", "w")])
    fib = rotation.replace(total_data=total, iota=vectors(total, {"F": 1}, {"pt": 1}),
                           splitting=vectors(total, {"P": 1}, {"S": 1}))
    assert fib.wang_report() == {"status": "fail", "details": [
        "total space has 6 classes, expected twice the fiber's 2",
        "rank(iota) + rank(restriction) = 2+2 != 6 = dim H(P): sequence not exact",
    ]}


def test_a_non_injective_iota_fails_the_wang_sequence(rotation):
    # the priming forces iota(e_i) . s(e_j) to be the fiber pairing, so iota
    # has a kernel only where the fiber pairing does: here the odd classes
    # b and c, which meet nothing and both go to v
    fiber = with_odd_classes(rotation.fiber, "odd-fiber", [("b", 1), ("c", 1)], [])
    total = with_odd_classes(rotation.total, "odd-total",
                             [("v", 1), ("y", 1), ("w", 3), ("z", 3)], [("v", "w"), ("y", "z")])
    fib = rotation.replace(
        fiber=fiber, fiber_gw=GWTable(fiber, "fiber", **rotation.fiber_gw.entries(fiber.h2)),
        total_data=total, iota=vectors(total, {"F": 1}, {"pt": 1}, {"v": 1}, {"v": 1}),
        splitting=vectors(total, {"P": 1}, {"S": 1}, {"z": 1}, {"z": 1}))
    assert fib.wang_report() == {"status": "fail", "details": [
        "iota is not injective",
        "restriction to the fiber is not surjective",
        "rank(iota) + rank(restriction) = 3+2 != 8 = dim H(P): sequence not exact",
    ]}


def test_a_vertical_key_off_the_fiber_classes_fails_the_vertical_entries_check(ruled):
    m = ruled.total
    entries = ruled.vertical_gw.entries(m.h2)
    key = m.h2.gen("F") + m.h2.gen("S")
    entries["three_point"][tuple(map(m.label_index, ("pt", "Zp", "P"))), key] = 1
    assert ruled.replace(vertical=entries).vertical_table_report() == {
        "status": "fail", "details": ["vertical key H2<1*F + 1*S> is not a fiber class"]}


def test_a_seidel_element_with_two_coordinates_is_no_monomial(ruled):
    # without the section count n(T, M; sigma_ref) the one term of rho is F + T-
    m = ruled.total
    entries = ruled.section_gw.entries(m.h2)
    del entries["two_point"][(m.label_index("T"), m.label_index("M")), m.h2.zero()]
    fib = ruled.replace(section=entries)
    shape = fib.rho_shape(CUTOFF)
    assert format_qh(shape["value"]) == "F@e^{7/12*F}+T-@e^{7/12*F}"
    assert shape == {"monomial": False, "value": fib.rho(CUTOFF)}
