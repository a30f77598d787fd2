"""Gluing loops: mirror construction and composition of fibrations."""

from fractions import Fraction

import pytest

from qhfib import (
    FiberMismatch,
    TableIncomplete,
    catalog,
    composable,
    compose,
    mirror,
    run_suite,
    validator,
)
from qhfib.fixtures import format_qh, from_dict, to_dict
from tests.conftest import CUTOFF


def test_mirror_inverts_the_seidel_element(ruled, rotation):
    for fib in (ruled, rotation):
        rev = mirror(fib, CUTOFF)
        assert rev.rho(CUTOFF) == fib.rho_inverse(CUTOFF)


def test_the_mirror_keeps_an_incomplete_total_triple(rotation):
    # an incomplete model keeps its declared zeros as data; the mirror's
    # total space shares the triple form, so it keeps them too
    d = to_dict(rotation)
    d["total"]["triple_complete"] = False
    fib = from_dict(d)
    assert 0 in fib.total.triple.values()
    rev = mirror(fib, CUTOFF).total
    assert rev.triple_complete is False
    assert rev.triple == fib.total.triple


def test_mirror_swaps_the_loop_direction_twice(ruled):
    mm = mirror(mirror(ruled, CUTOFF), CUTOFF)
    # each mirroring shrinks the declared-complete window, so data beyond
    # it is refused rather than invented
    with pytest.raises(TableIncomplete):
        mm.rho(CUTOFF)
    small = Fraction(4)
    assert mm.rho(small) == ruled.rho(small)


def test_composing_with_the_mirror_cancels(ruled):
    comp, rep = compose(ruled, mirror(ruled, CUTOFF), CUTOFF)
    assert rep["status"] == "pass"
    assert comp.rho(CUTOFF) == ruled.fiber_ring.unit()
    assert comp.psi_operator(CUTOFF).is_identity(CUTOFF)
    assert comp.normalized_offset().is_zero()


def test_composition_report_checks_both_glue_conditions(ruled):
    _, rep = compose(ruled, mirror(ruled, CUTOFF), CUTOFF)
    lines = rep["details"]
    assert any(ln.startswith("convolution-matches-operator-composition: pass") for ln in lines)
    assert any(ln.startswith("normalization-glues: pass") for ln in lines)
    assert rep["status"] == "pass"


def test_rotation_composed_with_itself_is_trivial(rotation):
    comp, rep = compose(rotation, rotation, CUTOFF)
    assert rep["status"] == "pass"
    assert comp.rho(CUTOFF) == rotation.fiber_ring.unit()


def test_composition_multiplies_seidel_elements(ruled):
    comp, rep = compose(ruled, ruled, CUTOFF)
    assert rep["status"] == "pass"
    rho = ruled.rho(CUTOFF)
    want = ruled.fiber_ring.product(rho, rho, CUTOFF).truncate(CUTOFF)
    assert comp.rho(CUTOFF).truncate(CUTOFF) == want


def test_fibers_must_match_to_compose(ruled, rotation):
    with pytest.raises(FiberMismatch):
        composable(ruled, rotation)
    with pytest.raises(FiberMismatch):
        compose(ruled, rotation, CUTOFF)


def test_structurally_equal_fixtures_compose_across_instances(ruled, tmp_path):
    # a reloaded copy shares no objects with the builtin, only structure
    from qhfib.fixtures import load, save

    path = tmp_path / "copy.json"
    save(ruled, str(path))
    copy = load(str(path))
    assert copy.fiber is not ruled.fiber
    comp, rep = compose(ruled, copy, CUTOFF)
    assert rep["status"] == "pass"
    same, rep2 = compose(ruled, ruled, CUTOFF)
    assert rep2["status"] == "pass"
    assert comp.rho(CUTOFF) == same.rho(CUTOFF)


def test_composite_rho_is_read_at_the_normalized_section():
    """Reference: the fundamental image of the reference-section operator,
    built over a window widened by the offset's area, then shifted to the
    normalized section and cut back to the cutoff."""
    cases = [catalog.build(name) for name in catalog.BUILTIN_FIBRATIONS]
    cases += [catalog.build("ruled", kappa=k) for k in ("2", "1/3", "5/4")]
    shifted = 0
    for fib in cases:
        for c in (2, 6, 24):
            for g in (fib, mirror(fib, c)):
                comp, _ = compose(fib, g, c)
                off = comp.normalized_offset()
                op = comp.psi_operator(Fraction(c) + max(Fraction(0), off.omega))
                want = op.images[fib.fiber.fundamental_index].shift(off).truncate(c)
                got = comp.rho(c)
                assert got == want
                assert format_qh(got) == format_qh(want)
                shifted += off.omega != 0
    assert shifted


def test_a_coupling_that_cannot_be_normalized_fails_the_gluing():
    # the section generator sec gets area 1, and the fiber has no spherical
    # direction to normalize it by
    d = to_dict(catalog.build("quantum-trivial-product"))
    d["total"]["h2"]["omega"][d["total"]["h2"]["generators"].index("sec")] = "1"
    fib = from_dict(d)
    _, rep = compose(fib, mirror(fib, CUTOFF), CUTOFF)
    want = {"status": "fail", "details": [
        "convolution-matches-operator-composition: pass "
        "(two-point convolution against Psi_g after Psi_f)",
        "normalization-glues: fail (quantum-trivialxS2: coupling value 1 cannot be "
        "normalized: the coupling class vanishes on all 0 spherical fiber directions)",
    ]}
    assert rep == want
    # the mirror-composition check hands the failing record on as it is
    assert validator._mirror_composition(fib, CUTOFF) == want
    assert run_suite(fib, "compose", CUTOFF).checks["mirror-composition"] == want
