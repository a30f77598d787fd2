"""One way to derive a fibration: `FibrationModel.replace` rebuilds through
the constructor, re-keying the carried tables onto the total lattice in use.
The corrected splitting, the mirror and the re-based factor of `compose` all
derive through it, and a table class on a foreign lattice is refused rather
than read as a silent zero."""

from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import catalog, compose, mirror, run_suite
from qhfib.fixtures import load, save, to_dict
from qhfib.manifold import ManifoldModel
from qhfib.novikov import H2Lattice
from qhfib.quantum import ARITIES, GWTable
from tests.conftest import BUILTINS, CUTOFF

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def source(name, origin):
    return catalog.build(name) if origin == "builtin" else load(str(FIXTURES / f"{name}.json"))


def twin(lat: H2Lattice) -> H2Lattice:
    """A lattice equal in every datum, but a different object."""
    return H2Lattice(lat.generators, lat.omega, lat.c1, lat.spherical, lat.embed)


def twin_total(fib) -> ManifoldModel:
    t = fib.total
    return ManifoldModel(t.name, t.n, t.basis, t.pairing, t.triple, twin(t.h2))


@pytest.mark.parametrize("origin", ("builtin", "fixture"))
@pytest.mark.parametrize("name", BUILTINS)
def test_replace_without_changes_reports_what_the_original_does(name, origin):
    fib = source(name, origin)
    copy = fib.replace()
    assert copy is not fib and copy.section_gw is not fib.section_gw
    assert to_dict(copy) == to_dict(fib)
    assert run_suite(copy, "all", 6).to_json() == run_suite(fib, "all", 6).to_json()


@pytest.mark.parametrize("name", BUILTINS)
def test_replace_re_keys_the_carried_tables_onto_a_new_total(name):
    fib = catalog.build(name)
    total = twin_total(fib)
    moved = fib.replace(total_data=total)
    assert moved.total is total and moved.sigma_ref.lattice is total.h2
    for table in (moved.vertical_gw, moved.section_gw):
        assert all(cls.lattice is total.h2 for a in ARITIES for _, cls in table._store(a))
    assert run_suite(moved, "all", 6).to_json() == run_suite(fib, "all", 6).to_json()


@pytest.mark.parametrize("name", BUILTINS)
def test_the_mirror_keys_every_class_on_its_own_lattice(name):
    fib = catalog.build(name)
    rev = mirror(fib, CUTOFF)
    lat = rev.total.h2
    assert lat is not fib.total.h2
    assert rev.sigma_ref.lattice is lat
    keys = [cls for table in (rev.vertical_gw, rev.section_gw)
            for a in ARITIES for _, cls in table._store(a)]
    assert keys  # the synthesized two-point section table is never empty
    assert all(cls.lattice is lat for cls in keys)


@pytest.mark.parametrize("name", BUILTINS)
def test_composing_with_a_reloaded_copy_matches_composing_with_itself(name, tmp_path):
    fib = catalog.build(name)
    path = tmp_path / "copy.json"
    save(fib, str(path))
    other = load(str(path))
    assert other.fiber is not fib.fiber
    comp, rep = compose(fib, other, CUTOFF)
    same, rep2 = compose(fib, fib, CUTOFF)
    assert rep == rep2 and rep["status"] == "pass"
    assert comp.loop.images == same.loop.images
    assert all(b.lattice is fib.fiber.h2 for img in comp.loop.images for b in img.terms)
    assert (comp.u0, comp.c0, comp.window) == (same.u0, same.c0, same.window)
    assert comp.rho(CUTOFF) == same.rho(CUTOFF)


def test_a_table_class_on_a_foreign_lattice_is_refused(ruled):
    fiber = ruled.fiber
    f_here = fiber.h2.gen("F")
    table = GWTable(fiber, "fiber", two_point={("T-", "pt", f_here): 1}, complete_below=10)
    assert table.two(fiber.label_index("T-"), fiber.label_index("pt"), f_here) == 1
    # an equal lattice that is another object: the count would read as 0
    f_there = twin(fiber.h2).gen("F")
    with pytest.raises(ValueError, match=r"two_point entry \(T-,pt; H2<1\*F>\) is not on the lattice"):
        GWTable(fiber, "fiber", two_point={("T-", "pt", f_there): 1}, complete_below=10)


def test_a_reference_section_on_a_foreign_lattice_is_refused(ruled):
    foreign = twin(ruled.total.h2).cls(ruled.sigma_ref.coords)
    with pytest.raises(ValueError, match="sigma_ref .* is not on the total lattice"):
        ruled.replace(sigma_ref=foreign)
    assert ruled.replace(sigma_ref=ruled.sigma_ref).sigma_ref == ruled.sigma_ref


def test_a_table_left_on_the_old_lattice_fails_loudly(ruled):
    with pytest.raises(ValueError, match="is not on the lattice of"):
        ruled.replace(total_data=twin_total(ruled),
                      section=ruled.section_gw.entries(ruled.total.h2))
    # re-keyed onto the lattice in use, the same entries load
    total = twin_total(ruled)
    moved = ruled.replace(total_data=total, section=ruled.section_gw.entries(total.h2))
    assert moved.section_gw.two_point.keys() != ruled.section_gw.two_point.keys()
    assert list(moved.section_gw.two_point.values()) == list(ruled.section_gw.two_point.values())


def test_entries_round_trip_through_the_table_constructor(ruled):
    for table in (ruled.fiber_gw, ruled.vertical_gw):
        entries = table.entries(table.model.h2)
        rebuilt = GWTable(table.model, "fiber", **entries)
        for a in ARITIES:
            assert rebuilt._store(a) == table._store(a)
        assert rebuilt.complete_below == table.complete_below


def test_replace_changes_only_what_it_is_given(ruled):
    renamed = ruled.replace(name="again", base_area=Fraction(7))
    assert (renamed.name, renamed.base_area) == ("again", Fraction(7))
    assert renamed.total is ruled.total and renamed.fiber is ruled.fiber
    assert renamed.rho(CUTOFF) == ruled.rho(CUTOFF)
