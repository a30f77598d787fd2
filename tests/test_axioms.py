"""The one fundamental-class and divisor walk, `quantum.table_axioms`, over
the fiber, vertical and section tables: the section table's [P]-slot
reductions, its divisor axiom on deleted entries, the two-point
proportionality on every table, and a sweep of single-count section edits
on the product builtins."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import catalog, run_suite
from qhfib.fixtures import from_dict, to_dict
from tests.conftest import CUTOFF

SPHERE_PRODUCT_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sphere-product.json"

# the builtins that are trivial bundles; with product_structure false no
# check diffs their tables against the product pattern
PRODUCTS = ("sphere-product", "quantum-trivial-product", "torus-product")


def sphere_product_dict():
    d = json.loads(SPHERE_PRODUCT_FIXTURE.read_text())
    d["product_structure"] = False
    return d


def entry(d, arity, labels):
    return next(e for e in d["section_gw"][arity] if e[0] == list(labels))


def test_a_chi_count_with_a_p_slot_reduces_to_the_three_point_count():
    """(1,1,pt,s(1)) holds [P] = s(1): it equals n(1,1,pt), which is 1."""
    d = sphere_product_dict()
    entry(d, "four_point_chi", ("1", "1", "pt", "s(1)"))[2] = "2"
    fib = from_dict(d)
    assert fib.section_divisor_report() == {"status": "fail", "details": [
        "chi 4-point (1,1,pt,s(1); H2<0>) = 2 but removing the fundamental slot gives 1"]}
    assert not run_suite(fib, "all", CUTOFF).ok


def test_a_deleted_three_point_count_breaks_the_divisor_axiom():
    """The window declares (1,1,pt; 0) complete, so deleting it reads 0,
    while the divisor 1 forces (1.sigma_ref) n(1,pt; 0) = 1; the chi entry
    (1,1,pt,s(1)) that reduces to it fails too."""
    d = sphere_product_dict()
    d["section_gw"]["three_point"].remove(entry(d, "three_point", ("1", "1", "pt")))
    fib = from_dict(d)
    assert fib.section_divisor_report() == {"status": "fail", "details": [
        "chi 4-point (1,1,pt,s(1); H2<0>) = 1 but removing the fundamental slot gives 0",
        "divisor axiom fails: n(1,pt,1; H2<0>) = 0 but (w.B) n(1,pt; H2<0>) = 1"]}
    assert not run_suite(fib, "all", CUTOFF).ok


@pytest.mark.parametrize("name,first", [
    ("ruled", "divisor axiom fails: n(F,M,M; H2<0>) = 0 but (w.B) n(F,M; H2<0>) = 1"),
    ("sphere-rotation", "divisor axiom fails: n(F,F,F; H2<0>) = 0 but (w.B) n(F,F; H2<0>) = 1"),
])
def test_a_section_three_point_window_with_no_counts_breaks_the_divisor_axiom(name, first):
    """Declared complete at 0, the three-point window claims every section
    three-point count at offset 0 vanishes; the stored two-point counts
    there and the divisor axiom say otherwise."""
    d = to_dict(catalog.build(name))
    d["section_gw"]["complete_below"]["three_point"] = "0"
    report = from_dict(d).section_divisor_report()
    assert report["status"] == "fail"
    assert report["details"][0] == first


def test_a_section_three_point_window_left_undeclared_skips_the_walk():
    """A stored three-point entry with a divisor slot leaves a pair whose
    other divisor slots the table does not declare."""
    d = sphere_product_dict()
    d["section_gw"]["complete_below"]["three_point"] = None
    assert from_dict(d).section_divisor_report() == {"status": "skip", "details": [
        "spherexS2: three_point invariant (1,pt,s(pt); H2<0>) is outside the "
        "declared-complete range (none declared)"]}


def test_two_point_divisor_slots_are_proportional_in_a_vertical_table():
    """n(Zm, pt) (Zp.F) = n(Zp, pt) (Zm.F) at the vertical class F."""
    d = to_dict(catalog.build("ruled"))
    e = next(e for e in d["vertical_gw"]["two_point"] if e[0] == ["pt", "Zm"])
    e[2] = str(Fraction(e[2]) + 1)
    report = from_dict(d).vertical_ring.axioms_report()
    assert report["details"][0] == (
        "divisor axiom fails: n(Zm,pt; H2<1*F>) (Zp.B) = 2 but n(Zp,pt; H2<1*F>) (Zm.B) = 1")


def test_a_lattice_with_no_embedding_skips_the_divisor_steps():
    d = sphere_product_dict()
    del d["total"]["h2"]["embed"]
    fib = from_dict(d)
    skip = {"status": "skip",
            "details": ["no degree-2 embedding on the lattice: divisor axiom unchecked"]}
    assert fib.section_divisor_report() == fib.vertical_ring.axioms_report() == skip


def section_edits(d, fund):
    """(arity, position, edit) for every +1, negated and deleted section 2-
    and 3-point count and every +1 and negated chi count with a [P] slot."""
    for arity in ("two_point", "three_point", "four_point_chi"):
        for pos, (labels, _, _) in enumerate(d["section_gw"][arity]):
            if arity != "four_point_chi":
                yield from ((arity, pos, how) for how in ("plus", "neg", "del"))
            elif fund in labels:
                yield from ((arity, pos, how) for how in ("plus", "neg"))


@pytest.mark.parametrize("name", PRODUCTS)
def test_every_section_edit_the_axioms_reach_is_caught(name):
    fib = catalog.build(name)
    clean = to_dict(fib)
    clean["product_structure"] = False
    assert run_suite(from_dict(clean), "all", CUTOFF).ok
    sites = list(section_edits(clean, fib.total.labels[fib.total.fundamental_index]))
    assert sites
    missed = []
    for arity, pos, how in sites:
        d = json.loads(json.dumps(clean))
        counts = d["section_gw"][arity]
        if how == "del":
            del counts[pos]
        else:
            n = Fraction(counts[pos][2])
            counts[pos][2] = str(n + 1 if how == "plus" else -n)
        if run_suite(from_dict(d), "all", CUTOFF).ok:
            missed.append((arity, clean["section_gw"][arity][pos][0], how))
    assert not missed, f"undetected section edits: {missed}"
