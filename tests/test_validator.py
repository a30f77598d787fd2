"""Verification suites over fixtures: statuses, guards, tamper detection."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import (
    QhfibError,
    validator,
    QuantumRing,
    SUITE_NAMES,
    TableIncomplete,
    UnknownSuite,
    catalog,
    fibration,
    run_suite,
)
from qhfib.cli import main
from qhfib.fixtures import from_dict, to_dict
from tests.conftest import BUILTINS, CUTOFF


@pytest.mark.parametrize("name", BUILTINS)
def test_every_builtin_passes_the_full_suite(name):
    rep = run_suite(catalog.build(name), "all", CUTOFF)
    assert rep.ok
    failed = [k for k, v in rep.checks.items() if v["status"] == "fail"]
    assert failed == []


@pytest.mark.parametrize("name", BUILTINS)
def test_sound_data_fails_no_check_at_any_cutoff(name):
    """Small cutoffs below the loops' exponent areas, the usual ones, and
    the two-point section window w and w - 1: skips are allowed, failures
    are not."""
    fib = catalog.build(name)
    w = fib.section_gw.window("two_point")
    cutoffs = [Fraction(c) for c in ("0", "1/4", "1/2", "1", "3/2", "2", "6", "24")] + [w - 1, w]
    for cutoff in cutoffs:
        rep = run_suite(fib, "all", cutoff)
        assert [k for k, v in rep.checks.items() if v["status"] == "fail"] == [], cutoff


def test_skips_are_not_failures(ruled):
    rep = run_suite(ruled, "all", CUTOFF)
    assert rep.checks["ring-splitting"]["status"] == "skip"
    assert rep.ok
    # the skip says which invariants blocked the hypothesis
    assert any("T-" in line for line in rep.checks["ring-splitting"]["details"])


def test_quantum_trivial_product_skips_nothing(trivial_product):
    rep = run_suite(trivial_product, "all", CUTOFF)
    statuses = {v["status"] for v in rep.checks.values()}
    assert statuses == {"pass"}


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_single_suites_run_on_a_fibration(ruled, suite):
    rep = run_suite(ruled, suite, CUTOFF)
    assert rep.suite == suite
    assert all(v["status"] in ("pass", "fail", "skip") for v in rep.checks.values())
    assert rep.ok


def test_ring_pairs_get_the_ring_suites_only():
    pair = catalog.ruled_surface_fiber()
    rep = run_suite(pair, "all", CUTOFF)
    assert rep.ok
    assert "fiber-associativity" in rep.checks
    assert "module-identities" not in rep.checks
    with pytest.raises(QhfibError):
        run_suite(pair, "module", CUTOFF)


# each suite's checks in the order its report lists them, on a fibration
SUITE_CHECKS = {
    "structure": ["fibration-structure", "nondegenerate-pairing"],
    "assoc": ["fiber-associativity", "fiber-four-point-splitting", "vertical-associativity"],
    "gw-axioms": ["fiber-axioms", "fiber-energy-positive-closure", "vertical-axioms",
                  "section-divisor"],
    "vertical": ["vertical-products"],
    "prop-gw": ["vertical-entries"],
    "module": ["module-identities", "seidel-invertible"],
    "wang": ["wang-sequence"],
    "split": ["ring-splitting"],
    "compose": ["mirror-composition"],
}
PRODUCT_SUITE_CHECKS = dict(SUITE_CHECKS, **{"prop-gw": ["vertical-entries", "product-pattern"]})
RING_SUITE_CHECKS = {
    "structure": ["nondegenerate-pairing"],
    "assoc": ["fiber-associativity", "fiber-four-point-splitting"],
    "gw-axioms": ["fiber-axioms", "fiber-energy-positive-closure"],
}


@pytest.mark.parametrize("name, order", [("ruled", SUITE_CHECKS),
                                         ("sphere-product", PRODUCT_SUITE_CHECKS)])
def test_fibration_reports_list_checks_in_suite_order(name, order):
    fib = catalog.build(name)
    for suite, checks in order.items():
        assert list(run_suite(fib, suite, CUTOFF).checks) == checks, suite
    assert list(run_suite(fib, "all", CUTOFF).checks) == sum(order.values(), [])


def test_ring_pair_reports_list_checks_in_suite_order():
    pair = catalog.ruled_surface_fiber()
    for suite, checks in RING_SUITE_CHECKS.items():
        assert list(run_suite(pair, suite, CUTOFF).checks) == checks, suite
    assert list(run_suite(pair, "all", CUTOFF).checks) == sum(RING_SUITE_CHECKS.values(), [])
    for suite in set(SUITE_CHECKS) - set(RING_SUITE_CHECKS):
        with pytest.raises(QhfibError) as err:
            run_suite(pair, suite, CUTOFF)
        assert str(err.value) == f"suite {suite!r} needs a fibration, not a bare ring"


def test_run_suite_calls_through_the_suite_registry(ruled, monkeypatch):
    # per-suite timing wraps these entries, so every suite but "all" needs
    # one and run_suite must call the entry it finds there
    assert list(validator._SUITES) == [s for s in SUITE_NAMES if s != "all"]
    assert all(callable(fn) for fn in validator._SUITES.values())
    calls = []
    real = validator._SUITES["wang"]
    monkeypatch.setitem(validator._SUITES, "wang",
                        lambda obj, cutoff: calls.append(cutoff) or real(obj, cutoff))
    assert list(run_suite(ruled, "wang", CUTOFF).checks) == ["wang-sequence"]
    assert list(run_suite(ruled, "all", CUTOFF).checks) == sum(SUITE_CHECKS.values(), [])
    assert calls == [CUTOFF, CUTOFF]


def test_cutoff_is_demanded_where_products_appear(ruled):
    with pytest.raises(QhfibError):
        run_suite(ruled, "assoc", None)
    with pytest.raises(QhfibError):
        run_suite(ruled, "all", None)
    # purely structural suites run without one
    assert run_suite(ruled, "structure", None).ok
    assert run_suite(ruled, "wang", None).ok


def test_unknown_suite_is_rejected(ruled):
    with pytest.raises(UnknownSuite):
        run_suite(ruled, "everything", CUTOFF)


def test_report_serializes_to_json(ruled):
    rep = run_suite(ruled, "structure", None)
    d = json.loads(rep.to_json())
    assert d["target"] == ruled.name
    assert d["ok"] is True
    assert d["cutoff"] is None
    assert set(d["checks"]) == set(rep.checks)
    rep2 = run_suite(ruled, "assoc", Fraction(13, 2))
    assert json.loads(rep2.to_json())["cutoff"] == "13/2"


def _tampered(name, table, arity, bump=1):
    d = to_dict(catalog.build(name))
    entry = d[table][arity][0]
    entry[2] = str(Fraction(entry[2]) + bump)
    return from_dict(d)


def test_a_tampered_fiber_count_is_caught():
    bad = _tampered("ruled", "fiber_gw", "three_point")
    rep = run_suite(bad, "all", CUTOFF)
    assert not rep.ok


def test_a_tampered_vertical_count_is_caught():
    bad = _tampered("ruled", "vertical_gw", "two_point")
    rep = run_suite(bad, "all", CUTOFF)
    assert not rep.ok


def test_a_tampered_section_count_is_caught():
    bad = _tampered("sphere-rotation", "section_gw", "two_point")
    try:
        rep = run_suite(bad, "all", CUTOFF)
        detected = not rep.ok
    except QhfibError:
        detected = True
    assert detected


def test_missing_data_is_a_skip_only_in_run_suite():
    # every declared window set to 3: the report method raises, and
    # run_suite records the same message as a whole-check skip
    d = to_dict(catalog.build("ruled"))
    for table in ("fiber_gw", "vertical_gw", "section_gw"):
        windows = d[table]["complete_below"]
        for arity, w in windows.items():
            if w is not None:
                windows[arity] = "3"
    fib = from_dict(d)
    msg = "ruled-surface: product needs three-point data through area 6"
    rep = run_suite(fib, "all", 6)
    assert rep.checks["fiber-associativity"] == {"status": "skip", "details": [msg]}
    ring = QuantumRing(fib.fiber, fib.fiber_gw)
    with pytest.raises(TableIncomplete) as err:
        ring.associativity_report(6)
    assert str(err.value) == msg


def _transposed_mirror(build):
    """_build_mirror with every synthesized two-point key given in the other
    slot order: its odd-odd entries change sign, its even ones do not."""

    def build_transposed(fib, cutoff):
        rev = build(fib, cutoff)
        two = {((j, i), cls): v for ((i, j), cls), v in rev.section_gw.two_point.items()}
        return rev.replace(section={"two_point": two,
                                    "complete_below": rev.section_gw.complete_below})

    return build_transposed


@pytest.mark.parametrize("cutoff", [2, 6, 24])
def test_a_mirror_wrong_on_odd_classes_fails_mirror_composition(cutoff, monkeypatch):
    # rho, the image of [M], stays the unit; the composite sends a to -a
    monkeypatch.setattr(fibration, "_build_mirror", _transposed_mirror(fibration._build_mirror))
    rep = run_suite(catalog.build("torus-product"), "all", cutoff)
    assert [k for k, v in rep.checks.items() if v["status"] == "fail"] == ["mirror-composition"]
    assert rep.checks["mirror-composition"]["details"][-1] == (
        "loop composed with its reverse sends a to QH<torus: -a>, not to itself")


@pytest.mark.parametrize("name", BUILTINS)
def test_a_passing_mirror_composition_solves_only_the_mirror_inverse(name, monkeypatch):
    solves = []
    real = QuantumRing.inverse_or_none
    monkeypatch.setattr(QuantumRing, "inverse_or_none",
                        lambda self, q, cutoff: solves.append(q) or real(self, q, cutoff))
    rep = run_suite(catalog.build(name), "compose", CUTOFF)
    assert rep.checks["mirror-composition"]["details"][-1] == "reverse loop cancels"
    assert len(solves) == 1  # the mirror's Seidel inverse; the composite is the identity


def test_a_missing_lattice_embedding_skips_only_the_checks_that_read_it(tmp_path, capsys):
    """Without total.h2.embed the mirror cannot be built: mirror-composition
    skips, and the rest of the report comes out as on the unedited file,
    but for the two divisor checks, which read the embedding too."""
    original = Path(__file__).resolve().parent.parent / "fixtures" / "sphere-product.json"
    d = json.loads(original.read_text())
    del d["total"]["h2"]["embed"]
    edited = tmp_path / "sphere-product-unembedded.json"
    edited.write_text(json.dumps(d))

    def checks(path):
        argv = ["verify", "--fixture", str(path), "--suite", "all", "--cutoff", "6"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("suite all: ok\n")
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)["checks"]

    before, after = checks(original), checks(edited)
    assert list(after) == list(before)
    assert after.pop("mirror-composition") == {
        "status": "skip", "details": ["spherexS2: mirror needs an embedded total lattice"]}
    divisor = {"status": "skip",
               "details": ["no degree-2 embedding on the lattice: divisor axiom unchecked"]}
    assert after.pop("vertical-axioms") == after.pop("section-divisor") == divisor
    assert {k: c["status"] for k, c in after.items()} == {k: before[k]["status"] for k in after}


@pytest.mark.parametrize("name", ["torus-product", "quantum-trivial-product"])
def test_a_lattice_generator_off_the_degree_2_basis_skips_ring_splitting(name, tmp_path, capsys):
    """A total lattice generator X with area 0, Chern 0, a zero embedding row
    and coordinate 0 in every class: the generators are no basis of degree-2
    homology, so the loop invariants refuse, ring-splitting skips with their
    text and every other status is the builtin's; invariants and split exit 2."""
    fib = catalog.build(name)
    d = to_dict(fib)
    h2 = d["total"]["h2"]
    for key, value in (("generators", "X"), ("omega", "0"), ("c1", "0"), ("spherical", True)):
        h2[key].append(value)
    h2["embed"].append(["0"] * len(h2["embed"][0]))
    for coords in [d["sigma_ref"], *d["iota_h2"]] + [
            entry[1] for tk in ("vertical_gw", "section_gw")
            for part in ("two_point", "three_point", "four_point_chi")
            for entry in d[tk].get(part) or ()]:
        coords.append("0")
    edited = tmp_path / f"{name}-extra-generator.json"
    edited.write_text(json.dumps(d))
    text = f"{fib.name}: lattice generators must form a basis of degree-2 homology"
    argv = ["verify", "--fixture", str(edited), "--suite", "all", "--cutoff", "6"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("suite all: ok\n")
    assert main(argv + ["--json"]) == 0
    got = json.loads(capsys.readouterr().out)["checks"]
    assert got.pop("ring-splitting") == {"status": "skip", "details": [text]}
    want = run_suite(fib, "all", CUTOFF).checks
    assert {k: c["status"] for k, c in got.items()} == {k: want[k]["status"] for k in got}
    for command in (["invariants"], ["split", "--cutoff", "6"]):
        assert main([*command, "--fixture", str(edited)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"


def test_an_undeclared_triple_skips_the_checks_that_read_it(tmp_path, capsys):
    """ruled.json with total.triple_complete false and its first total.triple
    entry dropped: the four checks that multiply on the total space or
    restrict to the fiber skip with the MissingTripleData text, the rest of
    the report is as on the unedited file, and --strict exits 1."""
    original = Path(__file__).resolve().parent.parent / "fixtures" / "ruled.json"
    d = json.loads(original.read_text())
    d["total"]["triple_complete"] = False
    del d["total"]["triple"][0]
    edited = tmp_path / "ruled-undeclared.json"
    edited.write_text(json.dumps(d))

    def checks(path):
        argv = ["verify", "--fixture", str(path), "--suite", "all", "--cutoff", "6"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("suite all: ok\n")
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)["checks"]

    before, after = checks(original), checks(edited)
    assert list(after) == list(before)
    skip = {"status": "skip", "details": ["ruled-total: triple intersection (M, M, M) undeclared"]}
    for name in ("vertical-associativity", "vertical-products", "vertical-entries",
                 "wang-sequence"):
        assert after.pop(name) == skip, name
    assert after == {k: before[k] for k in after}
    argv = ["verify", "--fixture", str(edited), "--suite", "all", "--cutoff", "6", "--strict"]
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith(
        "strict: skipped vertical-associativity, vertical-products, vertical-entries, "
        "wang-sequence, ring-splitting\n")
