"""The record memo behind `run_suite`: a fibration keeps each check's record
per (check, cutoff), a skip and a body's None included, and hands every
caller its own copy; a raise keeps nothing; a (model, table) pair builds
its records on every call."""

from fractions import Fraction

import pytest

from qhfib import QhfibError, QuantumRing, catalog, run_suite, validator
from qhfib.fibration import FibrationModel
from qhfib.validator import NEEDS_CUTOFF, SUITE_NAMES
from tests.conftest import BUILTINS, CHECK_NAMES, CUTOFF


def cutoffs(suite):
    return [Fraction(2), Fraction(6), Fraction(24)] + ([None] if suite not in NEEDS_CUTOFF else [])


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("name", BUILTINS)
def test_a_reused_model_reports_what_a_fresh_one_does(name, suite):
    warm = catalog.build(name)
    run_suite(warm, "all", CUTOFF)  # records kept by another suite's call serve this one
    for cutoff in cutoffs(suite):
        first, again = (run_suite(warm, suite, cutoff).to_json() for _ in range(2))
        assert first == again == run_suite(catalog.build(name), suite, cutoff).to_json(), cutoff


@pytest.mark.parametrize("name", BUILTINS)
def test_editing_a_returned_record_changes_no_later_report(name):
    fib = catalog.build(name)
    want = run_suite(catalog.build(name), "all", CUTOFF).to_json()
    for rec in run_suite(fib, "all", CUTOFF).checks.values():
        rec["status"] = "fail"
        rec["details"].append("edited")
    for rec in run_suite(fib, "all", CUTOFF).to_dict()["checks"].values():
        rec["details"].clear()
    assert run_suite(fib, "all", CUTOFF).to_json() == want


def test_each_record_is_kept_once_per_check_and_cutoff_skips_and_none_too(monkeypatch):
    splits = []
    real = validator.ring_split_check
    monkeypatch.setattr(validator, "ring_split_check",
                        lambda fib, cutoff: splits.append(cutoff) or real(fib, cutoff))
    fib = catalog.build("ruled")
    for cutoff in (6, Fraction(6), "6", 4):
        run_suite(fib, "all", cutoff)
    assert splits == [6, 4]
    assert run_suite(fib, "split", 6).checks["ring-splitting"]["status"] == "skip"
    # ruled has no product structure: product-pattern does not apply, and
    # that None is kept as well
    assert fib._kept[("_record", ("product-pattern", 6))] is None
    assert sorted(args for key, args in fib._kept if key == "_record") == sorted(
        (check, c) for check in CHECK_NAMES for c in (4, 6))


def test_a_body_that_raises_raises_again_and_keeps_nothing(monkeypatch):
    calls = []

    def raising(self):
        calls.append(self.name)
        raise QhfibError("wang failed")

    fib = catalog.build("ruled")
    monkeypatch.setattr(FibrationModel, "wang_report", raising)
    for _ in range(2):
        with pytest.raises(QhfibError, match="^wang failed$"):
            run_suite(fib, "wang", CUTOFF)
    assert calls == [fib.name] * 2
    assert ("_record", ("wang-sequence", CUTOFF)) not in fib._kept
    monkeypatch.undo()
    assert run_suite(fib, "wang", CUTOFF).checks == run_suite(
        catalog.build("ruled"), "wang", CUTOFF).checks


def test_a_pair_target_runs_its_bodies_on_every_call(monkeypatch):
    calls = []
    real = QuantumRing.associativity_report
    monkeypatch.setattr(QuantumRing, "associativity_report",
                        lambda self, cutoff: calls.append(self.model.name) or real(self, cutoff))
    fib = catalog.build("ruled")
    pair = (fib.fiber, fib.fiber_gw)
    reports = [run_suite(pair, "assoc", CUTOFF).to_json() for _ in range(2)]
    assert reports[0] == reports[1]
    assert calls == [fib.fiber.name] * 2
    calls.clear()
    for _ in range(2):
        run_suite(fib, "assoc", CUTOFF)
    # a fibration's two associativity checks, fiber and vertical, run once each
    assert calls == [fib.fiber.name, fib.total.name]
