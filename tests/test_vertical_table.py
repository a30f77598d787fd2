"""The vertical-entries check against its slot-by-slot reference: one
`three` query per vertical triple (i, j <= k) and a `multilinear` slot sum
over fiber `three` queries for each, per vertical key class. The report
reads the kept scattered rows instead; its records must be equal on the
builtins, on every single-count edit of either three-point table, on every
window change of either table, and below the fiber window."""

import sys
from fractions import Fraction

import pytest

from qhfib import GWTable, Inconsistent, TableIncomplete, _linalg, catalog, run_suite
from qhfib._linalg import multilinear
from qhfib.novikov import format_rational
from qhfib.quantum import check
from tests.conftest import BUILTINS, rerun
from tests.test_fibration import ruled_below_the_fiber_window

WINDOWS = (None, Fraction(0), Fraction(1, 2), Fraction(3), Fraction(100))


def ref_vertical_table_report(fib) -> dict:
    m = fib.total
    failures, skips = [], []
    try:
        d = fib.fiber_restriction_matrix()
    except Inconsistent as exc:
        return check([str(exc)])
    classes = fib.vertical_gw.known_key_classes("three_point")
    pres = [fib._iota_preimage(m.basis_vector(lbl)) for lbl in m.labels] if classes else []
    for cls in classes:
        b = fib.fiber_class_from_total(cls)
        if b is None:
            failures.append(f"vertical key {cls!r} is not a fiber class")
            continue

        def read(*slots):  # a slot the fiber table lacks goes to `missing`, read as 0
            try:
                return fib.fiber_gw.three(*slots, b)
            except TableIncomplete as exc:
                missing.append(str(exc))
                return 0

        for i, pre in enumerate(pres):
            if pre is None:
                continue
            for j in range(len(m.basis)):
                for k in range(j, len(m.basis)):
                    try:
                        got = fib.vertical_gw.three(i, j, k, cls)
                    except TableIncomplete as exc:
                        skips.append(str(exc))
                        continue
                    missing = []
                    want = multilinear(read, pre, d[j], d[k])
                    if missing:
                        skips.extend(missing)
                        continue
                    if want != got:
                        failures.append(
                            f"vertical ({m.labels[i]},{m.labels[j]},{m.labels[k]}; "
                            f"{cls!r}) = {format_rational(got)}, fiber data forces "
                            f"{format_rational(want)}"
                        )
    return check(failures, skips)


def outcome(report, fib):
    """The record, or the type and text of the error raised (a vertical
    window below the fiber's class stops the restriction matrix)."""
    try:
        return report(fib)
    except TableIncomplete as exc:
        return f"TableIncomplete: {exc}"


def with_fiber(fib, entries):
    return fib.replace(fiber_gw=GWTable(fib.fiber, "fiber", **entries))


def with_vertical(fib, entries):
    return fib.replace(vertical=entries)


TABLES = {"fiber_gw": (lambda fib: fib.fiber.h2, with_fiber),
          "vertical_gw": (lambda fib: fib.total.h2, with_vertical)}


def edited_copies(fib):
    """(site, copy) for each three-point count of either table raised by
    one, negated or deleted, and each window of either table."""
    for name, (lattice, rebuild) in TABLES.items():
        table = getattr(fib, name)
        for key in table.three_point:
            for edit, value in (("+1", lambda v: v + 1), ("negated", lambda v: -v),
                                ("deleted", None)):
                entries = table.entries(lattice(fib))
                if value is None:
                    del entries["three_point"][key]
                else:
                    entries["three_point"][key] = value(entries["three_point"][key])
                yield f"{name} {key} {edit}", rebuild(fib, entries)
        for w in WINDOWS:
            entries = table.entries(lattice(fib))
            entries["complete_below"]["three_point"] = w
            yield f"{name} window {w}", rebuild(fib, entries)


@pytest.mark.parametrize("name", BUILTINS)
def test_the_report_equals_the_slot_by_slot_reference_on_a_builtin(name):
    fib = catalog.build(name)
    assert fib.vertical_table_report() == ref_vertical_table_report(fib)


@pytest.mark.parametrize("name", BUILTINS)
def test_the_report_equals_the_reference_on_every_edited_table(name):
    statuses = set()
    for site, copy in edited_copies(catalog.build(name)):
        want = outcome(ref_vertical_table_report, copy)
        assert outcome(type(copy).vertical_table_report, copy) == want, site
        statuses.add(want if isinstance(want, str) else want["status"])
    if name == "ruled":
        assert {"pass", "fail", "skip"} < statuses


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", BUILTINS)
def test_the_report_equals_the_reference_below_the_vertical_window(name, window, monkeypatch):
    """Below the vertical window the restriction matrix itself raises, so
    it is handed the builtin's matrix: the unstored vertical entries then
    skip with their own texts."""
    fib = catalog.build(name)
    d = fib.fiber_restriction_matrix()
    entries = fib.vertical_gw.entries(fib.total.h2)
    entries["complete_below"]["three_point"] = window
    copy = with_vertical(fib, entries)
    monkeypatch.setattr(copy, "fiber_restriction_matrix", lambda: [row[:] for row in d])
    assert copy.vertical_table_report() == ref_vertical_table_report(copy)


def test_the_report_equals_the_reference_below_the_fiber_window():
    fib = ruled_below_the_fiber_window()
    entries = fib.vertical_gw.entries(fib.total.h2)
    assert entries["three_point"]
    for key, value in entries["three_point"].items():
        copy = with_vertical(fib, {**entries, "three_point": {
            **entries["three_point"], key: value + 1}})
        assert copy.vertical_table_report() == ref_vertical_table_report(copy), key


@pytest.mark.parametrize("name", BUILTINS)
def test_a_second_verify_solves_no_iota_preimage(name, monkeypatch):
    """The preimages are solved by the first verify that reads a vertical
    key class and kept; warm, a full verify makes no preimage solve and no
    rref call at all on every builtin. Every check body run again past the
    record memo makes no preimage solve either, and reduces only where the
    record alone keeps the answer (the Wang check's rank of the restriction
    matrix, a new composite's normalization): the lattice embedding's
    inverse and each fiber class of a total class are kept."""
    fib = catalog.build(name)
    cold = run_suite(fib, "all", 6).checks
    held = ("FibrationModel._iota_preimages", ()) in fib._kept
    assert held is bool(fib.vertical_gw.known_key_classes("three_point"))
    preimages, rrefs, real_rref = [], [], _linalg.rref
    real_preimage = type(fib)._iota_preimage
    monkeypatch.setattr(type(fib), "_iota_preimage",
                        lambda self, vec: preimages.append(vec) or real_preimage(self, vec))
    monkeypatch.setattr(_linalg, "rref", lambda a: rrefs.append(caller()) or real_rref(a))
    run_suite(fib, "all", 6)
    assert preimages == []
    assert rrefs == []
    assert rerun(fib, 6) == cold
    assert preimages == []
    assert set(rrefs) <= {"wang_report", "_normalizing_class"}


def caller():
    """The name of the nearest function outside `_linalg` that led here."""
    frame = sys._getframe(2)
    while frame.f_globals["__name__"] == _linalg.__name__:
        frame = frame.f_back
    return frame.f_code.co_name
