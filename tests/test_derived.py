"""Data a fibration derives once and keeps: the mirror and the passing
mirror-composition record per cutoff, the fiber-restriction matrix, and
pushed-forward classes that carry their area and Chern number over from the
fiber class. Kept data must never change an answer, and a failed build is
never kept."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import (
    Inconsistent, NotInvertible, QhfibError, catalog, fibration, mirror, run_suite, validator)
from qhfib.fibration import FibrationModel
from qhfib.fixtures import from_dict, to_dict
from qhfib.validator import SUITE_NAMES
from tests.conftest import BUILTINS, CUTOFF
from tests.test_validator import _transposed_mirror

RULED_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "ruled.json"


def outcome(obj, suite, cutoff):
    """The report JSON, or the type and text of the error raised."""
    try:
        return run_suite(obj, suite, cutoff).to_json()
    except QhfibError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("cutoff", (2, 6, 24))
@pytest.mark.parametrize("name", BUILTINS)
def test_a_reused_model_reports_what_a_fresh_one_does(name, cutoff):
    fresh = {suite: outcome(catalog.build(name), suite, cutoff) for suite in SUITE_NAMES}
    warm = catalog.build(name)
    for _ in range(2):
        for suite in SUITE_NAMES:
            assert outcome(warm, suite, cutoff) == fresh[suite], suite


def mutated_copies():
    """(site, fixture dict) for each stored count raised by one."""
    for name in BUILTINS:
        clean = to_dict(catalog.build(name))
        for tk in ("fiber_gw", "vertical_gw", "section_gw"):
            for part in ("two_point", "three_point", "four_point_chi"):
                for pos in range(len(clean[tk].get(part, ()))):
                    d = json.loads(json.dumps(clean))
                    entry = d[tk][part][pos]
                    entry[2] = str(Fraction(entry[2]) + 1)
                    yield f"{name} {tk}.{part}[{pos}]", d


MUTATED = dict(mutated_copies())


def test_there_are_48_mutated_copies():
    # 48 on the four even-degree builtins, 9 more on torus-product
    assert sum(not site.startswith("torus-product ") for site in MUTATED) == 48
    assert len(MUTATED) == 57


@pytest.mark.parametrize("site", MUTATED)
def test_a_reused_mutated_model_reports_what_a_fresh_one_does(site):
    d = MUTATED[site]
    fresh = outcome(from_dict(d), "all", CUTOFF)
    warm = from_dict(d)
    assert [outcome(warm, "all", CUTOFF) for _ in range(2)] == [fresh, fresh]


@pytest.fixture
def builds(monkeypatch):
    """Lists that grow by one entry per mirror build and per restriction
    matrix build, each entry naming the fibration built from."""
    built = {"mirror": [], "restriction": []}
    real_mirror = fibration._build_mirror
    real_rows = FibrationModel._restriction_rows

    def counted_mirror(fib, cutoff):
        built["mirror"].append((fib.name, cutoff))
        return real_mirror(fib, cutoff)

    def counted_rows(self):
        built["restriction"].append(self.name)
        return real_rows(self)

    monkeypatch.setattr(fibration, "_build_mirror", counted_mirror)
    monkeypatch.setattr(FibrationModel, "_restriction_rows", counted_rows)
    return built


def test_repeated_verifies_build_the_mirror_once_per_cutoff_and_the_restriction_once(builds):
    fib = catalog.build("ruled")
    reports = [run_suite(fib, "all", c).to_json() for c in (6, 6, Fraction(4), 4, Fraction(12, 2))]
    assert builds["mirror"] == [("ruled-loop", Fraction(6)), ("ruled-loop", Fraction(4))]
    assert builds["restriction"] == ["ruled-loop"]
    assert reports[0] == reports[1] == reports[4]
    assert reports[2] == reports[3]
    assert mirror(fib, 6) is mirror(fib, Fraction(6)) is not mirror(fib, 4)


def test_the_restriction_rows_cannot_be_corrupted_by_a_caller(builds):
    fib = catalog.build("ruled")
    d = fib.fiber_restriction_matrix()
    want = [row[:] for row in d]
    d[0][0] += 1
    d.append([])
    assert fib.fiber_restriction_matrix() == want
    assert fib.fiber_restriction_matrix() is not fib.fiber_restriction_matrix()
    assert builds["restriction"] == ["ruled-loop"]


def test_a_failed_mirror_build_is_not_kept(builds):
    """Without the section count n(F, M) the reference Seidel element is
    -F, not a unit, so the mirror cannot be built; each call builds and
    fails again."""
    d = json.loads(RULED_FIXTURE.read_text())
    del d["section_gw"]["two_point"][0]
    fib = from_dict(d)
    texts = set()
    for _ in range(3):
        with pytest.raises(NotInvertible) as err:
            mirror(fib, CUTOFF)
        texts.add(str(err.value))
    assert texts == {"QH<ruled-surface: -F> is not a unit"}
    assert len(builds["mirror"]) == 3
    assert len({outcome(fib, "compose", CUTOFF) for _ in range(3)}) == 1
    assert len(builds["mirror"]) == 6


@pytest.fixture
def composes(monkeypatch):
    """A list that grows by the (f, g) names of each compose the verify
    suites make."""
    made = []
    real = fibration.compose

    def counted(f, g, cutoff):
        made.append((f.name, g.name))
        return real(f, g, cutoff)

    monkeypatch.setattr(validator, "compose", counted)
    return made


def test_repeated_verifies_compose_with_the_mirror_once_per_cutoff(composes):
    fib = catalog.build("ruled")
    reports = [run_suite(fib, "all", c).to_json() for c in (6, 6, Fraction(4), 4, Fraction(12, 2))]
    assert composes == [("ruled-loop", "ruled-loop~")] * 2
    assert reports[0] == reports[1] == reports[4] == outcome(catalog.build("ruled"), "all", 6)
    assert reports[2] == reports[3] == outcome(catalog.build("ruled"), "all", 4)


@pytest.mark.parametrize("name", BUILTINS)
def test_the_kept_composition_record_cannot_be_corrupted_by_a_caller(name, composes):
    fib = catalog.build(name)
    want = outcome(catalog.build(name), "compose", CUTOFF)
    composes.clear()
    rec = validator._mirror_composition(fib, CUTOFF)
    assert rec["status"] == "pass" and rec["details"][-1] == "reverse loop cancels"
    rec["details"].append("edited")
    rec["status"] = "fail"
    run_suite(fib, "compose", CUTOFF).checks["mirror-composition"]["details"].clear()
    assert outcome(fib, "compose", CUTOFF) == want
    assert len(composes) == 1


def test_a_failing_composition_record_is_computed_again(monkeypatch, composes, builds):
    monkeypatch.setattr(fibration, "_build_mirror", _transposed_mirror(fibration._build_mirror))
    fib = catalog.build("torus-product")
    got = {outcome(fib, "compose", CUTOFF) for _ in range(3)}
    assert len(got) == 1
    assert json.loads(got.pop())["checks"]["mirror-composition"]["status"] == "fail"
    assert len(composes) == 3
    assert builds["mirror"] == [(fib.name, CUTOFF)]  # the mirror itself is kept
    assert [args for name, args in fib._kept if name == "_mirror_composition"] == []


def test_a_raising_mirror_build_raises_again(monkeypatch):
    fib = catalog.build("ruled")

    def raising(fib, cutoff):
        raise QhfibError("mirror failed")

    monkeypatch.setattr(fibration, "_build_mirror", raising)
    for _ in range(2):
        with pytest.raises(QhfibError, match="^mirror failed$"):
            mirror(fib, CUTOFF)
    monkeypatch.undo()
    assert mirror(fib, CUTOFF).name == "ruled-loop~"


def test_a_failed_restriction_build_is_not_kept(monkeypatch, builds):
    fib = catalog.build("ruled")
    monkeypatch.setattr(fibration, "solve", lambda a, b: None)
    texts = set()
    for _ in range(3):
        with pytest.raises(Inconsistent) as err:
            fib.fiber_restriction_matrix()
        texts.add(str(err.value))
    assert texts == {"ruled-loop: pt . [fiber] is not a fiber class"}
    assert builds["restriction"] == ["ruled-loop"] * 3
    monkeypatch.undo()
    assert fib.fiber_restriction_matrix() == catalog.build("ruled").fiber_restriction_matrix()


def fiber_classes(fib, rng):
    """Every fiber class behind a stored key of the fiber table, or of a
    total-space table, and 20 seeded random fiber classes."""
    lat = fib.fiber.h2
    out = [cls for arity in ("two_point", "three_point", "four_point_chi")
           for (_, cls) in fib.fiber_gw._store(arity)]
    for table in (fib.vertical_gw, fib.section_gw):
        for arity in ("two_point", "three_point", "four_point_chi"):
            for (_, key) in table._store(arity):
                b = fib.fiber_class_from_total(key)
                if b is not None:
                    out.append(b)
    for _ in range(20):
        out.append(lat.cls([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in lat.generators]))
    return out


@pytest.mark.parametrize("name", BUILTINS)
def test_iota_h2_class_matches_summing_area_and_chern_again(name):
    rng = random.Random(name)
    fib = catalog.build(name)
    for f in (fib, mirror(fib, CUTOFF)):
        classes = fiber_classes(f, rng)
        assert len(classes) > 20
        for b in classes:
            got = f.iota_h2_class(b)
            coords = [sum((x * f.iota_h2[gi][t] for gi, x in enumerate(b.coords)), Fraction(0))
                      for t in range(len(f.total.h2.generators))]
            want = f.total.h2.cls(coords)
            assert got.lattice is want.lattice
            assert (got.coords, got.omega, got.c1) == (want.coords, want.omega, want.c1)
            assert hash(got) == hash(want) and got == want
