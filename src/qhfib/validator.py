"""Verification suites.

One ordered table, _CHECKS, names every suite's checks and the body behind
each. One loop, _run_checks, reads a suite's records in table order for a
fibration or a bare (manifold model, invariant table) pair; a pair gets only
the checks that need no fibration. Each check is stored as the record
{"status": pass|fail|skip, "details"} that every report returns. Skips flag
data the tables genuinely cannot answer; they are never failures. A report
method raises TableIncomplete (MissingInput for optional model data,
MissingTripleData for an undeclared triple intersection) when a whole check
lacks data, and the one build, _record, records that as a skip.
Reports serialize to stable JSON so runs can be diffed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from ._memo import kept
from .errors import (
    DegeneratePairing,
    Inconsistent,
    MissingInput,
    MissingTripleData,
    NotInvertible,
    QhfibError,
    TableIncomplete,
    UnknownSuite,
)
from .fibration import FibrationModel, compose, mirror
from .novikov import _exact, format_rational
from .quantum import QuantumRing, check, copied
from .splitting import ring_split_check, verify_product_pattern


@dataclass
class VerificationReport:
    target: str
    suite: str
    cutoff: Fraction | None
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "suite": self.suite,
            "cutoff": None if self.cutoff is None else format_rational(self.cutoff),
            "ok": self.ok,
            "checks": {name: copied(c) for name, c in self.checks.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _nondegenerate_pairing(obj, cutoff):
    fibration = isinstance(obj, FibrationModel)
    try:
        (obj.fiber if fibration else obj[0]).dual_basis()
        if fibration:
            obj.total.dual_basis()
    except DegeneratePairing as exc:
        return check([str(exc)])
    return check([])


def _seidel_invertible(fib, cutoff):
    try:
        fib.rho(cutoff)
    except (NotInvertible, Inconsistent) as exc:
        return check([str(exc)])
    return check([])


def _ring_splitting(fib, cutoff):
    rep = ring_split_check(fib, cutoff)
    if rep["status"] == "skip":
        return check([], ["splitting hypothesis fails honestly: "
                          + "; ".join(rep["details"])])
    return rep


def _mirror_composition(fib, cutoff):
    try:
        rev = mirror(fib, cutoff)
    except NotInvertible as exc:
        return check([str(exc)])
    comp, rep = compose(fib, rev, cutoff)
    if rep["status"] == "fail":
        return rep
    # the whole operator, not only rho: a mirror wrong on classes other
    # than [M] (odd ones, say) leaves rho the unit
    op = comp.psi_operator(cutoff, comp.normalized_offset())
    i = op.moved()
    if i is not None:
        return check(rep["details"] + [
            f"loop composed with its reverse sends {op.model.labels[i]} to "
            f"{op.images[i]!r}, not to itself"
        ])
    rep["details"].append("reverse loop cancels")
    return rep


# suite -> ((check, what its body takes, body(that, cutoff)), ...), run in
# order. A body takes the fiber ring of either target ("ring"), the target
# itself, a fibration or a (model, table) pair ("target"), or a fibration
# only ("fibration"); a pair leaves the last out. Bodies look methods and
# public functions up when called, so the wrappers bench/tracer.py installs
# see every call. A body returning None does not apply.
_CHECKS = {
    "structure": (
        ("fibration-structure", "fibration", lambda fib, c: fib.structure_report()),
        ("nondegenerate-pairing", "target", _nondegenerate_pairing),
    ),
    "assoc": (
        ("fiber-associativity", "ring", lambda ring, c: ring.associativity_report(c)),
        ("fiber-four-point-splitting", "ring", lambda ring, c: ring.assoc1_report()),
        ("vertical-associativity", "fibration",
         lambda fib, c: fib.vertical_ring.associativity_report(c)),
    ),
    "gw-axioms": (
        ("fiber-axioms", "ring", lambda ring, c: ring.axioms_report()),
        ("fiber-energy-positive-closure", "ring",
         lambda ring, c: ring.qh_plus_closure_report(c)),
        ("vertical-axioms", "fibration", lambda fib, c: fib.vertical_ring.axioms_report()),
        ("section-divisor", "fibration", lambda fib, c: fib.section_divisor_report()),
    ),
    "vertical": (
        ("vertical-products", "fibration", lambda fib, c: fib.vertical_report(c)),
    ),
    "prop-gw": (
        ("vertical-entries", "fibration", lambda fib, c: fib.vertical_table_report()),
        ("product-pattern", "fibration",
         lambda fib, c: verify_product_pattern(fib) if fib.product_structure else None),
    ),
    "module": (
        ("module-identities", "fibration", lambda fib, c: fib.module_report(c)),
        ("seidel-invertible", "fibration", _seidel_invertible),
    ),
    "wang": (("wang-sequence", "fibration", lambda fib, c: fib.wang_report()),),
    "split": (("ring-splitting", "fibration", _ring_splitting),),
    "compose": (("mirror-composition", "fibration", _mirror_composition),),
}
_BODIES = {name: (takes, body) for rows in _CHECKS.values() for name, takes, body in rows}


@kept(copy=lambda rec: rec and copied(rec))
def _record(obj, name, cutoff):
    """Check `name`'s record on obj at the cutoff, None where it does not
    apply, a skip where the data lack. A fibration's data never change, so
    it keeps each record, a skip or None too, and hands out a copy."""
    takes, body = _BODIES[name]
    if takes == "ring":
        obj = obj.fiber_ring if isinstance(obj, FibrationModel) else QuantumRing(*obj)
    try:
        return body(obj, cutoff)
    except (TableIncomplete, MissingInput, MissingTripleData) as exc:
        return check([], [str(exc)])


def _run_checks(suite, obj, cutoff) -> dict:
    """One suite's records in table order: a fibration's kept ones (a copy
    each call), a pair's built anew on every call."""
    fibration = isinstance(obj, FibrationModel)
    names = [name for name, takes, _ in _CHECKS[suite] if fibration or takes != "fibration"]
    if not names:
        raise QhfibError(f"suite {suite!r} needs a fibration, not a bare ring")
    record = _record if fibration else _record.kept
    return {name: rec for name in names if (rec := record(obj, name, cutoff)) is not None}


# suite -> callable (target, cutoff) -> {check: record}. run_suite calls
# through this dict, and bench/tracer.py wraps its entries to time each
# suite as validator.<suite>.
_SUITES = {suite: functools.partial(_run_checks, suite) for suite in _CHECKS}

RING_SUITES = tuple(s for s, rows in _CHECKS.items() if any(r[1] != "fibration" for r in rows))
NEEDS_CUTOFF = ("assoc", "gw-axioms", "vertical", "module", "split", "compose", "all")
SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(obj, suite: str, cutoff) -> VerificationReport:
    """obj is a FibrationModel or a (ManifoldModel, GWTable) pair."""
    if suite not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {suite!r}; have {', '.join(SUITE_NAMES)}")
    if cutoff is None and suite in NEEDS_CUTOFF:
        raise QhfibError(f"suite {suite!r} multiplies classes and needs a cutoff")
    cutoff = None if cutoff is None else _exact(cutoff)
    fibration = isinstance(obj, FibrationModel)
    target = obj.name if fibration else obj[0].name
    report = VerificationReport(target=target, suite=suite, cutoff=cutoff)
    if suite != "all":
        names = [suite]
    else:
        names = list(_SUITES) if fibration else RING_SUITES
    for name in names:
        report.checks.update(_SUITES[name](obj, cutoff))
    return report
