"""Verification suites.

A suite runs a family of structural checks against a fibration (or, for the
purely ring-level suites, a bare manifold model with its invariant table)
and stores each check as the record {"status": pass|fail|skip, "details"}
that every report returns. Skips flag data the tables genuinely cannot
answer; they are never failures. A report method raises TableIncomplete
when a whole check lacks data, and _guard records that as a skip. Reports
serialize to stable JSON so runs can be diffed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegeneratePairing,
    Inconsistent,
    NotInvertible,
    QhfibError,
    TableIncomplete,
    UnknownSuite,
)
from .fibration import FibrationModel, compose, mirror
from .novikov import format_rational
from .quantum import QuantumRing, check
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
            "checks": {
                name: {"status": c["status"], "details": list(c["details"])}
                for name, c in self.checks.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _guard(fn):
    """Run a check body, translating incomplete data into a skip."""
    try:
        return fn()
    except TableIncomplete as exc:
        return check([], [str(exc)])


def _ring_of(obj):
    if isinstance(obj, FibrationModel):
        return obj.fiber_ring
    model, table = obj
    return QuantumRing(model, table)


def _suite_structure(obj, cutoff):
    checks = {}
    if isinstance(obj, FibrationModel):
        checks["fibration-structure"] = obj.structure_report()
        model, table = obj.fiber, obj.fiber_gw
    else:
        model, table = obj

    def body():
        try:
            model.dual_basis()
            if isinstance(obj, FibrationModel):
                obj.total.dual_basis()
        except DegeneratePairing as exc:
            return check([str(exc)])
        return check([])

    checks["nondegenerate-pairing"] = _guard(body)
    return checks


def _suite_assoc(obj, cutoff):
    ring = _ring_of(obj)
    checks = {
        "fiber-associativity": _guard(lambda: ring.associativity_report(cutoff)),
        "fiber-four-point-splitting": _guard(ring.assoc1_report),
    }
    if isinstance(obj, FibrationModel):
        vring = obj.vertical_ring
        checks["vertical-associativity"] = _guard(
            lambda: vring.associativity_report(cutoff)
        )
    return checks


def _suite_gw_axioms(obj, cutoff):
    ring = _ring_of(obj)
    checks = {
        "fiber-axioms": _guard(ring.axioms_report),
        "fiber-energy-positive-closure": _guard(
            lambda: ring.qh_plus_closure_report(cutoff)
        ),
    }
    if isinstance(obj, FibrationModel):
        vring = obj.vertical_ring
        checks["vertical-axioms"] = _guard(vring.axioms_report)
        checks["section-divisor"] = _guard(obj.section_divisor_report)
    return checks


def _need_fibration(obj, suite):
    if not isinstance(obj, FibrationModel):
        raise QhfibError(f"suite {suite!r} needs a fibration, not a bare ring")


def _suite_vertical(obj, cutoff):
    _need_fibration(obj, "vertical")
    return {"vertical-products": _guard(lambda: obj.vertical_report(cutoff))}


def _suite_prop_gw(obj, cutoff):
    _need_fibration(obj, "prop-gw")
    checks = {"vertical-entries": _guard(obj.vertical_table_report)}
    if obj.product_structure:
        checks["product-pattern"] = _guard(lambda: verify_product_pattern(obj))
    return checks


def _suite_module(obj, cutoff):
    _need_fibration(obj, "module")
    checks = {"module-identities": _guard(lambda: obj.module_report(cutoff))}

    def invertible():
        try:
            obj.rho(cutoff)
        except (NotInvertible, Inconsistent) as exc:
            return check([str(exc)])
        return check([])

    checks["seidel-invertible"] = _guard(invertible)
    return checks


def _suite_wang(obj, cutoff):
    _need_fibration(obj, "wang")
    return {"wang-sequence": _guard(obj.wang_report)}


def _suite_split(obj, cutoff):
    _need_fibration(obj, "split")

    def body():
        rep = ring_split_check(obj, cutoff)
        if rep["status"] == "skip":
            return check([], ["splitting hypothesis fails honestly: "
                              + "; ".join(rep["details"])])
        return rep

    return {"ring-splitting": _guard(body)}


def _suite_compose(obj, cutoff):
    _need_fibration(obj, "compose")

    def body():
        try:
            rev = mirror(obj, cutoff)
        except NotInvertible as exc:
            return check([str(exc)])
        comp, rep = compose(obj, rev, cutoff)
        if rep["status"] == "fail":
            return rep
        # the whole operator, not only rho: a mirror wrong on classes other
        # than [M] (odd ones, say) leaves rho the unit
        op = comp.psi_operator(cutoff, comp.normalized_offset())
        if not op.is_identity():
            try:
                rho = comp.rho(cutoff)
            except NotInvertible as exc:
                return check(rep["details"] + [str(exc)])
            if rho.truncate(cutoff) != _ring_of(obj).unit().truncate(cutoff):
                return check(rep["details"] + [
                    f"loop composed with its reverse acts by {rho!r}, not the unit"
                ])
            m, c = op.model, op.cutoff
            i = next(i for i, img in enumerate(op.images)
                     if img.truncate(c) != m.qh_basis(m.labels[i]).truncate(c))
            return check(rep["details"] + [
                f"loop composed with its reverse sends {m.labels[i]} to "
                f"{op.images[i]!r}, not to itself"
            ])
        rep["details"].append("reverse loop cancels")
        return rep

    return {"mirror-composition": _guard(body)}


_SUITES = {
    "structure": _suite_structure,
    "assoc": _suite_assoc,
    "gw-axioms": _suite_gw_axioms,
    "vertical": _suite_vertical,
    "prop-gw": _suite_prop_gw,
    "module": _suite_module,
    "wang": _suite_wang,
    "split": _suite_split,
    "compose": _suite_compose,
}

RING_SUITES = ("structure", "assoc", "gw-axioms")
NEEDS_CUTOFF = ("assoc", "gw-axioms", "vertical", "module", "split", "compose", "all")
SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(obj, suite: str, cutoff) -> VerificationReport:
    """obj is a FibrationModel or a (ManifoldModel, GWTable) pair."""
    if suite not in SUITE_NAMES:
        raise UnknownSuite(
            f"unknown suite {suite!r}; have {', '.join(SUITE_NAMES)}"
        )
    if cutoff is None and suite in NEEDS_CUTOFF:
        raise QhfibError(f"suite {suite!r} multiplies classes and needs a cutoff")
    cutoff = None if cutoff is None else Fraction(cutoff)
    if isinstance(obj, FibrationModel):
        target = obj.name
    else:
        target = obj[0].name
    report = VerificationReport(target=target, suite=suite, cutoff=cutoff)
    names = list(_SUITES) if suite == "all" else [suite]
    for name in names:
        if suite == "all" and not isinstance(obj, FibrationModel) \
                and name not in RING_SUITES:
            continue
        for check, result in _SUITES[name](obj, cutoff).items():
            report.checks[check] = result
    return report
