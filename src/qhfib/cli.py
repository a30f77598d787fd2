"""Command line interface.

Targets come either from a fixture file (--fixture path.json) or from the
builtin catalog (--builtin name, parameters via --param k=v). Commands that
multiply or apply operators need an energy cutoff >= 0: --cutoff, falling
back to the QHFIB_CUTOFF environment variable.

Exit codes: 0 success, 1 a verification failed or an element is not
invertible, 2 usage or data errors, 3 the stored tables cannot answer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog, fixtures
from .errors import NotInvertible, QhfibError, TableIncomplete
from .fibration import FibrationModel, compose, mirror
from .novikov import format_rational, parse_rational
from .quantum import QuantumRing
from .splitting import ring_split_check
from .validator import NEEDS_CUTOFF, SUITE_NAMES, run_suite


_CLASS_HELP = ("class expression, e.g. 'F@e^{-F}+2*T-'; "
               "put '--' before one that starts with '-'")


def _command(sub, name, fn, help, cutoff=True) -> argparse.ArgumentParser:
    """The subcommand that runs fn on a --fixture or --builtin target,
    with --cutoff when cutoff is true."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--fixture", metavar="FILE", help="fixture JSON file")
    p.add_argument("--builtin", metavar="NAME",
                   help="builtin model (%s)" % ", ".join(sorted(catalog.BUILTIN_FIBRATIONS)))
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="builtin parameter, e.g. kappa=1/2 (repeatable)")
    if cutoff:
        p.add_argument("--cutoff", metavar="Q",
                       help="energy cutoff (rational); default from QHFIB_CUTOFF")
    p.set_defaults(fn=fn)
    return p


def _build(name, param_items):
    """A builtin model from its name and the --param K=V items."""
    params = {}
    for item in param_items:
        if "=" not in item:
            raise QhfibError(f"--param wants K=V, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = v
    try:
        return catalog.build(name, **params)
    except KeyError as exc:
        raise QhfibError(exc.args[0]) from exc


def _load(args):
    if bool(args.fixture) == bool(args.builtin):
        raise QhfibError("give exactly one of --fixture or --builtin")
    if args.fixture:
        return fixtures.load(args.fixture)
    return _build(args.builtin, args.param)


def _fibration(obj) -> FibrationModel:
    if not isinstance(obj, FibrationModel):
        raise QhfibError("this command needs a fibration fixture")
    return obj


def _cutoff(args, required=True):
    raw = args.cutoff if args.cutoff is not None else os.environ.get("QHFIB_CUTOFF")
    if raw is None:
        if required:
            raise QhfibError("an energy cutoff is required: --cutoff or QHFIB_CUTOFF")
        return None
    cutoff = parse_rational(raw)
    if cutoff < 0:
        raise QhfibError(f"the energy cutoff must be >= 0, got {format_rational(cutoff)}")
    return cutoff


# -- commands -------------------------------------------------------------


def cmd_product(args) -> int:
    obj = _load(args)
    cutoff = _cutoff(args)
    if isinstance(obj, FibrationModel):
        fib = obj
        if args.space == "fiber":
            model, mul = fib.fiber, fib.fiber_ring.product
        elif args.space == "vertical":
            model, mul = fib.total, fib.vertical_product
        else:
            model, mul = fib.total, fib.horizontal_product
    else:
        model, table = obj
        if args.space != "fiber":
            raise QhfibError("ring fixtures only have the fiber product")
        mul = QuantumRing(model, table).product
    a, b = (fixtures.parse_qh(model, x) for x in (args.a, args.b))
    print(fixtures.format_qh(mul(a, b, cutoff)))
    return 0


def cmd_psi(args) -> int:
    fib = _fibration(_load(args))
    cutoff = _cutoff(args)
    sigma = fib.sigma_phi() if args.normalized else fib.sigma_ref
    if args.offset:
        sigma = sigma + fixtures.parse_lin(fib.total.h2, args.offset)
    op = fib.psi_operator(cutoff, sigma=sigma)
    print(fixtures.format_qh(op.apply(fixtures.parse_qh(fib.fiber, args.a))))
    return 0


def cmd_rho(args) -> int:
    fib = _fibration(_load(args))
    cutoff = _cutoff(args)
    rho = fib.rho(cutoff)
    print(f"rho = {fixtures.format_qh(rho)}")
    print(f"rho^-1 = {fixtures.format_qh(fib.rho_inverse(cutoff))}")
    shape = fib.rho_shape(cutoff)
    if shape["monomial"]:
        print(f"monomial: coefficient {format_rational(shape['coefficient'])}, "
              f"class {shape['label']}, exponent {fixtures.format_lin(shape['exponent'])}")
    else:
        print("monomial: no")
    return 0


def cmd_invariants(args) -> int:
    fib = _fibration(_load(args))
    ic, modulus = fib.invariant_Ic()
    if modulus:
        print(f"Ic = {ic} (mod {modulus})")
    else:
        print(f"Ic = {format_rational(ic)} (no finite modulus)")
    iu = fib.invariant_Iu()
    if iu:
        inner = ", ".join(f"{g}: {format_rational(v)}" for g, v in sorted(iu.items()))
        print(f"Iu = {{{inner}}}")
    else:
        print("Iu = {} (every generator is spherical)")
    # each invariant printed as it is computed: one that raises leaves the
    # lines before it on stdout
    for k in range(fib.fiber.n + 2):
        print(f"I_{k} = {format_rational(fib.invariant_Ik(k))}")
    return 0


def cmd_split(args) -> int:
    fib = _fibration(_load(args))
    cutoff = _cutoff(args)
    rep = ring_split_check(fib, cutoff)
    if rep["status"] == "skip":
        print("splitting hypothesis fails: the fiber carries invariants")
        for line in rep["details"]:
            print(f"  {line}")
        return 1
    for line in rep["details"]:
        print(line)
    ok = rep["status"] == "pass"
    print("ring splits" if ok else "ring does not split as claimed")
    return 0 if ok else 1


def cmd_nonsqueeze(args) -> int:
    fib = _fibration(_load(args))
    res = fib.nonsqueezing()
    print(f"table complete through area {format_rational(res.window)}")
    if res.bound is None:
        print(f"no bound: {res.detail}")
    else:
        print(f"capacity bound = {format_rational(res.bound)} ({res.detail})")
    return 0


def cmd_verify(args) -> int:
    obj = _load(args)
    cutoff = _cutoff(args, required=args.suite in NEEDS_CUTOFF)
    report = run_suite(obj, args.suite, cutoff)
    skipped = [name for name, c in report.checks.items() if c["status"] == "skip"]
    if args.json:
        print(report.to_json())
    else:
        for name, c in report.checks.items():
            print(f"{name}: {c['status']}")
            for line in c["details"]:
                print(f"  {line}")
        print(f"suite {args.suite}: {'ok' if report.ok else 'FAILED'}")
        if args.strict and skipped:
            print(f"strict: skipped {', '.join(skipped)}")
    return 0 if report.ok and not (args.strict and skipped) else 1


def cmd_compose(args) -> int:
    fib = _fibration(_load(args))
    cutoff = _cutoff(args)
    if args.mirror:
        other = mirror(fib, cutoff)
    elif args.with_:
        other = fixtures.load(args.with_)
        if not isinstance(other, FibrationModel):
            raise QhfibError("--with must name a fibration fixture")
    else:
        raise QhfibError("give --with FILE or --mirror")
    comp, rep = compose(fib, other, cutoff)
    for line in rep["details"]:
        print(line)
    ok = rep["status"] == "pass"
    try:
        rho = comp.rho(cutoff)
        print(f"rho(composite) = {fixtures.format_qh(rho)}")
    except NotInvertible as exc:
        print(f"rho(composite): {exc}")
        ok = False
    return 0 if ok else 1


def cmd_fixture(args) -> int:
    obj = _build(args.name, args.param)
    if args.out:
        fixtures.save(obj, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(fixtures.to_dict(obj), indent=2, sort_keys=True))
    return 0


@functools.cache  # built once: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qhfib",
        description="quantum homology of fibrations over the sphere, exactly",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "product", cmd_product, "multiply two classes")
    sp.add_argument("--space", choices=("fiber", "vertical", "horizontal"),
                    default="fiber")
    sp.add_argument("a", help=_CLASS_HELP)
    sp.add_argument("b", help=_CLASS_HELP)

    sp = _command(sub, "psi", cmd_psi, "apply the loop operator")
    sp.add_argument("--offset", metavar="LIN",
                    help="add a lattice offset to the section class")
    sp.add_argument("--normalized", action="store_true",
                    help="use the normalized section class")
    sp.add_argument("a", help=_CLASS_HELP)

    _command(sub, "rho", cmd_rho, "the Seidel element and its inverse")
    _command(sub, "invariants", cmd_invariants, "loop invariants Ic, Iu, I_k", cutoff=False)
    _command(sub, "split", cmd_split, "test the ring-splitting criteria")
    _command(sub, "nonsqueeze", cmd_nonsqueeze, "capacity bound from section counts",
             cutoff=False)

    sp = _command(sub, "verify", cmd_verify, "run a verification suite")
    sp.add_argument("--suite", choices=SUITE_NAMES, default="all")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--strict", action="store_true", help="exit 1 if any check is skipped")

    sp = _command(sub, "compose", cmd_compose, "glue two loops")
    sp.add_argument("--with", dest="with_", metavar="FILE")
    sp.add_argument("--mirror", action="store_true",
                    help="compose with the reversed loop")

    sp = sub.add_parser("fixture", help="write a builtin model as JSON")
    sp.add_argument("name")
    sp.add_argument("--param", action="append", default=[], metavar="K=V")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_fixture)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TableIncomplete as exc:
        print(f"incomplete data: {exc}", file=sys.stderr)
        return 3
    except NotInvertible as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (QhfibError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
