"""The three workloads: seeded rounds of operations, each with its oracle.

A workload is driven by one caller in a closed loop. At set-up, `deal()`
draws the run's deck of operations from the seed, and each `round()` is the
whole deck in a fresh seeded order, so every kind of operation is timed once
per round. An operation is `(kind, call, check)`, where the kind names the
exact work, `call` does the timed work and `check(result)` returns None or a
mismatch message. Every workload loads its models in `load()`, which runs
during set-up, and again, fresh, for each side of a traced run.
"""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import oracles

CUTOFF = Fraction(6)
CUTOFFS = ("2", "4", "6", "12", "24")
KAPPAS = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/4")
TABLES = ("fiber_gw", "vertical_gw", "section_gw")
ARITIES = ("two_point", "three_point", "four_point_chi")
# Mutation sites dealt per builtin for one mutation-sweep run (None: all of
# them). Verdict times differ from site to site, by up to half on ruled, so
# a builtin's median depends on which sites the seed deals; the more sites,
# the less it does. The cheap sphere verdicts all go in; ruled and
# quantum-trivial-product get as many as leave two rounds in a 30-s run.
SITES_DEALT = {"ruled": 4, "quantum-trivial-product": 5, "sphere-rotation": None,
               "sphere-product": None}


def run_cli(qh, argv):
    """`qhfib <argv>` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qh.cli.main(argv)
    return rc, out.getvalue()


class Workload:
    trace_rounds = 1
    # Times per round that the timed loop runs its set-up again and, on the
    # verify-type workloads, its rho and compose --mirror probes. Short ops
    # vary most from moment to moment, so a workload with few rounds takes
    # more of them each round.
    repeats = 3

    def __init__(self, qh, root, rng, goldens):
        self.qh, self.root, self.rng, self.goldens = qh, root, rng, goldens

    def deal(self):
        """Draw this run's deck of operations from the seed, once, after `load()`."""
        raise NotImplementedError

    def round(self):
        """The whole deck, in a fresh seeded order."""
        ops = list(self.deck)
        self.rng.shuffle(ops)
        return ops

    def load_fixtures(self):
        return {
            name: self.qh.fixtures.load(os.path.join(self.root, "fixtures", name + ".json"))
            for name in oracles.BUILTINS
        }


class VerifyBuiltins(Workload):
    """run_suite(model, "all", 6) on the four shipped fibrations, reusing the
    models loaded at set-up; one round verifies each builtin once."""

    name = "verify-builtins"
    trace_rounds = 2
    verify_kind = "verify"  # the op group that gives verify_<builtin>_s

    def load(self):
        self.models = self.load_fixtures()

    def _op(self, name):
        def call():
            return self.qh.run_suite(self.models[name], "all", CUTOFF)

        return f"verify:{name}", call, lambda report: oracles.verify_mismatch(name, report)

    def deal(self):
        self.deck = [self._op(name) for name in oracles.BUILTINS]

    def probes(self):
        return reference_loop_ops(self.qh, self.repeats)


class MutationSweep(Workload):
    """Acceptance criterion 6 as a workload: add 1 to one stored count, go
    through JSON and back, and the full suite must notice. The seed deals the
    run's deck of mutation sites, `SITES_DEALT` of each builtin, without
    repetition; each round runs the whole deck in a fresh seeded order."""

    name = "mutation-sweep"
    verify_kind = "mutate"
    repeats = 6

    def load(self):
        self.models = self.load_fixtures()
        self.sites = {}
        for name, model in self.models.items():
            d = self.qh.fixtures.to_dict(model)
            self.sites[name] = [
                (table, arity, pos)
                for table in TABLES for arity in ARITIES
                for pos in range(len(d[table].get(arity, ())))
            ]

    def deal(self):
        self.deck = [self._op(name, site)
                     for name in oracles.BUILTINS
                     for site in self.rng.sample(self.sites[name],
                                                 SITES_DEALT[name] or len(self.sites[name]))]

    def _op(self, name, site):
        table, arity, pos = site

        def call():
            d = self.qh.fixtures.to_dict(self.models[name])
            entry = d[table][arity][pos]
            entry[2] = str(Fraction(entry[2]) + 1)
            try:
                return not self.qh.run_suite(self.qh.fixtures.from_dict(d), "all", CUTOFF).ok
            except self.qh.QhfibError:
                return True

        def check(detected):
            return None if detected else f"undetected mutation: {name} {table} {arity} {pos}"

        return f"mutate:{name}:{table}.{arity}.{pos}", call, check

    def probes(self):
        return reference_loop_ops(self.qh, self.repeats)


# -- loop-ops ---------------------------------------------------------------------


def _lines(out):
    return out.rstrip("\n").split("\n")


def _all_pass(lines):
    bad = [ln for ln in lines if ln.split(": ", 1)[-1].split(" ", 1)[0] != "pass"]
    return f"checks not passing: {bad}" if bad else None


def _parsed(text, labels, want, what):
    try:
        got = oracles.parse_qh(text, labels)
    except ValueError as exc:
        return f"{what}: {exc}"
    return None if got == want else f"{what}: got {text!r}, want {want}"


def check_rho(qh, kappa, cutoff):
    def check(res):
        rc, out = res
        lines = _lines(out)
        if rc != 0 or len(lines) != 3:
            return f"rho kappa={kappa}: exit {rc}, output {out!r}"
        head, inv_head = "rho = ", "rho^-1 = "
        if not (lines[0].startswith(head) and lines[1].startswith(inv_head)):
            return f"rho kappa={kappa}: output {out!r}"
        rho, rho_inv = lines[0][len(head):], lines[1][len(inv_head):]
        k = Fraction(kappa)
        bad = _parsed(rho, oracles.FIBER_LABELS, oracles.rho(k), f"rho kappa={kappa}")
        bad = bad or _parsed(rho_inv, oracles.FIBER_LABELS, oracles.rho_inverse(k),
                             f"rho^-1 kappa={kappa}")
        if bad:
            return bad
        mono = "monomial: coefficient 1, class T-, exponent "
        if not lines[2].startswith(mono) or \
                oracles.parse_lin(lines[2][len(mono):]) != oracles.exp_f(oracles.delta(k)):
            return f"rho kappa={kappa}: {lines[2]!r}"
        # the program's own product of its two answers must be the unit
        rc, out = run_cli(qh, ["product"] + ruled(kappa, cutoff) + [rho, rho_inv])
        if rc != 0:
            return f"rho * rho^-1 kappa={kappa} cutoff={cutoff}: exit {rc}"
        return _parsed(out.strip(), oracles.FIBER_LABELS, oracles.UNIT,
                       f"rho * rho^-1 kappa={kappa} cutoff={cutoff}")

    return check


def check_compose(res):
    rc, out = res
    lines = _lines(out)
    if rc != 0 or lines[-1] != "rho(composite) = 1":
        return f"compose --mirror: exit {rc}, output {out!r}"
    return _all_pass(lines[:-1])


def check_qh(want, labels, what):
    def check(res):
        rc, out = res
        if rc != 0:
            return f"{what}: exit {rc}"
        return _parsed(out.strip(), labels, want, what)

    return check


def check_invariants(kappa):
    want = oracles.invariants(Fraction(kappa))

    def check(res):
        rc, out = res
        lines = _lines(out)
        if rc != 0 or len(lines) != len(want):
            return f"invariants kappa={kappa}: exit {rc}, output {out!r}"
        for line, (key, value) in zip(lines, want):
            name, _, text = line.partition(" = ")
            if name != key:
                return f"invariants kappa={kappa}: {line!r}"
            if key == "Iu":
                inner = text.strip("{}")
                got = {g: Fraction(v) for g, v in (p.split(": ") for p in inner.split(", "))}
            elif key == "Ic":
                got = text
            else:
                got = Fraction(text)
            if got != value:
                return f"invariants kappa={kappa}: {line!r}, want {value}"
        return None

    return check


def check_split(res):
    rc, out = res
    lines = _lines(out)
    if rc != 0 or lines[-1] != "ring splits":
        return f"split: exit {rc}, output {out!r}"
    return _all_pass(lines[:-1])


def check_nonsqueeze(res):
    rc, out = res
    lines = _lines(out)
    first, second = oracles.NONSQUEEZE_LINES
    if rc != 0 or len(lines) != 2 or lines[0] != first or not lines[1].startswith(second):
        return f"nonsqueeze: exit {rc}, output {out!r}"
    return None


def ruled(kappa, cutoff=None):
    argv = ["--builtin", "ruled", "--param", f"kappa={kappa}"]
    return argv + (["--cutoff", cutoff] if cutoff else [])


def rho_op(qh, kappa, cutoff):
    argv = ["rho"] + ruled(kappa, cutoff)
    return f"rho:{cutoff}:{kappa}", lambda: run_cli(qh, argv), check_rho(qh, kappa, cutoff)


def compose_op(qh, kappa, cutoff):
    argv = ["compose", "--mirror"] + ruled(kappa, cutoff)
    return f"compose_mirror:{cutoff}:{kappa}", lambda: run_cli(qh, argv), check_compose


class LoopOps(Workload):
    """In-process `qhfib` calls on the ruled loop and on the quantum-trivial
    product. The seed deals the run's deck: every cutoff-taking command once
    at each cutoff, plus invariants, split and nonsqueeze, with kappa and the
    classes multiplied drawn per call. Each round runs the whole deck in a
    fresh seeded order."""

    name = "loop-ops"
    trace_rounds = 2
    verify_kind = "golden"

    def load(self):
        self.models = {}  # every call builds its model from the catalog
        self._golden_ops = {op[0].split(":", 1)[1]: op for op in golden_ops(self.qh, self.goldens)}
        self._golden = -1

    def deal(self):
        qh, rng = self.qh, self.rng
        ops = []
        for c in CUTOFFS:
            ops.append(rho_op(qh, rng.choice(KAPPAS), c))
            ops.append(compose_op(qh, rng.choice(KAPPAS), c))
            for normalized in (False, True):
                kappa, a = rng.choice(KAPPAS), rng.choice(oracles.FIBER_LABELS)
                want = oracles.fiber_product(a, "T-")
                if normalized:
                    want = oracles.shift(want, oracles.delta(Fraction(kappa)))
                flag = ["--normalized"] if normalized else []
                argv = ["psi"] + flag + ruled(kappa, c) + [a]
                what = f"psi{' --normalized' if normalized else ''} kappa={kappa} {a}"
                kind = "psi-normalized" if normalized else "psi"
                ops.append((f"{kind}:{c}:{kappa}:{a}", lambda argv=argv: run_cli(qh, argv),
                            check_qh(want, oracles.FIBER_LABELS, what)))
            kappa = rng.choice(KAPPAS)
            a, b = rng.choice(oracles.FIBER_LABELS), rng.choice(oracles.FIBER_LABELS)
            argv = ["product"] + ruled(kappa, c) + [a, b]
            ops.append((f"product-fiber:{c}:{kappa}:{a}*{b}", lambda argv=argv: run_cli(qh, argv),
                        check_qh(oracles.fiber_product(a, b), oracles.FIBER_LABELS,
                                 f"fiber product {a} {b}")))
            kappa = rng.choice(KAPPAS)
            a, b = rng.choice(oracles.TOTAL_LABELS), rng.choice(oracles.TOTAL_LABELS)
            argv = ["product", "--space", "vertical"] + ruled(kappa, c) + [a, b]
            ops.append((f"product-vertical:{c}:{kappa}:{a}*{b}",
                        lambda argv=argv: run_cli(qh, argv),
                        check_qh(oracles.vertical_product(a, b), oracles.TOTAL_LABELS,
                                 f"vertical product {a} {b}")))
        kappa = rng.choice(KAPPAS)
        argv = ["invariants"] + ruled(kappa)
        ops.append((f"invariants:{kappa}", lambda: run_cli(qh, argv), check_invariants(kappa)))
        cutoff = rng.choice(CUTOFFS)
        split = ["split", "--builtin", "quantum-trivial-product", "--cutoff", cutoff]
        ops.append((f"split:{cutoff}", lambda: run_cli(qh, split), check_split))
        squeeze = ["nonsqueeze", "--builtin", "quantum-trivial-product"]
        ops.append(("nonsqueeze", lambda: run_cli(qh, squeeze), check_nonsqueeze))
        self.deck = ops

    def probes(self):
        """Golden verifies: both cheap sphere builtins every round, and
        `ruled` and `quantum-trivial-product`, which cost more than a whole
        round, in turn."""
        self._golden += 1
        dear = ("ruled", "quantum-trivial-product")[self._golden % 2]
        return [self._golden_ops[name] for name in ("sphere-rotation", "sphere-product", dear)]


WORKLOADS = {w.name: w for w in (VerifyBuiltins, MutationSweep, LoopOps)}


# -- golden and reference ops ------------------------------------------------------


def verify_argv(name):
    return ["verify", "--builtin", name, "--suite", "all", "--cutoff", "6", "--json"]


def golden_ops(qh, goldens):
    """`qhfib verify ... --json` on each builtin, whose output must hash to
    the stored seed golden."""
    ops = []
    for name in oracles.BUILTINS:
        argv = verify_argv(name)

        def check(res, name=name):
            rc, out = res
            digest = hashlib.sha256(out.encode()).hexdigest()
            if rc != 0 or digest != goldens[name]:
                return f"verify --json {name}: exit {rc}, sha256 {digest} != golden {goldens[name]}"
            return None

        ops.append((f"golden:{name}", lambda argv=argv: run_cli(qh, argv), check))
    return ops


def reference_loop_ops(qh, repeats):
    """rho and compose --mirror on ruled(1) at cutoff 6, each `repeats`
    times: they are short next to a verify round, and one call of a few
    tens of ms varies a lot with the moment it runs at."""
    return [rho_op(qh, "1", "6"), compose_op(qh, "1", "6")] * repeats


def load_goldens(path):
    with open(path) as fh:
        return json.load(fh)
