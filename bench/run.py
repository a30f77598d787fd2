"""qhfib benchmark: one seeded workload, timed, checked, one JSON line out.

    python3 bench/run.py --workload verify-builtins --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src and the models from ./fixtures. With --trace 0 the run is timed and
prints the end-to-end metrics, its times scaled to a fixed machine speed
by a reference kernel timed after every op (see `Speed`); with
--trace 1 it runs a fixed seeded list of operations once plain and once
traced, and prints the per-layer metrics. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}. Oracle mismatches go to
stderr and count as failed operations; they never stop the run.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")
BUILTIN_METRICS = (("ruled", "ruled"), ("qtp", "quantum-trivial-product"),
                   ("rotation", "sphere-rotation"), ("product", "sphere-product"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The reference kernel's median time on the machine the benchmark was sized
# on (2-core Intel Xeon VM, Python 3.11.7). Times are reported at the speed
# at which the kernel takes REFERENCE_S.
REFERENCE_S = 0.010
# Kernel times on each side of a timed op that give the machine's speed
# around it.
WINDOW = 4
_REF_ROWS = [[Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 4)
              for j in range(8)] for i in range(7)]


def reference():
    """Seconds taken by a fixed Fraction elimination, the kind of work the
    program does most, run in the benchmark's own code. It slows down with
    the machine but never with a change to the program."""
    t0 = time.perf_counter()
    for _ in range(6):
        rows = [row[:] for row in _REF_ROWS]
        for c in range(len(rows)):
            pivot = rows[c][c]
            rows[c] = [x / pivot for x in rows[c]]
            for r in range(len(rows)):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return time.perf_counter() - t0


class Speed:
    """The reference kernel's times over a run, in order. Each timed op is
    followed by one, and the op's time is scaled by REFERENCE_S over the
    median of the `WINDOW` kernel times on either side of it: what the op
    would have taken while the kernel took REFERENCE_S."""

    def __init__(self):
        self.refs = []

    def mark(self):
        """Time the kernel once; returns the mark of the op just timed."""
        self.refs.append(reference())
        return len(self.refs) - 1

    def scale(self, dt, mark):
        window = self.refs[max(0, mark - WINDOW):mark + WINDOW + 1]
        return dt * REFERENCE_S / statistics.median(window)


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _qhfib_modules():
    return [n for n in sys.modules if n == "qhfib" or n.startswith("qhfib.")]


def fresh_import():
    """Import qhfib and its layer modules from ./src, dropping any earlier copy."""
    for name in _qhfib_modules():
        del sys.modules[name]
    qh = importlib.import_module("qhfib")
    for layer in tracing.LAYERS:
        importlib.import_module(f"qhfib.{layer}")
    return qh


def set_up(workload_cls, seed):
    """Import, read the goldens, load the models and deal the run's ops from
    the seed: one timed set-up."""
    t0 = time.perf_counter()
    qh = fresh_import()
    goldens = workloads.load_goldens(GOLDENS)
    work = workload_cls(qh, ROOT, random.Random(f"{workload_cls.name}:{seed}"), goldens)
    work.load()
    work.deal()
    return work, time.perf_counter() - t0


def set_up_again(workload_cls, seed):
    """Time one more, throwaway set-up, then put the live modules back."""
    live = {name: sys.modules[name] for name in _qhfib_modules()}
    _work, dt = set_up(workload_cls, seed)
    for name in _qhfib_modules():
        del sys.modules[name]
    sys.modules.update(live)
    gc.collect()  # the dropped copy is cyclic garbage; free it before it adds to peak RSS
    return dt


class Tally:
    def __init__(self, speed=None):
        self.attempted = 0
        self.failed = 0
        self.samples = {}  # op kind -> [seconds]
        self.speed = speed  # if given, each op is marked on it
        self.marks = {}  # op kind -> [mark on `speed`]

    def run(self, ops, tracer=None):
        """Run operations one after another; returns their summed time.
        A tracer, if given, is installed around each call but not its check."""
        total = 0.0
        for kind, call, check in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # an unexpected exception is a failed op
                result = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            if isinstance(result, Exception):
                problem = f"{kind}: {type(result).__name__}: {result}"
                traceback.print_exception(result)
            else:
                problem = check(result)
            total += dt
            if self.speed is not None:
                self.marks.setdefault(kind, []).append(self.speed.mark())
            self.samples.setdefault(kind, []).append(dt)
            if problem:
                self.failed += 1
                print(f"MISMATCH {problem}", file=sys.stderr)
        return total

    def scaled(self):
        return {kind: [self.speed.scale(dt, mark) for dt, mark in zip(ts, self.marks[kind])]
                for kind, ts in self.samples.items()}


def priced(samples, group=None):
    """Every op of the group (all ops when None), each priced at the median
    time of its kind in this run. A kind names one exact piece of work,
    repeated once per round, so its median is that work at the run's usual
    machine load, and work that differs is never priced together. A group
    is a kind's leading `:`-separated fields."""
    out = []
    for kind, ts in samples.items():
        if group is None or kind == group or kind.startswith(group + ":"):
            out.extend([statistics.median(ts)] * len(ts))
    return out


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed(work, seconds, seed, first_setup):
    """Closed loop of whole rounds, each followed by its probe ops and
    `work.repeats` more set-ups, until `seconds` have passed."""
    speed = Speed()
    setups = [(first_setup, speed.mark())]
    own, probes = Tally(speed), Tally(speed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        own.run(work.round())
        probes.run(work.probes())
        for _ in range(work.repeats):
            setups.append((set_up_again(type(work), seed), speed.mark()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return own, probes, setups, speed, rss_mb


def end_to_end(work, seconds, seed, first_setup):
    own, probes, setups, speed, rss_mb = timed(work, seconds, seed, first_setup)
    # every builtin's verify --json is hash-checked at least once per run
    checked = {kind for kind in probes.samples if kind.startswith("golden:")}
    probes.run([op for op in workloads.golden_ops(work.qh, work.goldens) if op[0] not in checked])

    # every time below is scaled to the speed at which the reference takes REFERENCE_S
    rounds = own.scaled()
    samples = {**rounds, **probes.scaled()}  # probe kinds never occur in a round
    ops = priced(rounds)
    setup = [speed.scale(dt, mark) for dt, mark in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (len(ops) / sum(ops), "1/s", len(ops)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "op_p50_s": (statistics.median(ops), "s", len(ops)),
        "op_p90_s": (p90(ops), "s", len(ops)),
    }
    groups = [(f"verify_{short}_s", f"{work.verify_kind}:{name}")
              for short, name in BUILTIN_METRICS]
    groups += [("rho_s", "rho"), ("compose_mirror_s", "compose_mirror")]
    for metric, group in groups:
        ts = priced(samples, group)
        metrics[metric] = (statistics.median(ts), "s", len(ts))
    extra = {"rounds": (len(setups) - 1) // work.repeats, "reference_runs": len(speed.refs),
             "reference_median_s": statistics.median(speed.refs)}
    return own, probes, metrics, extra


def traced(work):
    """A fixed op list, each op run plain and then traced, back to back, so
    both see the same machine load. Each side has its own freshly loaded
    models, the traced side's loaded under the trace, so neither inherits
    the other's warm state."""
    qh = work.qh
    ops = [op for _ in range(work.trace_rounds) for op in work.round()]
    tr = tracing.Tracer(qh, qh.TableIncomplete)
    work.load()
    plain_models = work.models
    tr.install()
    try:
        work.load()
    finally:
        tr.uninstall()
    traced_models = work.models
    tally, plain, traced_s = Tally(), 0.0, 0.0
    for index, op in enumerate(ops):
        work.models = plain_models
        plain += tally.run([op])
        work.models = traced_models
        tr.op = index
        traced_s += tally.run([op], tr)
    tr.op = -1
    goldens = Tally()
    goldens.run(workloads.golden_ops(qh, work.goldens))
    overhead = (traced_s - plain) / plain
    metrics = {name: (value, unit, 1)
               for name, (value, unit) in tracing.per_layer_metrics(tr).items()}
    metrics[tracing.OVERHEAD[0]] = (overhead, tracing.OVERHEAD[1], 1)
    extra = {"ops": len(ops), "spans": len(tr.spans), "plain_s": plain,
             "traced_s": traced_s, "trace_overhead_frac": overhead}
    return tally, goldens, metrics, extra, tr


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qhfib", "__init__.py")):
        fail(f"no qhfib sources under {src}")
    missing = [n for n in oracles.BUILTINS
               if not os.path.isfile(os.path.join(ROOT, "fixtures", n + ".json"))]
    if missing:
        fail(f"missing fixtures: {missing}")
    sys.path.insert(0, src)

    work, first_setup = set_up(workloads.WORKLOADS[args.workload], args.seed)
    if not work.qh.__file__.startswith(src + os.sep):
        fail(f"qhfib imported from {work.qh.__file__}, not from this checkout")

    tr = None
    if args.trace:
        main_tally, closing, metrics, extra, tr = traced(work)
    else:
        main_tally, closing, metrics, extra = end_to_end(work, args.seconds, args.seed, first_setup)
    attempted = main_tally.attempted + closing.attempted
    failed = main_tally.failed + closing.failed

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "attempted": attempted, "failed": failed,
        "samples": {name: n for name, (_v, _u, n) in metrics.items()}, **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "metrics": {k: v[:2] for k, v in metrics.items()},
                   "samples": {**main_tally.samples, **closing.samples}}, fh, indent=1)
    if tr is not None:
        tr.write_spans(stem + "-spans.tsv")

    for name, (value, unit, n) in metrics.items():
        print(f"{name:36s} {value:>14.6g} {unit:6s} n={n}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
