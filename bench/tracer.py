"""Per-layer tracing of qhfib from outside the package.

`Tracer.install()` replaces the public functions and methods of each qhfib
module with wrappers, and rebinds every other name that pointed at the same
function: `from x import f` copies in other modules, the package namespace,
class-level aliases and module-level registries (dicts of functions).
`uninstall()` puts the originals back. Nothing in the package is edited.

Layer-boundary functions become spans: their calls are counted and timed,
and self time is the span's duration minus the part its child spans cover.
Hot per-element functions are only counted, so the tracer's own cost stays
small; their time falls into the self time of the span that called them.
"""

import functools
import inspect
import time

LAYERS = ("cli", "catalog", "fixtures", "validator", "fibration", "splitting",
          "quantum", "manifold", "novikov", "_linalg")

# Value types: their public methods are per-element arithmetic.
VALUE_TYPES = {"novikov.H2Class", "novikov.NovikovElement", "manifold.QHClass"}

# Dunder methods worth counting (everything else with underscores is left alone).
COUNTED_DUNDERS = {"novikov.NovikovElement.__mul__"}

COUNT_ONLY = {
    "novikov.H2Lattice.cls", "novikov.H2Lattice.zero", "novikov.H2Lattice.gen",
    "manifold.koszul_sorted",
    "manifold.ManifoldModel.triple_form", "manifold.ManifoldModel.triple_eval",
    "manifold.ManifoldModel.zero_vector", "manifold.ManifoldModel.basis_vector",
    "manifold.ManifoldModel.degree_of", "manifold.ManifoldModel.label_index",
    "manifold.ManifoldModel.qh", "manifold.ManifoldModel.qh_basis",
    "manifold.ManifoldModel.qh_from_vector", "manifold.ManifoldModel.qh_unit",
    "quantum.GWTable.query", "quantum.GWTable.two", "quantum.GWTable.three",
    "quantum.GWTable.four_chi", "quantum.GWTable.window",
    "_linalg.zeros", "_linalg.identity",
}


class Tracer:
    def __init__(self, package, table_incomplete):
        self.package = package
        self.table_incomplete = table_incomplete
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names = []          # span name by name id
        # (span id, parent span id or -1, op index, name id, start, duration, self time)
        self.spans = []
        self.counts = {}         # name -> call count, for count-only wrappers
        self.query = {"hit": 0, "zero": 0, "incomplete": 0}
        self.rref_cells = 0
        self.op = -1             # index of the benchmark op being run; set by the caller
        self._next_id = 0
        self._stack = []         # [span id, time covered by children] of open spans
        self._undo = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, tracer.op, nid, t0, dur, dur - frame[1]))

        return span

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _query(self, name, fn):
        """Count GWTable.query and classify each answer from outside: stored
        tables drop zeros, so a nonzero answer is a stored hit, a zero is a
        zero by declared completeness, and TableIncomplete is a miss."""
        counts, tally, incomplete = self.counts, self.query, self.table_incomplete
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def query(*args, **kwargs):
            counts[name] += 1
            try:
                value = fn(*args, **kwargs)
            except incomplete:
                tally["incomplete"] += 1
                raise
            tally["hit" if value else "zero"] += 1
            return value

        return query

    def _rref(self, fn):
        tracer = self

        @functools.wraps(fn)
        def rref(a, *args, **kwargs):
            tracer.rref_cells += len(a) * (len(a[0]) if a else 0)
            return fn(a, *args, **kwargs)

        return rref

    def _wrap(self, name, fn):
        if name == "quantum.GWTable.query":
            return self._query(name, fn)
        if name in COUNT_ONLY or name.rsplit(".", 1)[0] in VALUE_TYPES:
            return self._counter(name, fn)
        if name == "_linalg.rref":
            fn = self._rref(fn)
        return self._span(name, fn)

    # -- install / uninstall ---------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, raw object) for everything to wrap."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj):
                    for mattr, raw in list(vars(obj).items()):
                        qual = f"{layer}.{attr}.{mattr}"
                        if mattr.startswith("_") and qual not in COUNTED_DUNDERS:
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                            yield qual, obj, mattr, raw

    def _set(self, owner, attr, new):
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self):
        replaced = {}
        for name, owner, attr, raw in self._targets():
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            replaced[id(raw)] = new
            self._set(owner, attr, new)
            if isinstance(owner, type):  # class-level aliases, e.g. __rmul__ = __mul__
                for other, val in list(vars(owner).items()):
                    if other != attr and val is raw:
                        self._set(owner, other, new)
        # every other binding of a wrapped module-level function
        namespaces = [self.package] + list(self.modules.values())
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                new = replaced.get(id(val))
                if new is not None:
                    self._set(mod, attr, new)
                elif isinstance(val, dict):
                    self._rebind_registry(val, replaced)
        # the verification suites are private but each is a layer boundary
        suites = self.modules["validator"]._SUITES
        for key, fn in list(suites.items()):
            self._undo.append((suites, key, fn))
            suites[key] = self._span(f"validator.{key}", fn)

    def _rebind_registry(self, registry, replaced):
        for key, val in list(registry.items()):
            if isinstance(val, tuple) and any(id(v) in replaced for v in val):
                new = tuple(replaced.get(id(v), v) for v in val)
            else:
                new = replaced.get(id(val))
            if new is not None:
                self._undo.append((registry, key, val))
                registry[key] = new

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def aggregate(self):
        """{name: [calls, inclusive s, self s]} over spans and counters."""
        agg = {name: [n, 0.0, 0.0] for name, n in self.counts.items()}
        for _sid, _parent, _op, nid, _start, dur, own in self.spans:
            row = agg.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
        return agg

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tduration_s\tself_s\n")
            t0 = min((sp[4] for sp in self.spans), default=0.0)
            for sid, parent, op, nid, start, dur, own in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[nid]}\t"
                         f"{start - t0:.9f}\t{dur:.9f}\t{own:.9f}\n")


# -- per-layer metrics -----------------------------------------------------------

_SUITES = ("structure", "assoc", "gw-axioms", "vertical", "prop-gw", "module",
           "wang", "split", "compose")


def _calls(*names):
    return lambda agg, t: sum(agg.get(n, (0,))[0] for n in names)


def _incl(*names):
    return lambda agg, t: sum(agg.get(n, (0, 0.0))[1] for n in names)


def _self(*names):
    return lambda agg, t: sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)


def _layer(layer, col):
    prefix = layer + "."
    return lambda agg, t: sum(row[col] for n, row in agg.items() if n.startswith(prefix))


def _hit_ratio(agg, t):
    total = sum(t.query.values())
    return t.query["hit"] / total if total else 0.0


# name, unit, better, value(agg, tracer); overhead is added by the caller.
# Metric names must start with a letter, so layer `_linalg` reports as `linalg`.
PER_LAYER = [
    ("linalg.rref.calls", "count", "lower", _calls("_linalg.rref")),
    ("linalg.rref.cells", "count", "lower", lambda agg, t: t.rref_cells),
    ("linalg.rref.self_s", "s", "lower", _self("_linalg.rref")),
    ("linalg.solve.calls", "count", "lower", _calls("_linalg.solve")),
    ("manifold.cap.calls", "count", "lower", _calls("manifold.ManifoldModel.cap")),
    ("manifold.solve_pairing.calls", "count", "lower",
     _calls("manifold.ManifoldModel.solve_pairing")),
    ("manifold.triple_form.calls", "count", "lower",
     _calls("manifold.ManifoldModel.triple_form")),
    ("manifold.dual_basis.calls", "count", "lower", _calls("manifold.ManifoldModel.dual_basis")),
    ("quantum.product.calls", "count", "lower", _calls("quantum.QuantumRing.product")),
    ("quantum.product.self_s", "s", "lower", _self("quantum.QuantumRing.product")),
    ("quantum.inverse.calls", "count", "lower", _calls("quantum.QuantumRing.inverse_or_none")),
    ("quantum.inverse.self_s", "s", "lower", _self("quantum.QuantumRing.inverse_or_none")),
    ("quantum.query.calls", "count", "lower", _calls("quantum.GWTable.query")),
    ("quantum.query.hit_ratio", "ratio", "higher", _hit_ratio),
    ("quantum.query.zero", "count", "lower", lambda agg, t: t.query["zero"]),
    ("quantum.query.incomplete", "count", "lower", lambda agg, t: t.query["incomplete"]),
    ("quantum.assoc_report.s", "s", "lower", _incl("quantum.QuantumRing.associativity_report")),
    ("quantum.assoc1_report.s", "s", "lower", _incl("quantum.QuantumRing.assoc1_report")),
    ("quantum.axioms_report.s", "s", "lower", _incl("quantum.QuantumRing.axioms_report")),
    ("novikov.cls.calls", "count", "lower", _calls("novikov.H2Lattice.cls")),
    ("novikov.mul.calls", "count", "lower", _calls("novikov.NovikovElement.__mul__")),
    ("novikov.nov_invert.calls", "count", "lower", _calls("novikov.nov_invert")),
    ("fibration.psi_operator.calls", "count", "lower",
     _calls("fibration.FibrationModel.psi_operator", "fibration.LoopComposite.psi_operator")),
    ("fibration.rho.s", "s", "lower", _incl("fibration.FibrationModel.rho")),
    ("fibration.mirror.s", "s", "lower", _incl("fibration.mirror")),
    ("fibration.compose.s", "s", "lower", _incl("fibration.compose")),
    ("splitting.ring_split_check.s", "s", "lower", _incl("splitting.ring_split_check")),
    ("splitting.verify_product_pattern.s", "s", "lower",
     _incl("splitting.verify_product_pattern")),
    *[(f"validator.{s}.s", "s", "lower", _incl(f"validator.{s}")) for s in _SUITES],
    ("fixtures.from_dict.s", "s", "lower", _incl("fixtures.from_dict")),
    ("fixtures.format_qh.calls", "count", "lower", _calls("fixtures.format_qh")),
    ("catalog.build.s", "s", "lower", _incl("catalog.build")),
    ("cli.main.self_s", "s", "lower", _self("cli.main")),
    *[(f"{layer.lstrip('_')}.calls", "count", "lower", _layer(layer, 0)) for layer in LAYERS],
    *[(f"{layer.lstrip('_')}.self_s", "s", "lower", _layer(layer, 2)) for layer in LAYERS],
]
OVERHEAD = ("trace.overhead_frac", "frac", "lower")


def per_layer_metrics(tracer):
    agg = tracer.aggregate()
    return {name: (value(agg, tracer), unit) for name, unit, _better, value in PER_LAYER}
