"""Gromov-Witten tables and the small quantum product.

Tables store only nonzero invariants, keyed by canonically sorted insertion
indices plus the curve class. A per-arity completeness level says up to which
energy the listing is exhaustive: a query below the level that misses the
store answers 0, a query above it raises TableIncomplete. Nothing is ever
silently guessed.

Two table kinds:
  fiber    -- invariants of a closed manifold (or the vertical invariants of
              a fibration); keys are nonzero integral spherical classes of
              positive area.
  section  -- invariants of a fibration in section classes; keys are rational
              spherical offsets from the reference section (offset 0 allowed,
              negative areas allowed).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from ._memo import kept
from .errors import DimensionRuleViolation, MissingTripleData, NotInvertible, TableIncomplete
from .manifold import (
    ManifoldModel, QHClass, graded_matrix, koszul_sorted, kunneth, scatter, slot_pairs)
from .novikov import H2Class, NovikovElement, _exact, format_rational, nov_invert

ARITIES = ("two_point", "three_point", "four_point_chi")
_SLOTS = {"two_point": 2, "three_point": 3, "four_point_chi": 4}


def check(failures, skips=()) -> dict:
    """The one check record {"status", "details"}: fail with the failures,
    else skip with the distinct skip reasons, else pass."""
    if failures:
        return {"status": "fail", "details": list(failures)}
    if skips:
        return {"status": "skip", "details": sorted(set(skips))}
    return {"status": "pass", "details": []}


def step(report, name, passed, detail=""):
    """Append the line "name: pass|fail (detail)" to a check record; a
    failing step fails the record."""
    line = f"{name}: {'pass' if passed else 'fail'}"
    report["details"].append(line + (f" ({detail})" if detail else ""))
    if not passed:
        report["status"] = "fail"


def _normalize_completeness(level):
    if not isinstance(level, dict):
        level = dict.fromkeys(ARITIES, level)
    return {a: None if level.get(a) is None else _exact(level[a]) for a in ARITIES}


class GWTable:
    def __init__(self, model: ManifoldModel, kind="fiber",
                 two_point=None, three_point=None, four_point_chi=None,
                 complete_below=None, section_c1=None):
        if kind not in ("fiber", "section"):
            raise ValueError(f"unknown table kind {kind!r}")
        if kind == "section" and section_c1 is None:
            raise ValueError("section tables need a section_c1 evaluator")
        self.model = model
        self.kind = kind
        self.section_c1 = section_c1
        self.complete_below = _normalize_completeness(complete_below)
        self._kept = {}
        self.two_point = self._load("two_point", two_point or {})
        self.three_point = self._load("three_point", three_point or {})
        self.four_point_chi = self._load("four_point_chi", four_point_chi or {})

    # expected total insertion dimension for an entry in class with c1 = c
    def _dim_target(self, arity, c):
        dim_x = 2 * self.model.n
        if arity == "two_point":
            return dim_x - 2 * c + 2
        if arity == "three_point":
            return 2 * dim_x - 2 * c
        return 3 * dim_x - 2 * c

    def _key_c1(self, cls: H2Class) -> Fraction:
        if self.kind == "fiber":
            return cls.c1
        return self.section_c1(cls)

    def _check_class(self, cls: H2Class, what):
        if not cls.is_spherical():
            raise ValueError(f"{what}: class {cls!r} not supported on spherical generators")
        if self.kind == "fiber":
            if cls.is_zero():
                raise ValueError(f"{what}: fiber-type keys must be nonzero classes")
            if not cls.is_integral():
                raise ValueError(f"{what}: fiber-type keys must be integral")
            if cls.omega <= 0:
                raise ValueError(f"{what}: fiber-type keys need positive area")

    def _load(self, arity, entries):
        store: dict[tuple, Fraction] = {}
        # each key class is checked once, keyed by coordinates: classes compare
        # by area and Chern number, so an unusable class can equal a checked one
        wants = {}
        for key, val in entries.items():
            idx, cls = key[:-1], key[-1]
            if len(idx) == 1 and isinstance(idx[0], (tuple, list)):
                idx = tuple(idx[0])
            if len(idx) != _SLOTS[arity]:
                raise ValueError(f"{arity} keys need {_SLOTS[arity]} insertions")
            idx = tuple(
                self.model.label_index(i) if isinstance(i, str) else int(i)
                for i in idx
            )
            if cls.lattice is not self.model.h2:
                # a class on another lattice never equals a query's: it would read as 0
                labels = ",".join(self.model.labels[i] for i in idx)
                raise ValueError(f"{self.model.name} {arity} entry ({labels}; {cls!r}) "
                                 f"is not on the lattice of {self.model.name}")
            want = wants.get(cls.coords)
            if want is None:
                self._check_class(cls, f"{self.model.name} {arity}")
                want = wants[cls.coords] = self._dim_target(arity, self._key_c1(cls))
            ck, sign = koszul_sorted(idx, self.model.degrees)
            val = sign * _exact(val)
            total = sum(self.model.degrees[i] for i in ck)
            if total != want:
                labels = ",".join(self.model.labels[i] for i in ck)
                raise DimensionRuleViolation(
                    f"{self.model.name} {arity} entry ({labels}; {cls!r}): "
                    f"insertion dimensions sum to {total}, rule requires {want}"
                )
            old = store.get((ck, cls))
            if old is not None and old != val:
                raise ValueError(f"{self.model.name} {arity}: conflicting entries at {key}")
            store[(ck, cls)] = val  # a declared zero is checked too, then dropped
        return {key: v for key, v in store.items() if v}

    def _store(self, arity):
        return getattr(self, arity)

    def window(self, arity):
        return self.complete_below[arity]

    @kept(copy=list)
    def known_key_classes(self, arity) -> list[H2Class]:
        return tuple(sorted(self.by_class(arity), key=lambda c: (c.omega, c.c1, c.coords)))

    @kept
    def by_class(self, arity) -> dict:
        """The stored entries of an arity grouped by class, {class: {ck: n}},
        in store order; kept, as tables never change."""
        groups = {}
        for (ck, cls), n in self._store(arity).items():
            groups.setdefault(cls, {})[ck] = n
        return groups

    def constants(self, cls, pairs) -> dict:
        """The kept constants e_i * e_k of the stored three-point entries in
        class cls (`_pair`; cls None: the model's e_i cap e_k) summed over
        the slot pairs of `pairs` (`ManifoldModel._combine`). Above the
        declared window, or without one, their slots are read first, as
        `query` may raise."""
        m = self.model
        if cls is None:
            return m._cap_sum(pairs)
        w = self.complete_below["three_point"]
        inside = w is not None and cls.omega <= w
        return m._combine(pairs, functools.partial(self._pair, cls),
                          None if inside else lambda i, k, j: self.three(i, k, j, cls))

    @kept
    def _scattered(self, cls: H2Class) -> dict:
        return scatter(self.by_class("three_point").get(cls, {}), self.model.degrees)

    @kept
    def _pair(self, cls: H2Class, i, k) -> list:
        """The nonzero (t, x) entries of e_i * e_k at class cls: one
        `solve_pairing` of the entries of cls scattered at (i, k)."""
        return list(self.model.solve_pairing(self._scattered(cls).get((i, k), {})).items())

    def query(self, arity, indices, cls: H2Class) -> Fraction:
        ck, sign = koszul_sorted(tuple(indices), self.model.degrees)
        store = self._store(arity)
        hit = store.get((ck, cls))
        if hit is not None:
            return sign * hit
        w = self.complete_below[arity]
        if w is not None and cls.omega <= w:
            return 0
        labels = ",".join(self.model.labels[i] for i in ck)
        raise TableIncomplete(
            f"{self.model.name}: {arity} invariant ({labels}; {cls!r}) is outside "
            f"the declared-complete range "
            f"({'none declared' if w is None else 'complete through area ' + format_rational(w)})",
            missing=(arity, ck, cls),
        )

    def two(self, i, j, cls):
        return self.query("two_point", (i, j), cls)

    def three(self, i, j, k, cls):
        return self.query("three_point", (i, j, k), cls)

    def four_chi(self, i, j, k, l, cls):
        return self.query("four_point_chi", (i, j, k, l), cls)

    def entries(self, lattice) -> dict:
        """The stored entries of each arity in constructor form, keyed
        ((i, j, ...), class) with each class re-keyed onto `lattice` by its
        coordinates, plus complete_below. A class already on `lattice` is
        kept as it is (classes are immutable)."""
        out = {
            a: {(idx, cls if cls.lattice is lattice else lattice.cls(cls.coords)): v
                for (idx, cls), v in self._store(a).items()}
            for a in ARITIES
        }
        out["complete_below"] = dict(self.complete_below)
        return out

    def replace(self, arity, updates):
        """New table with some entries {(indices, class): n} replaced, a
        zero deleting one (for tamper testing). Each key is sorted and its
        Koszul sign folded into n, as the constructor does, so `query`
        reads it in any slot order; the dimension rule is not checked, so
        a tamper may store a key it forbids."""
        t = GWTable(self.model, self.kind, complete_below=self.complete_below,
                    section_c1=self.section_c1)
        for a in ARITIES:
            setattr(t, a, dict(self._store(a)))
        store = t._store(arity)
        for (idx, cls), v in updates.items():
            ck, sign = koszul_sorted(tuple(idx), self.model.degrees)
            if v:
                store[ck, cls] = sign * _exact(v)
            else:
                store.pop((ck, cls), None)
        return t


def accumulate(acc, e, x, zero):
    """acc[e] += x for the sparse vector x {t: x_t}, zero the dense zero
    vector, dropping a term that cancels, as a QHClass sum does."""
    vec = list(acc.get(e, zero))
    for t, v in x.items():
        vec[t] += v
    if any(vec):
        acc[e] = vec
    else:
        acc.pop(e, None)


def contract(table: GWTable, a: QHClass, b: QHClass, sources, cover=None, floor=None) -> QHClass:
    """The one bilinear three-point product of a and b over a table. Each
    term pair runs cover(base), base = ea + eb, first (the caller's window
    check); each source (shift, cls) then adds the kept constants of class
    cls (`GWTable.constants`) summed over the pairs, at exponent base + shift.
    A shift None is the cap at base, read for every term pair; any other
    source is skipped when the area of base + shift is below floor."""
    m = table.model
    acc, zero = {}, m.zero_vector()
    for ea, va in a.terms.items():
        for eb, vb in b.terms.items():
            base = ea + eb
            if cover is not None:
                cover(base)
            pairs = slot_pairs(va, vb)
            for shift, cls in sources:
                if shift is not None and floor is not None and base.omega + shift.omega < floor:
                    continue
                vec = table.constants(cls, pairs)
                if any(vec.values()):
                    accumulate(acc, base if shift is None else base + shift, vec, zero)
    return m.qh(acc)


def table_axioms(table: GWTable, curve) -> dict:
    """The fundamental-class and divisor axioms of one table, whose key cls
    stands for curves in class B = curve(cls): cls itself in a fiber table,
    sigma_ref + cls in a section table. In order:
    1. a stored 2- or 3-point count with an [X] slot must vanish, and a chi
       4-point count with one equals the 3-point count without that slot;
    2. for each companion v stored in a 2-point entry with a divisor, any
       two divisors w1, w2 read n(w1, v) (w2.B) = n(w2, v) (w1.B);
    3. each pair left by removing a divisor slot from a stored 3-point
       entry, and each stored 2-point pair whose class lies inside the
       declared 3-point window, meets every divisor w as
       n(pair, w) = (w.B) n(pair).
    A read the declared window does not cover skips with its
    TableIncomplete text."""
    m = table.model
    failures, skips = [], []
    fund = m.fundamental_index

    def read(arity, idx, cls):  # the count, or None with its skip recorded
        try:
            return table.query(arity, idx, cls)
        except TableIncomplete as exc:
            skips.append(str(exc))

    for arity in ("two_point", "three_point"):
        for (idx, cls), val in table._store(arity).items():
            if fund in idx and val != 0:
                labels = ",".join(m.labels[i] for i in idx)
                failures.append(
                    f"{arity} ({labels}; {cls!r}) = {format_rational(val)}, "
                    "must vanish (fundamental-class insertion)"
                )
    for (idx, cls), val in table.four_point_chi.items():
        if fund not in idx:
            continue
        rest = list(idx)
        rest.remove(fund)
        expect = read("three_point", rest, cls)
        if expect is not None and val != expect:
            labels = ",".join(m.labels[i] for i in idx)
            failures.append(
                f"chi 4-point ({labels}; {cls!r}) = {format_rational(val)} "
                f"but removing the fundamental slot gives {format_rational(expect)}"
            )
    if m.h2.embed is None:
        skips.append("no degree-2 embedding on the lattice: divisor axiom unchecked")
        return check(failures, skips)
    deg2 = m.indices_of_degree(2 * m.n - 2)
    meets = {}  # class coordinates -> {w: w.B}, each divisor met once per class

    def meet(w, cls):
        if cls.coords not in meets:
            b = curve(cls)
            meets[cls.coords] = {d: m.meet_class(m.vector([(d, 1)]), b) for d in deg2}
        return meets[cls.coords][w]

    companions = {(idx[1 - pos], cls) for idx, cls in table.two_point
                  for pos in (0, 1) if idx[pos] in deg2}
    for v, cls in sorted(companions, key=lambda g: (g[0], g[1].omega, g[1].c1, g[1].coords)):
        vals = {w: read("two_point", (w, v), cls) for w in deg2}
        for w1, w2 in itertools.combinations([w for w in deg2 if vals[w] is not None], 2):
            lhs, rhs = vals[w1] * meet(w2, cls), vals[w2] * meet(w1, cls)
            if lhs != rhs:
                failures.append(
                    f"divisor axiom fails: n({m.labels[w1]},{m.labels[v]}; {cls!r}) "
                    f"({m.labels[w2]}.B) = {format_rational(lhs)} but "
                    f"n({m.labels[w2]},{m.labels[v]}; {cls!r}) ({m.labels[w1]}.B) = "
                    f"{format_rational(rhs)}"
                )
    w3 = table.window("three_point")
    checked = {(tuple(x for q, x in enumerate(idx) if q != pos), cls)
               for idx, cls in table.three_point for pos in range(3) if idx[pos] in deg2}
    checked.update((idx, cls) for idx, cls in table.two_point
                   if w3 is not None and cls.omega <= w3)
    for (pair, cls) in sorted(checked, key=lambda t: (t[0], t[1].omega, t[1].c1)):
        base = read("two_point", pair, cls)
        if base is None:
            continue
        for w in deg2:
            lhs = read("three_point", (*pair, w), cls)
            if lhs is not None and lhs != meet(w, cls) * base:
                labels = ",".join(m.labels[i] for i in pair)
                failures.append(
                    f"divisor axiom fails: n({labels},{m.labels[w]}; {cls!r}) = "
                    f"{format_rational(lhs)} but (w.B) n({labels}; {cls!r}) = "
                    f"{format_rational(meet(w, cls) * base)}"
                )
    return check(failures, skips)


class QuantumRing:
    """QH(M) with the product induced by a three-point fiber-type table:
    each product is `contract` over the cap and the key classes, reading
    the structure constants e_i * e_k that the model (the cap) and the
    table keep, each pair's once solved. Tables never change after
    construction, so nothing goes stale."""

    def __init__(self, model: ManifoldModel, table: GWTable):
        if table.model is not model:
            raise ValueError("table is attached to a different model")
        if table.kind != "fiber":
            raise ValueError(f"a quantum ring needs a fiber table, not a {table.kind} one")
        self.model = model
        self.table = table
        # the (shift, class) sources of every product: the cap, then each key class
        self._sources = [(None, None)] + [
            (-cls, cls) for cls in table.known_key_classes("three_point")]
        self._kept = {}

    def _cover(self, need):
        """Raise TableIncomplete unless the declared window reaches area need."""
        w = self.table.window("three_point")
        if w is None or need > w:
            raise TableIncomplete(f"{self.model.name}: product needs three-point data "
                                  f"through area {format_rational(need)}")

    def product(self, a: QHClass, b: QHClass, cutoff=None) -> QHClass:
        """a * b, summed bilinearly from the kept structure constants. With
        a cutoff the result is truncated and the table must cover the needed
        window. With cutoff=None the stored keys are trusted to be complete,
        as they always were: every class missing from the table counts as
        zero, whatever window the table declares."""
        if cutoff is None:
            return contract(self.table, a, b, self._sources)
        cutoff = _exact(cutoff)
        return contract(self.table, a, b, self._sources,
                        lambda base: self._cover(base.omega + cutoff), -cutoff).truncate(cutoff)

    @kept
    def basis_product(self, i, j, cutoff) -> QHClass:
        """e_i * e_j modulo the cutoff, kept once the product returns."""
        m = self.model
        return self.product(m.qh_basis(m.labels[i]), m.qh_basis(m.labels[j]), cutoff)

    def unit(self) -> QHClass:
        return self.model.qh_unit()

    # -- unit detection ----------------------------------------------------

    def inverse_or_none(self, q: QHClass, cutoff) -> QHClass | None:
        """Inverse of q modulo the cutoff, or None when q is not a unit.

        QH is free of rank k over the Novikov ring, so q is a unit exactly
        when det A is, A the k x k matrix of multiplication by q: nonzero with
        one term of greatest area (the area-zero part of the ring is Laurent
        polynomials over Q, whose units are monomials). Faddeev-LeVerrier
        gives det A and the adjugate, dividing only by integers:
        M_j = A M_(j-1) + c I, c = -tr(A M_j) / j, each entry of A M_(j-1)
        that A reaches summed over the nonzero entries of A's row only (at the
        last step only its diagonal and column X), and at j = k q^-1 = -M_k e_[X] / c.
        The terms of area >= -(cutoff + max(0, leading area of q)) are
        kept, so q q^-1 = 1 modulo the cutoff; they are exact because 1/c
        is taken on that window widened by the largest area in M_k e_[X].
        The final check multiplies q q^-1 through the cutoff, so
        it reads only classes the table declares complete, or raises."""
        m, k = self.model, len(self.model.basis)
        zero = NovikovElement(m.h2)
        cols = [self.product(q, m.qh_basis(lbl)).terms for lbl in m.labels]
        # row t of A as its nonzero entries (s, A_ts), s ascending; reach[u]: column u's rows
        a = [[(s, x) for s, col in enumerate(cols)
              if (x := NovikovElement(m.h2, {e: v[t] for e, v in col.items()})).terms]
             for t in range(k)]
        reach = [{t for t, row in enumerate(a) for s, _ in row if s == u} for u in range(k)]
        mj = [[NovikovElement.unit(m.h2) if t == u else zero for u in range(k)] for t in range(k)]

        def times(row, u):  # (A M_j)_tu: the nonzero products summed in turn, s ascending
            prods = [x * mj[s][u] for s, x in row if mj[s][u].terms]
            return sum(prods[1:], prods[0]) if prods else zero

        fx = m.fundamental_index
        for j in range(1, k):
            # (A M_j)_tu is 0 off hit[u]; past the last step only the trace and column X are read
            hit = [{t for s in range(k) if mj[s][u].terms for t in reach[s]} for u in range(k)]
            am = [[(times(row, u) if t in hit[u] else zero) if j < k - 1 or u in (t, fx) else None
                   for u in range(k)] for t, row in enumerate(a)]
            c = sum((am[t][t] for t in range(k)), zero) * Fraction(-1, j)
            mj = [[x + c if t == u else x for u, x in enumerate(row)] for t, row in enumerate(am)]
        adj_x = [row[fx] for row in mj]
        # A M_k = -c I (Cayley-Hamilton), so its entry (X, X) is -c
        minus_c = times(a[fx], fx)
        window = _exact(cutoff) + max((e.omega for e in q.terms if e.omega > 0), default=0)
        widen = max((e.omega for p in adj_x for e in p.terms), default=0)
        try:
            inv_c = nov_invert(minus_c, window + widen)
        except NotInvertible:  # det A is 0 or its leading part is not a monomial
            return None
        terms: dict = {}
        for t, p in enumerate(adj_x):
            for e, x in (p * inv_c).terms.items():
                if e.omega >= -window:
                    terms.setdefault(e, m.zero_vector())[t] = x
        inv = m.qh(terms)
        if self.product(q, inv, cutoff) != self.unit().truncate(cutoff):
            return None
        return inv

    def is_unit(self, q: QHClass, cutoff) -> bool:
        return self.inverse_or_none(q, cutoff) is not None

    def inverse(self, q: QHClass, cutoff) -> QHClass:
        inv = self.inverse_or_none(q, cutoff)
        if inv is None:
            raise NotInvertible(f"{q!r} is not a unit")
        return inv

    # -- structural checks ---------------------------------------------------

    def associativity_report(self, cutoff) -> dict:
        """(a*b)*c vs a*(b*c) over every basis triple, modulo the cutoff,
        with no product while it passes. P[i][j] = e_i*e_j is read from the
        kept constants, filled in the order the nested products first needed
        them, so a raise has the same text. A failing triple builds its two
        sides by one product each."""
        m, size = self.model, len(self.model.basis)
        cutoff = None if cutoff is None else _exact(cutoff)
        if cutoff is not None:
            self._cover(cutoff)  # as the first basis product checked it
        blocks = [None] + [cls for cls in self.table.known_key_classes("three_point")
                           if cutoff is None or cls.omega <= cutoff]
        exps = [m.h2.zero()] + [-cls for cls in blocks[1:]]
        products = {}  # (i, j) -> nonzero (exponent position, t, x) of P[i][j]

        def basis_product(i, j):
            if (i, j) not in products:
                products[i, j] = [(e, t, x) for e, cls in enumerate(blocks)
                                  for t, x in self.table.constants(cls, [(i, j, 1)]).items()]
            return products[i, j]

        for j in range(size):  # the nested products' first uses; all come while i is 0
            for k in range(size):
                for _, t, _ in basis_product(0, j):
                    basis_product(t, k)
                for _, t, _ in basis_product(j, k):
                    basis_product(0, t)
        ids = {}  # a sum of two exponents -> where its coefficients start in acc
        sums = [[None if cutoff is not None and (e + f).omega < -cutoff
                 else size * ids.setdefault(e + f, len(ids)) for f in exps] for e in exps]
        cols = [[products[t, k] for t in range(size)] for k in range(size)]
        rows = [[products[i, t] for t in range(size)] for i in range(size)]

        def as_class(i, j):  # P[i][j] as its basis product sums it
            return contract(self.table, m.qh_basis(m.labels[i]), m.qh_basis(m.labels[j]),
                            self._sources, floor=None if cutoff is None else -cutoff)

        failures = []
        for i, j, k in itertools.product(range(size), repeat=3):
            acc = {}  # (e_i*e_j)*e_k - e_i*(e_j*e_k)
            for sign, outer, inner in ((1, products[i, j], cols[k]), (-1, products[j, k], rows[i])):
                for e, t, x in outer:
                    row, x = sums[e], sign * x
                    for f, s, y in inner[t]:
                        g = row[f]
                        if g is not None:
                            acc[g + s] = acc.get(g + s, 0) + x * y
            if any(acc.values()):
                la, lb, lc = m.labels[i], m.labels[j], m.labels[k]
                left = self.product(as_class(i, j), m.qh_basis(lc), cutoff)
                right = self.product(m.qh_basis(la), as_class(j, k), cutoff)
                failures.append(f"({la}*{lb})*{lc} != {la}*({lb}*{lc}): {left!r} vs {right!r}")
        return check(failures)

    @kept
    def _splittings(self) -> dict:
        """{A: [(A1, A2), ...]}: every sum A = A1 + A2 of two blocks, a block
        a key class or the cap (None, class zero), with A1 in key-class
        order and the cap last. Each A keeps the coordinates of its first
        sum, A2 the cap and then the key classes in order for each A1, so
        the classes read from it keep theirs. Kept, as tables never change."""
        keys = self.table.known_key_classes("three_point")
        zero = self.model.h2.zero()
        out = {}
        for a1 in [*keys, None]:
            for a2 in [None, *keys]:
                out.setdefault((a1 or zero) + (a2 or zero), []).append((a1, a2))
        return out

    def _split_four(self, i, j, k, l, cls) -> Fraction:
        """The sum over A1 + A2 = cls (`_splittings`) of (e_k*e_l)_A2 .
        (e_i*e_j)_A1, the three-point splitting of the fixed-cross-ratio
        invariant n(e_i, e_j, e_k, e_l; cls). Both factors are read from the
        kept constants, A1 in key-class order and the cap last, so a read
        raises where a slot it needs is unavailable."""
        m = self.model
        total = 0
        for a1, a2 in self._splittings().get(cls, ()):
            x = self.table.constants(a1, [(i, j, 1)])
            if x:
                y = self.table.constants(a2, [(k, l, 1)])
                total += m.intersect(m.vector(y.items()), m.vector(x.items()))
        return total

    def _chi_candidate_classes(self) -> list[H2Class]:
        """classes where a fixed-cross-ratio invariant could be nonzero:
        stored 4-point keys plus sums of up to two 3-point keys."""
        out = dict.fromkeys(self.table.known_key_classes("four_point_chi"))
        out.update(dict.fromkeys(s for s in self._splittings() if not s.is_zero()))
        return sorted(out, key=lambda c: (c.omega, c.c1, c.coords))

    def assoc1_report(self) -> dict:
        """Check every fixed-cross-ratio 4-point value (stored or claimed
        zero by completeness) against its splitting into 3-point data."""
        m = self.model
        failures, skips = [], []
        for cls in self._chi_candidate_classes():
            target = self.table._dim_target("four_point_chi", self.table._key_c1(cls))
            for idx in itertools.combinations_with_replacement(range(len(m.basis)), 4):
                if sum(m.degrees[t] for t in idx) != target:
                    continue
                try:
                    stored = self.table.four_chi(*idx, cls)
                except TableIncomplete as exc:
                    skips.append(str(exc))
                    continue
                try:
                    derived = self._split_four(*idx, cls)
                except TableIncomplete:
                    skips.append(f"splitting data incomplete for class {cls!r}")
                    continue
                if derived != stored:
                    labels = ",".join(m.labels[t] for t in idx)
                    failures.append(
                        f"chi-invariant ({labels}; {cls!r}) = "
                        f"{format_rational(stored)} but 3-point splitting "
                        f"gives {format_rational(derived)}"
                    )
        return check(failures, skips)

    def axioms_report(self) -> dict:
        """The fundamental-class and divisor axioms of the table (`table_axioms`)."""
        return table_axioms(self.table, lambda cls: cls)

    # -- the energy-positive part -------------------------------------------

    def qh_plus_member(self, q: QHClass) -> bool:
        """Every term has dimension below the top, or top-dimensional with
        strictly positive energy (exponent of negative area)."""
        top = 2 * self.model.n
        for e, vec in q.terms.items():
            for i, x in enumerate(vec):
                if x == 0:
                    continue
                if self.model.degrees[i] < top:
                    continue
                if e.omega < 0:
                    continue
                return False
        return True

    def qh_plus_closure_report(self, cutoff) -> dict:
        """Products of generators of the energy-positive part stay inside.
        Raises TableIncomplete when the table does not cover the cutoff."""
        m = self.model
        gens = [m.qh_basis(lbl) for lbl, d in m.basis if d < 2 * m.n]
        for cls in self.table.known_key_classes("three_point"):
            gens.append(m.qh_unit().shift(-cls))
        failures = []
        for a in gens:
            for b in gens:
                p = self.product(a, b, cutoff)
                if not self.qh_plus_member(p):
                    failures.append(f"{a!r} * {b!r} = {p!r} leaves the positive part")
        return check(failures)


def tensor_model(m1: ManifoldModel, t1: GWTable, m2: ManifoldModel, t2: GWTable,
                 name=None):
    """Product manifold with the product three-point table.

    Basis labels are '<a>|<b>', e_a x e_b at index a k2 + b. The pairing,
    the triple and the three-point entries in classes (B1, 0), (0, B2) and
    (B1, B2) are the signed cross products (manifold.kunneth) of the
    factors' data, the classical side of a class pair being the factor's
    triple. A factor whose triple is not declared complete is refused: the
    cross product reads only declared entries. Lattice generators keep
    their names with factor suffixes only on collision.
    """
    from .novikov import H2Lattice

    for m in (m1, m2):
        if not m.triple_complete:
            raise MissingTripleData(
                f"{m.name}: a tensor factor needs a complete triple form "
                "(triple_complete is false)"
            )
    name = name or f"{m1.name}x{m2.name}"
    basis = []
    for la, da in m1.basis:
        for lb, db in m2.basis:
            basis.append((f"{la}|{lb}", da + db))
    k1, k2 = len(m1.basis), len(m2.basis)

    def cross(first, second):
        return kunneth(first, second, m1.degrees, m2.degrees, lambda a, b: a * k2 + b)

    pairing = graded_matrix(cross(m1.pairing_entries(), m2.pairing_entries()),
                            [d for _, d in basis])
    gens = list(m1.h2.generators)
    gens2 = []
    for g in m2.h2.generators:
        gens2.append(g if g not in gens else f"{g}'")
    deg2 = []
    for i in range(k1):
        for j in range(k2):
            if m1.degrees[i] + m2.degrees[j] == 2:
                deg2.append((i, j))
    if m1.h2.embed is None or m2.h2.embed is None:
        raise ValueError("tensor models need embedded lattices on both factors")
    # a factor's degree-2 class times the other factor's point
    embed = []
    for s, m, other in ((0, m1, m2), (1, m2, m1)):
        own = m.indices_of_degree(2)
        for row in m.h2.embed:
            embed.append(tuple(row[own.index(ij[s])] if ij[1 - s] == other.point_index
                               else 0 for ij in deg2))
    h2 = H2Lattice(
        generators=tuple(gens + gens2),
        omega=tuple(m1.h2.omega) + tuple(m2.h2.omega),
        c1=tuple(m1.h2.c1) + tuple(m2.h2.c1),
        spherical=tuple(m1.h2.spherical) + tuple(m2.h2.spherical),
        embed=tuple(embed),
    )
    model = ManifoldModel(name, m1.n + m2.n, basis, pairing, cross(m1.triple, m2.triple), h2)

    def blocks(m, t):
        """(class, {key: n}) per stored class in key-class order, led by
        (None, the triple)."""
        by_class = t.by_class("three_point")
        return [(None, m.triple)] + [(c, by_class[c]) for c in t.known_key_classes("three_point")]

    zeros1, zeros2 = (0,) * len(gens), (0,) * len(gens2)
    entries = {}
    for c1, block1 in blocks(m1, t1):
        for c2, block2 in blocks(m2, t2):
            if c1 is None and c2 is None:
                continue  # the purely classical part lives in the model triple
            cls = model.h2.cls((zeros1 if c1 is None else c1.coords)
                               + (zeros2 if c2 is None else c2.coords))
            # in sorted-key order, as a loop over the product slots would list them
            for key, v in sorted(cross(block1, block2).items(), key=lambda kv: sorted(kv[0])):
                entries[key + (cls,)] = v
    w1 = t1.window("three_point")
    w2 = t2.window("three_point")
    w = None if (w1 is None or w2 is None) else min(w1, w2)
    table = GWTable(model, "fiber", three_point=entries, complete_below={"three_point": w})
    return model, table
