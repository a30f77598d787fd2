"""Closed-manifold models: graded basis, intersection pairing, triple form.

A model carries everything the classical part of quantum homology needs:
a finite graded basis of the homology (odd degrees included), the
intersection pairing, the trilinear form t(a,b,c) = (a cap b) . c, and the
lattice of degree-2 classes used for Novikov exponents.

Triple keys are stored canonically (indices sorted, Koszul sign applied);
entries pairing against the fundamental class are forced to agree with the
intersection pairing and are filled in automatically. `kunneth` is the one
signed cross product behind every product model's pairing, triple and
invariants. `scatter` turns canonical three-slot entries into right-hand
sides. `ManifoldModel.solve_pairing` is the one pairing solve, sparse in
and out. Every three-point contraction (the cap, and every quantum product
through `quantum.contract`) sums per-pair constants by `ManifoldModel._combine`:
e_i cap e_k on the model and e_i * e_k at each stored class on its table, each
pair's a `kept` value of one `solve_pairing`. The loop operator and the
Poincare duals of the invariants call `solve_pairing` directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from ._linalg import invert, multilinear
from ._memo import kept
from .errors import DegeneratePairing, MissingTripleData, UnknownBasisLabel
from .novikov import H2Class, H2Lattice, _exact, format_rational


def koszul_sorted(indices, degrees):
    """The sorted index tuple and the Koszul sign of sorting it: -1 for each
    pair of odd-degree slots out of order, the pairs a sort swaps."""
    odd = [i for i in indices if degrees[i] % 2]
    if len(odd) < 2:
        return tuple(sorted(indices)), 1
    return tuple(sorted(indices)), (-1) ** sum(a > b for a, b in combinations(odd, 2))


def kunneth(first, second, deg1, deg2, at) -> dict:
    """The cross product of two dicts of canonical slot tuples, one per
    factor of degrees deg1 and deg2: n1(a_1..a_r) n2(b_1..b_r) at the
    product slots (at(a_1, b_1), ..., at(a_r, b_r)), for every ordering
    b of each second-factor key. The sign is the Koszul sign of that
    ordering times (-1)^(|b_s| |a_t|) for each b_s moved past a later a_t.
    The product keys are not sorted: the model and table constructors
    canonicalize them, and their conflict checks confirm the signs."""
    out = {}
    for key1, v1 in first.items():
        for key2, v2 in second.items():
            for perm, sign in orderings(key2, deg2):
                for s, b in enumerate(perm):
                    if deg2[b] % 2 and sum(deg1[a] for a in key1[s + 1:]) % 2:
                        sign = -sign
                out[tuple(map(at, key1, perm))] = sign * v1 * v2
    return out


def orderings(ck, degrees) -> list:
    """(slots, sign) for every distinct slot order of the canonical key ck,
    sign the Koszul sign a query in that order applies to the stored count."""
    return [(perm, koszul_sorted(perm, degrees)[1]) for perm in dict.fromkeys(permutations(ck))]


def scatter(entries, degrees) -> dict:
    """The three-point right-hand sides of canonical entries {ck: n}:
    rows[i, k][j] = n(i, k, j) for every slot order (i, k, j) of each key
    (`orderings`), signed as a query in that order reads it."""
    rows = {}
    for ck, n in entries.items():
        for perm, sign in orderings(ck, degrees):
            rows.setdefault(perm[:2], {})[perm[2]] = sign * n
    return rows


def slot_pairs(va, vb) -> list:
    """(i, k, va_i vb_k) over the nonzero coordinates of two vectors."""
    return [(i, k, x * y) for i, x in enumerate(va) if x for k, y in enumerate(vb) if y]


def evaluate(covector, b) -> Fraction:
    """A covector {j: a . e_j} (ManifoldModel.covector) applied to a vector b."""
    return _exact(sum((x * b[j] for j, x in covector.items() if b[j]), 0))


def graded_matrix(entries, degrees) -> list[list[Fraction]]:
    """The pairing matrix of two-slot entries {(p, q): v}, each also written
    at (q, p) with its graded-symmetry sign (-1)^(|p| |q|)."""
    out = [[0] * len(degrees) for _ in degrees]
    for (p, q), v in entries.items():
        for a, b, x in ((p, q, v), (q, p, (-1) ** (degrees[p] * degrees[q]) * v)):
            if out[a][b] not in (0, x):
                raise ValueError(f"conflicting pairing entries at ({a}, {b})")
            out[a][b] = _exact(x)
    return out


class ManifoldModel:
    def __init__(self, name, n, basis, pairing, triple, h2,
                 triple_complete=True):
        self.name = name
        self.n = int(n)
        self.basis = tuple((str(lbl), int(d)) for lbl, d in basis)
        self.labels = tuple(lbl for lbl, _ in self.basis)
        self.degrees = tuple(d for _, d in self.basis)
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError(f"{name}: duplicate basis labels")
        self.pairing = [[_exact(x) for x in row] for row in pairing]
        self.h2: H2Lattice = h2
        self.triple_complete = bool(triple_complete)

        k = len(self.basis)
        if len(self.pairing) != k or any(len(r) != k for r in self.pairing):
            raise ValueError(f"{name}: pairing must be {k}x{k}")
        # the nonzero entries, row by row: every check and intersection reads
        # them; a cell fails only where it or its transpose is nonzero, so
        # those cells in row-major order meet the first failure first
        self._pairing_rows = [{j: x for j, x in enumerate(row) if x} for row in self.pairing]
        cells = {(i, j) for i, row in enumerate(self._pairing_rows) for j in row}
        for i, j in sorted(cells | {(j, i) for i, j in cells}):
            x = self._pairing_rows[i].get(j, 0)
            if x and self.degrees[i] + self.degrees[j] != 2 * self.n:
                raise ValueError(
                    f"{name}: pairing nonzero off complementary degrees "
                    f"({self.labels[i]}, {self.labels[j]})"
                )
            if x != (-1) ** (self.degrees[i] * self.degrees[j]) * self._pairing_rows[j].get(i, 0):
                raise ValueError(f"{name}: pairing not graded-symmetric")

        self.fundamental_index = self._unique_degree_index(2 * self.n, "fundamental")
        self.point_index = self._unique_degree_index(0, "point")

        self.triple: dict[tuple[int, int, int], Fraction] = {}
        for key, val in triple.items():
            idx = tuple(map(self._slot, key))
            if len(idx) != 3:
                raise ValueError(f"{name}: triple keys are 3-tuples")
            ck, sign = koszul_sorted(idx, self.degrees)
            val = sign * _exact(val)
            if sum(map(self.degrees.__getitem__, ck)) != 4 * self.n:
                raise ValueError(f"{name}: triple entry {key} has wrong total degree")
            old = self.triple.get(ck)
            if old is not None and old != val:
                raise ValueError(f"{name}: conflicting triple entries at {key}")
            self.triple[ck] = val  # a declared zero is checked too
        # entries against the fundamental class are the pairing itself, read
        # at the nonzero cells and at the cells of declared entries (at every
        # complementary cell on an incomplete model, which keeps the zeros)
        f = self.fundamental_index
        cells.update(ck[:ck.index(f)] + ck[ck.index(f) + 1:] for ck in self.triple if f in ck)
        if not self.triple_complete:
            cells.update((i, j) for i in range(k)
                         for j in self.indices_of_degree(2 * self.n - self.degrees[i]))
        for i, j in sorted(cells):
            ck, sign = koszul_sorted((i, f, j), self.degrees)
            forced = sign * self._pairing_rows[i].get(j, 0)
            old = self.triple.get(ck)
            if old is not None and old != forced:
                raise ValueError(
                    f"{name}: triple at ({self.labels[i]}, fundamental, "
                    f"{self.labels[j]}) disagrees with pairing"
                )
            if forced != 0 or not self.triple_complete:
                self.triple[ck] = forced
        # zeros are dropped only now; an incomplete model keeps them as data, not gaps
        if self.triple_complete:
            self.triple = {ck: v for ck, v in self.triple.items() if v}

        if self.h2.embed is not None:
            want = len(self.indices_of_degree(2))
            for row in self.h2.embed:
                if len(row) != want:
                    raise ValueError(
                        f"{name}: lattice embedding rows must have "
                        f"{want} entries (one per degree-2 basis class)"
                    )

        self._kept = {}

    def _unique_degree_index(self, d, what) -> int:
        hits = [i for i, deg in enumerate(self.degrees) if deg == d]
        if len(hits) != 1:
            raise ValueError(f"{self.name}: need exactly one degree-{d} ({what}) class")
        return hits[0]

    # -- basis bookkeeping ------------------------------------------------

    def label_index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownBasisLabel(
                f"{self.name}: unknown basis label {label!r} "
                f"(have: {', '.join(self.labels)})"
            ) from None

    def _slot(self, x) -> int:
        """The basis index of a slot given by its label or by its index."""
        return self.label_index(x) if isinstance(x, str) else int(x)

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def indices_of_degree(self, d: int) -> list[int]:
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def zero_vector(self) -> list[Fraction]:
        return [0] * len(self.basis)

    def vector(self, entries=()) -> list[Fraction]:
        """The vector with coordinate x at t for each (t, x) of entries."""
        v = self.zero_vector()
        for t, x in entries:
            v[t] = x
        return v

    def basis_vector(self, label: str) -> list[Fraction]:
        return self.vector([(self.label_index(label), 1)])

    # -- classical structure ----------------------------------------------

    def covector(self, a) -> dict:
        """The values {j: a . e_j} of a homology vector on the columns its
        nonzero pairing rows reach; every other value is 0."""
        out = {}
        for i, ai in enumerate(a):
            if ai:
                for j, x in self._pairing_rows[i].items():
                    out[j] = out.get(j, 0) + ai * x
        return out

    def intersect(self, a, b) -> Fraction:
        """Intersection number a . b of two homology vectors."""
        return evaluate(self.covector(a), b)

    def meet_class(self, a, cls) -> Fraction:
        """a . the degree-2 class of the lattice class cls (its embedding),
        in either order, as that class has even degree."""
        return self.intersect(a, self.vector(zip(self.indices_of_degree(2), cls.embedded())))

    def pairing_entries(self) -> dict:
        """The nonzero pairing entries {(i, j): e_i . e_j} with i <= j; graded
        symmetry gives the rest."""
        return {(i, j): x for i, row in enumerate(self._pairing_rows)
                for j, x in row.items() if j >= i}

    @kept(copy=lambda rows: [row[:] for row in rows])
    def dual_basis(self):
        """Vectors f_j with e_i . f_j = delta_ij: the rows of the inverse
        transpose of the pairing, kept; each call gets a fresh copy."""
        inv = invert([row[:] for row in self.pairing])
        if inv is None:
            raise DegeneratePairing(f"{self.name}: intersection pairing is singular")
        # e_i . f_j = sum_k inv[j][k] P_ik = (P inv^T)_ij = delta required
        return [list(col) for col in zip(*inv)]

    def triple_eval(self, i: int, j: int, k: int) -> Fraction:
        ck, sign = koszul_sorted((i, j, k), self.degrees)
        if sum(self.degrees[t] for t in ck) != 4 * self.n:
            return 0
        if ck in self.triple:
            return sign * self.triple[ck]
        if not self.triple_complete:
            raise MissingTripleData(
                f"{self.name}: triple intersection "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]}) undeclared"
            )
        return 0

    def triple_form(self, a, b, c) -> Fraction:
        """t(a,b,c) = (a cap b) . c on homology vectors."""
        return multilinear(self.triple_eval, a, b, c)

    @kept
    def _scattered_triple(self):
        return scatter(self.triple, self.degrees)

    @kept
    def _cap_pair(self, i, k) -> list:
        """The nonzero (t, x) entries of e_i cap e_k: one `solve_pairing`
        of the triple entries scattered at (i, k)."""
        return list(self.solve_pairing(self._scattered_triple().get((i, k), {})).items())

    def _cap_sum(self, pairs) -> dict:
        """The kept e_i cap e_k summed over pairs (`_combine`); a form not
        declared complete reads its slots first."""
        read = None if self.triple_complete else self.triple_eval
        return self._combine(pairs, self._cap_pair, read)

    def _combine(self, pairs, constants, read=None) -> dict:
        """The sum of c constants(i, k) over (i, k, c) in pairs, as {t: x_t},
        constants(i, k) a pair's kept (t, x) entries. With `read` given, a
        singular pairing raises first, then every slot read(i, k, j) of the
        pairs is read, j outermost, on every call, so the first raising read
        of the whole sum raises before any constant is built. The data never
        change, so a pair already kept reads again without raising."""
        if read is not None:
            self._pairing_columns()
            for j in range(len(self.basis)):
                for i, k, _ in pairs:
                    read(i, k, j)
        vec = {}
        for i, k, c in pairs:
            for t, x in constants(i, k):
                vec[t] = vec.get(t, 0) + c * x
        return vec

    @kept
    def _pairing_columns(self):
        """Column j of the pairing system's inverse as its nonzero (t, d):
        x_t gains d rhs_j. Kept."""
        dual = self.dual_basis()
        return [[(t, row[j]) for t, row in enumerate(dual) if row[j]] for j in range(len(dual))]

    def solve_pairing(self, rhs) -> dict:
        """The nonzero coordinates {t: x_t}, in index order, of the x with
        x . e_j = rhs[j] for each j of the sparse right-hand side {j: r}
        (0 elsewhere); empty when x = 0. A singular pairing raises
        DegeneratePairing even then."""
        cols = self._pairing_columns()
        x = {}
        for j, r in rhs.items():
            for t, d in cols[j]:
                x[t] = x.get(t, 0) + d * r
        return {t: _exact(v) for t, v in sorted(x.items()) if v}

    def cap(self, a, b) -> list[Fraction]:
        """Classical cap product a cap b: the kept constants e_i cap e_k
        (`_cap_pair`) summed over the nonzero coordinates of a and b."""
        self._pairing_columns()  # a singular pairing raises even when a or b is 0
        return self.vector(self._cap_sum(slot_pairs(a, b)).items())

    def fundamental_vector(self) -> list[Fraction]:
        return self.vector([(self.fundamental_index, 1)])

    def point_vector(self) -> list[Fraction]:
        return self.vector([(self.point_index, 1)])

    def vector_degree(self, v) -> int | None:
        """Degree of a homogeneous vector, None for 0 or mixed."""
        degs = {self.degrees[i] for i, x in enumerate(v) if x != 0}
        return degs.pop() if len(degs) == 1 else None

    # -- quantum homology elements ------------------------------------------

    def qh(self, terms=None) -> QHClass:
        return QHClass(self, terms or {})

    def qh_basis(self, label: str) -> QHClass:
        # the terms are kept, not the class: a kept class would hold its model, a cycle
        return QHClass._canonical(self, self._basis_terms(label))

    @kept
    def _basis_terms(self, label: str) -> dict:
        return {self.h2.zero(): tuple(self.basis_vector(label))}

    def qh_from_vector(self, v) -> QHClass:
        return QHClass(self, {self.h2.zero(): list(v)})

    def qh_unit(self) -> QHClass:
        return self.qh_from_vector(self.fundamental_vector())


class QHClass:
    """Element of QH(M): finite sum of homology vectors times e^E."""

    __slots__ = ("model", "terms")

    def __init__(self, model: ManifoldModel, terms):
        self.model = model
        dim = len(model.basis)
        # the keys of a dict are distinct classes: each nonzero vector is kept as given
        out: dict[H2Class, tuple[int | Fraction, ...]] = {}
        for e, vec in terms.items():
            vec = tuple(map(_exact, vec))
            if len(vec) != dim:
                raise ValueError("vector length does not match the basis")
            if any(vec):
                out[e] = vec
        self.terms = out

    @classmethod
    def _canonical(cls, model, terms) -> QHClass:
        """A class on terms already in the constructor's form (nonzero tuples
        of exact scalars, one per basis class), taken as they are."""
        q = object.__new__(cls)
        q.model, q.terms = model, terms
        return q

    def __add__(self, other: QHClass) -> QHClass:
        if self.model is not other.model:
            raise ValueError("classes belong to different models")
        out = {e: list(v) for e, v in self.terms.items()}
        for e, v in other.terms.items():
            if e in out:
                out[e] = [a + b for a, b in zip(out[e], v)]
            else:
                out[e] = list(v)
        return QHClass(self.model, out)

    def __neg__(self) -> QHClass:
        return QHClass._canonical(
            self.model, {e: tuple(-x for x in v) for e, v in self.terms.items()})

    def __sub__(self, other: QHClass) -> QHClass:
        return self + (-other)

    def scale(self, r) -> QHClass:
        r = _exact(r)
        return QHClass(self.model, {e: [r * x for x in v] for e, v in self.terms.items()})

    def shift(self, e: H2Class) -> QHClass:
        """Multiply by e^e (tensoring with a Novikov exponential)."""
        return QHClass._canonical(self.model, {k + e: v for k, v in self.terms.items()})

    def truncate(self, cutoff) -> QHClass:
        cutoff = _exact(cutoff)
        return QHClass._canonical(
            self.model, {e: v for e, v in self.terms.items() if e.omega >= -cutoff})

    def coefficient(self, e: H2Class) -> list[Fraction]:
        return list(self.terms.get(e, self.model.zero_vector()))

    def classical(self) -> list[Fraction]:
        return self.coefficient(self.model.h2.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QHClass):
            return NotImplemented
        return self.model is other.model and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.model), frozenset((e, v) for e, v in self.terms.items())))

    def homogeneous_degree(self) -> int | None:
        """deg(a e^E) = dim a + 2 c1(E); None when mixed or zero."""
        degs = {self.model.degrees[i] + 2 * e.c1
                for e, v in self.terms.items() for i, x in enumerate(v) if x != 0}
        if len(degs) != 1:
            return None
        d = degs.pop()
        return int(d) if Fraction(d).denominator == 1 else None

    def __repr__(self):
        if not self.terms:
            return f"QH<{self.model.name}: 0>"
        bits = []
        for e in sorted(self.terms, key=lambda k: (-k.omega, k.c1)):
            v = self.terms[e]
            for i, x in enumerate(v):
                if x == 0:
                    continue
                coeff = "" if x == 1 else ("-" if x == -1 else format_rational(x) + "*")
                tag = f"{coeff}{self.model.labels[i]}"
                if not e.is_zero():
                    tag += f"@e^{e!r}"
                bits.append(tag)
        return f"QH<{self.model.name}: " + " + ".join(bits) + ">"
