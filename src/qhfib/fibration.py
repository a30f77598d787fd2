"""Hamiltonian fibrations over the two-sphere.

A fibration model couples a fiber manifold to a total-space manifold whose
lattice covectors are the coupling class (as the area form) and the vertical
Chern class (as c1). Degree-2 bookkeeping runs through three maps: iota
(fiber homology into the total space), a splitting raising degrees by two,
and iota_h2 (fiber lattice into the total lattice).

Section-type Gromov-Witten entries are keyed by offsets from the reference
section; the class actually counted is sigma_ref + offset. The Seidel
operator of the fibration acts on the fiber's quantum homology and is
extracted from the two-point section table (or, as a fallback, from the
three-point table with a fiber-divisor insertion, which meets every section
once).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from ._linalg import apply, identity, invert, rank, reduction, solve, solved
from ._memo import kept
from .errors import (
    FiberMismatch, Inconsistent, MissingInput, NotInvertible, PrimingInvalid, QhfibError,
    TableIncomplete)
from .manifold import ManifoldModel, QHClass, evaluate, orderings
from .novikov import H2Class, H2Lattice, _exact, format_rational
from .quantum import (
    GWTable, QuantumRing, accumulate, check, contract, step, sum_offsets, table_axioms,
    vanishes, verdicts)


class PsiOperator:
    """Module endomorphism of the fiber's quantum homology, stored by its
    images on the classical basis, valid modulo the cutoff."""

    def __init__(self, model: ManifoldModel, images, cutoff):
        self.model = model
        self.images = list(images)
        self.cutoff = _exact(cutoff)

    def shifted(self, offset: H2Class, cutoff) -> PsiOperator:
        """This operator at the section moved by the fiber class `offset`:
        every image times e^offset, valid modulo the cutoff."""
        return PsiOperator(
            self.model, [img.shift(offset).truncate(cutoff) for img in self.images], cutoff)

    def apply(self, a: QHClass) -> QHClass:
        """Psi(a) modulo the cutoff, summed in one dict in the order of a chain
        of QHClass sums: the same terms cancel, equal exponents keep their coordinates."""
        if a.model is not self.model:
            raise ValueError("operator acts on a different model")
        acc, zero = {}, self.model.zero_vector()
        for e, vec in a.terms.items():
            for i, x in enumerate(vec):
                if x != 0:
                    for k, v in self.images[i].terms.items():
                        accumulate(acc, k + e, {t: x * y for t, y in enumerate(v) if y}, zero)
        return self.model.qh(acc).truncate(self.cutoff)

    def compose(self, inner: PsiOperator) -> PsiOperator:
        """self after inner, valid modulo the smaller window."""
        cutoff = min(self.cutoff, inner.cutoff)
        images = [self.apply(img).truncate(cutoff) for img in inner.images]
        return PsiOperator(self.model, images, cutoff)

    def moved(self, cutoff=None) -> int | None:
        """The first basis index whose image is not its own class modulo the
        cutoff, or None."""
        cutoff = self.cutoff if cutoff is None else _exact(cutoff)
        m = self.model
        return next((i for i, img in enumerate(self.images)
                     if img.truncate(cutoff) != m.qh_basis(m.labels[i]).truncate(cutoff)), None)

    def is_identity(self, cutoff=None) -> bool:
        return self.moved(cutoff) is None


@dataclass
class NonsqueezingResult:
    bound: Fraction | None
    window: Fraction
    detail: str


def _normalizing_class(lattice: H2Lattice, u0, c0, name) -> H2Class:
    """The spherical class B of a fiber lattice that normalizes a section
    with coupling value u0 and vertical Chern value c0: omega(B) = -u0, and
    c1(B) = -c0 too when the spherical directions tell area and Chern
    number apart."""
    sph = lattice.spherical_indices()
    u_row = [lattice.omega[i] for i in sph]
    c_row = [lattice.c1[i] for i in sph]
    if any(u_row):
        rows, rhs = [u_row], [-u0]
        if rank([u_row, c_row]) == 2:
            rows.append(c_row)
            rhs.append(-c0)
    elif u0 != 0:
        raise Inconsistent(
            f"{name}: coupling value {format_rational(u0)} cannot be normalized: "
            f"the coupling class vanishes on all {len(sph)} spherical fiber directions"
        )
    else:
        rows, rhs = ([c_row], [-c0]) if any(c_row) else ([], [])
    x = solve(rows, rhs) if rows else [0] * len(sph)
    if x is None:
        raise Inconsistent(f"{name}: section normalization system unsolvable")
    return _spherical_class(lattice, x)


def _spherical_class(lattice: H2Lattice, x) -> H2Class:
    """The class with coordinates x on the spherical generators, 0 elsewhere."""
    coords = [0] * len(lattice.generators)
    for i, xi in zip(lattice.spherical_indices(), x):
        coords[i] = xi
    return lattice.cls(coords)


class FibrationModel:
    def __init__(self, name, fiber: ManifoldModel, fiber_gw: GWTable,
                 total_data: ManifoldModel, iota, splitting, iota_h2, sigma_ref,
                 vertical=None, section=None, base_area=None,
                 product_structure=False):
        """total_data is the total space's ManifoldModel; vertical/section
        are dicts with per-arity entry dicts plus a 'complete_below' item."""
        self.name = name
        self.fiber = fiber
        if fiber_gw.model is not fiber:
            raise ValueError("fiber table attached to a different model")
        self.fiber_gw = fiber_gw
        self.fiber_ring = QuantumRing(fiber, fiber_gw)
        self.total = total_data
        if self.total.n != fiber.n + 1:
            raise ValueError(f"{name}: total space must have dimension dim(fiber)+2")

        self.iota, self.splitting_map, self.iota_h2 = (
            [[_exact(x) for x in row] for row in rows]
            for rows in (iota, splitting, iota_h2))
        if len(self.iota) != len(fiber.basis) or len(self.splitting_map) != len(fiber.basis):
            raise ValueError(f"{name}: iota/splitting need one image per fiber class")
        if len(self.iota_h2) != len(fiber.h2.generators):
            raise ValueError(f"{name}: iota_h2 needs one row per fiber lattice generator")
        for rows, rise, rule in ((self.iota, 0, "iota must preserve degree"),
                                 (self.splitting_map, 2, "splitting must raise degree by 2")):
            for i, row in enumerate(rows):
                if self.total.vector_degree(row) != fiber.degrees[i] + rise:
                    raise ValueError(f"{name}: {rule} ({fiber.labels[i]})")
        if any(len(row) != len(self.total.basis) for row in self.iota + self.splitting_map):
            raise ValueError(f"{name}: iota/splitting images need one entry per total class")
        self._validate_priming()

        # lattice compatibility: coupling and vertical Chern restrict to the
        # fiber's area and Chern covectors
        for gi, g in enumerate(fiber.h2.generators):
            img = self.total.h2.cls(self.iota_h2[gi])
            if img.omega != fiber.h2.omega[gi] or img.c1 != fiber.h2.c1[gi]:
                raise ValueError(
                    f"{name}: iota_h2 image of {g} has (area, chern) "
                    f"({format_rational(img.omega)}, {format_rational(img.c1)}), fiber "
                    f"lattice says ({format_rational(fiber.h2.omega[gi])}, "
                    f"{format_rational(fiber.h2.c1[gi])})"
                )

        self.sigma_ref = sigma_ref if isinstance(sigma_ref, H2Class) else self.total.h2.cls(sigma_ref)
        if self.sigma_ref.lattice is not self.total.h2:
            raise ValueError(f"{name}: sigma_ref {sigma_ref!r} is not on the total lattice")
        if self.total.h2.embed is not None:
            hits = self.total.meet_class(self.iota[fiber.fundamental_index], self.sigma_ref)
            if hits != 1:
                raise ValueError(
                    f"{name}: reference section meets the fiber {format_rational(hits)} "
                    "times, expected exactly once"
                )

        self.vertical_gw = GWTable(self.total, "fiber", **(vertical or {}))
        # the evaluator closes over sigma_ref, not over self: a table holding
        # its own model would leave every dropped model for the cycle collector
        sigma_ref = self.sigma_ref
        self.section_gw = GWTable(self.total, "section", **(section or {}),
                                  section_c1=lambda offset: sigma_ref.c1 + offset.c1 + 2)
        self.vertical_ring = QuantumRing(self.total, self.vertical_gw)
        self.base_area = None if base_area is None else _exact(base_area)
        self.product_structure = bool(product_structure)
        self._kept = {}

    def replace(self, **changes) -> FibrationModel:
        """This fibration with some constructor arguments changed, built by
        the constructor, so every check runs again. The reference section
        and the vertical and section tables carried over are re-keyed by
        coordinates onto the lattice of a new total_data."""
        total = changes.get("total_data", self.total)
        args = dict(
            name=self.name, fiber=self.fiber, fiber_gw=self.fiber_gw, total_data=total,
            iota=self.iota, splitting=self.splitting_map, iota_h2=self.iota_h2,
            sigma_ref=self.sigma_ref.coords, base_area=self.base_area,
            product_structure=self.product_structure,
        )
        for arg, table in (("vertical", self.vertical_gw), ("section", self.section_gw)):
            if arg not in changes:
                args[arg] = table.entries(total.h2)
        args.update(changes)
        return FibrationModel(**args)

    # -- degree-2 plumbing --------------------------------------------------

    def iota_h2_class(self, b: H2Class) -> H2Class:
        """The image of a fiber class. Its area and Chern number are b's:
        the constructor checked that iota_h2 keeps both on every generator,
        and both are linear."""
        coords = apply(b.coords, self.iota_h2, len(self.total.h2.generators))
        return H2Class(self.total.h2, tuple(coords), b.omega, b.c1)

    @kept
    def fiber_class_from_total(self, c: H2Class) -> H2Class | None:
        """A spherical fiber class mapping to c modulo the identification,
        or None; well defined up to the identification. Kept per class."""
        lat = self.fiber.h2
        sph = lat.spherical_indices()
        x = solve([[lat.omega[i] for i in sph], [lat.c1[i] for i in sph]], [c.omega, c.c1])
        return None if x is None else _spherical_class(lat, x)

    def push_forward(self, a: QHClass, matrix) -> QHClass:
        """A fiber quantum class in the total space: each basis class e_i
        goes to matrix[i] (iota or the splitting), exponents through
        iota_h2."""
        if a.model is not self.fiber:
            raise ValueError("push-forward acts on fiber classes")
        width = len(self.total.basis)
        return self.total.qh({self.iota_h2_class(e): apply(vec, matrix, width)
                              for e, vec in a.terms.items()})

    def iota_class(self, a: QHClass) -> QHClass:
        return self.push_forward(a, self.iota)

    def splitting_class(self, a: QHClass) -> QHClass:
        return self.push_forward(a, self.splitting_map)

    def _validate_priming(self):
        """iota(e_i) . iota(e_j) = 0 and iota(e_i) . s(e_j) = e_i . e_j, for
        i and then j in order: each covector met with the sparse images."""
        m, f, k = self.total, self.fiber, len(self.fiber.basis)
        images = [[(t, x) for t, x in enumerate(v) if x] for v in self.iota + self.splitting_map]
        for i, row in enumerate(self.iota):
            cov = m.covector(row)
            meets = [sum(cov.get(t, 0) * x for t, x in v) for v in images]
            for j in range(k):
                if meets[j] != 0:
                    raise PrimingInvalid(
                        f"{self.name}: iota({f.labels[i]}) . iota({f.labels[j]}) = "
                        f"{format_rational(meets[j])}, fiber classes must not meet"
                    )
                got, want = meets[k + j], f.pairing[i][j]
                if got != want:
                    raise PrimingInvalid(
                        f"{self.name}: iota({f.labels[i]}) . s({f.labels[j]}) = "
                        f"{format_rational(got)}, fiber pairing gives {format_rational(want)}"
                    )

    def splitting_pairing(self):
        """q_ij = s(e_i) . s(e_j); zero iff the splitting is corrected."""
        return [[evaluate(cov, b) for b in self.splitting_map]
                for cov in map(self.total.covector, self.splitting_map)]

    def fiber_signature(self):
        # structural, never instance identity: two fixtures loaded from the
        # same data must compose, so table keys compare by coordinates
        f = self.fiber
        return (
            f.labels, f.degrees,
            tuple(tuple(r) for r in f.pairing),
            tuple(sorted(f.triple.items())),
            f.h2.generators, f.h2.omega, f.h2.c1, f.h2.spherical,
            tuple(sorted(
                (idx, cls.coords, v)
                for (idx, cls), v in self.fiber_gw.three_point.items()
            )),
        )

    # -- Seidel operator ------------------------------------------------------

    @kept
    def _loop(self, arity) -> PsiOperator:
        """Psi at the reference section from the section data of one arity,
        valid through its declared window: Psi(e_i) is the sum over the
        fiber classes B of the stored keys of x e^{-B}, x the class with
        x . e_j = n(iota e_i, iota e_j; sigma_ref + B) for every j
        (fiber.solve_pairing), the equation the mirror inverts. The
        "three_point" route inserts the fiber's fundamental class in the
        third slot; it meets every section once. The counts are contracted
        from the stored entries: each in every signed slot order
        (manifold.orderings), pushed through iota transposed. Kept per arity."""
        f, table = self.fiber, self.section_gw
        w = table.window(arity)
        fund = self.iota[f.fundamental_index]
        # iota transposed: back[p] holds the nonzero (i, iota(e_i)_p)
        back = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*self.iota)]
        # the section's own class leads: term order decides which
        # coordinates later sums keep for equal classes
        rows = [{f.h2.zero(): {}} for _ in f.basis]
        groups = table.by_class(arity)
        for key in table.known_key_classes(arity):
            b = self.fiber_class_from_total(key)
            if b is None or key.omega > w:
                continue
            for ck, n in groups[key].items():
                for (p, q, *r), sign in orderings(ck, self.total.degrees):
                    c = sign * n * (fund[r[0]] if r else 1)
                    if not c:
                        continue
                    for i, x in back[p]:
                        row = rows[i].setdefault(b, {})
                        for j, y in back[q]:
                            row[j] = row.get(j, 0) + c * x * y
        images = [f.qh({-b: f.vector(f.solve_pairing(row).items()) for b, row in r.items()})
                  for r in rows]
        return PsiOperator(f, images, w)

    def psi_operator(self, cutoff, sigma: H2Class | None = None) -> PsiOperator:
        """Seidel operator at the section sigma (default: the reference),
        from the two-point section data, or from the three-point data when
        only that covers the window."""
        sigma = self.sigma_ref if sigma is None else sigma
        offset0 = sigma - self.sigma_ref
        b0 = self.fiber_class_from_total(offset0)
        if b0 is None:
            raise QhfibError(
                f"{self.name}: {sigma!r} is not a section class: it differs from "
                "the reference section by a class that is not a fiber class"
            )
        need = offset0.omega + _exact(cutoff)
        for arity in ("two_point", "three_point"):
            w = self.section_gw.window(arity)
            if w is not None and need <= w:
                return self._loop(arity).shifted(b0, cutoff)
        w = self.section_gw.window("two_point")
        raise TableIncomplete(
            f"{self.name}: two_point section data must be complete through "
            f"area {format_rational(need)} "
            f"({'none declared' if w is None else 'have ' + format_rational(w)})"
        )

    def q_class(self, cutoff, sigma: H2Class | None = None) -> QHClass:
        return self.psi_operator(cutoff, sigma).images[self.fiber.fundamental_index]

    # -- normalized section ---------------------------------------------------

    @kept
    def sigma_phi(self) -> H2Class:
        """The section class normalized against the coupling class (and the
        vertical Chern class when the spherical directions allow both), kept."""
        b = _normalizing_class(self.fiber.h2, self.sigma_ref.omega, self.sigma_ref.c1, self.name)
        return self.sigma_ref + self.iota_h2_class(b)

    @kept(convert=_exact)
    def _seidel(self, cutoff) -> tuple[QHClass, QHClass]:
        """(rho, rho^-1) modulo the cutoff, from one verified inverse solve,
        kept per cutoff."""
        q = self.q_class(cutoff, self.sigma_phi())
        inv = self.fiber_ring.inverse_or_none(q, cutoff)
        if inv is None:
            raise NotInvertible(
                f"{self.name}: Seidel element {q!r} is not invertible modulo "
                f"{format_rational(cutoff)}; section data is wrong or incomplete"
            )
        return q, inv

    def rho(self, cutoff) -> QHClass:
        """Seidel element: image of the fundamental class at the normalized
        section; guaranteed invertible or we refuse."""
        return self._seidel(cutoff)[0]

    def rho_inverse(self, cutoff) -> QHClass:
        return self._seidel(cutoff)[1]

    def rho_shape(self, cutoff) -> dict:
        """Is the Seidel element a single basis monomial a . e^E?"""
        q = self.rho(cutoff)
        hits = [(e, i, x) for e, vec in q.terms.items() for i, x in enumerate(vec) if x != 0]
        if len(hits) != 1:
            return {"monomial": False, "value": q}
        e, i, coeff = hits[0]
        return {
            "monomial": True, "value": q, "coefficient": coeff,
            "label": self.fiber.labels[i], "index": i, "exponent": e,
        }

    # -- products on the total space ------------------------------------------

    def vertical_product(self, a: QHClass, b: QHClass, cutoff=None) -> QHClass:
        return self.vertical_ring.product(a, b, cutoff)

    def horizontal_product(self, a: QHClass, b: QHClass, cutoff,
                           sigma: H2Class | None = None) -> QHClass:
        """Section-class product: the three-point section invariants of a and
        b at each section class sigma + B, B a fiber class, contracted with
        weight e^{-B} (`contract`). Past the window check every class read
        lies inside the window, so no slot is read."""
        sigma = self.sigma_ref if sigma is None else sigma
        offset0 = sigma - self.sigma_ref
        m = self.total
        w = self.section_gw.window("three_point")
        cutoff = _exact(cutoff)

        def cover(base):
            need = offset0.omega + base.omega + cutoff
            if w is None or need > w:
                raise TableIncomplete(
                    f"{self.name}: horizontal product needs three-point section "
                    f"data through area {format_rational(need)} "
                    f"({'none declared' if w is None else 'have ' + format_rational(w)})"
                )
            m._pairing_columns()  # a singular pairing raises even when every sum vanishes

        sources = [(offset0 - cls, cls) for cls in [offset0] + [
            cls for cls in self.section_gw.known_key_classes("three_point")
            if cls != offset0 and self.fiber_class_from_total(cls - offset0) is not None
        ]]
        return contract(self.section_gw, a, b, sources, cover, -cutoff).truncate(cutoff)

    # -- restriction to the fiber ----------------------------------------------

    @kept(copy=lambda rows: [list(row) for row in rows])
    def fiber_restriction_matrix(self):
        """Matrix of 'intersect with the fiber' H_*(P) -> H_{*-2}(M), computed
        through the vertical quantum module structure (which degenerates to
        the classical cap against iota[M] here). It does not depend on the
        cutoff, so it is kept; each call returns a fresh copy of the rows."""
        return tuple(map(tuple, self._restriction_rows()))

    @kept
    def _iota_reduction(self):
        """iota transposed, reduced once (`_linalg.reduction`): its E solves
        every preimage and writes the mirror's counts, its pivots give rank(iota)."""
        return reduction([list(col) for col in zip(*self.iota)])

    def _iota_preimage(self, vec):
        """The fiber vector x with iota(x) = vec, or None."""
        return solved(self._iota_reduction(), vec)

    @kept
    def _iota_preimages(self) -> tuple:
        """The nonzero (a, x) of the iota preimage of each total basis
        class (None off iota's image), solved once and kept."""
        pres = (self._iota_preimage(self.total.basis_vector(lbl)) for lbl in self.total.labels)
        return tuple(None if x is None else tuple((a, y) for a, y in enumerate(x) if y)
                     for x in pres)

    def _restriction_rows(self):
        m = self.total
        fund = self.fiber.fundamental_index
        rows = []
        for lbl in m.labels:
            image = self.vertical_product(m.qh_basis(lbl), m.qh_from_vector(self.iota[fund]))
            if any(not e.is_zero() for e in image.terms):
                raise Inconsistent(
                    f"{self.name}: fiber restriction of {lbl} has quantum "
                    "corrections; the vertical table breaks the divisor axiom"
                )
            x = self._iota_preimage(image.classical())
            if x is None:
                raise Inconsistent(f"{self.name}: {lbl} . [fiber] is not a fiber class")
            rows.append(x)
        return rows

    def wang_report(self) -> dict:
        """Exactness of  H(M) -iota-> H(P) -cap fiber-> H(M)  rank by rank,
        rank(iota) the pivots of its kept reduction."""
        failures = []
        f, m = self.fiber, self.total
        if len(m.basis) != 2 * len(f.basis):
            failures.append(
                f"total space has {len(m.basis)} classes, expected twice the "
                f"fiber's {len(f.basis)}"
            )
        iota_rank = len(self._iota_reduction()[1])
        if iota_rank != len(f.basis):
            failures.append("iota is not injective")
        try:
            d = self.fiber_restriction_matrix()
        except Inconsistent as exc:
            return check(failures + [str(exc)])
        d_rank = rank(d)
        if d_rank != len(f.basis):
            failures.append("restriction to the fiber is not surjective")
        if iota_rank + d_rank != len(m.basis):
            failures.append(
                f"rank(iota) + rank(restriction) = {iota_rank}+{d_rank} != "
                f"{len(m.basis)} = dim H(P): sequence not exact"
            )
        return check(failures)

    # -- identities tying the tables together -----------------------------------

    def module_report(self, cutoff, sigma: H2Class | None = None) -> dict:
        """Psi(a) = Q * a and Psi(a *: b) = Psi(a) * b over the basis. Both
        sides are summed exactly from the fiber ring's kept basis products,
        and only a failing identity builds them as classes (`verdicts`).
        Raises TableIncomplete when the tables do not cover the cutoff."""
        failures = []
        op = self.psi_operator(cutoff, sigma)
        ring = self.fiber_ring
        qcls = op.images[self.fiber.fundamental_index]

        def identities():  # whether each identity holds, in order
            k, c = len(self.fiber.basis), op.cutoff
            where = {}  # each exponent of the images, numbered
            images = [[(where.setdefault(e, len(where)), t, x) for e, vec in img.terms.items()
                       for t, x in enumerate(vec) if x] for img in op.images]
            ring._cover(c + max([0, *(e.omega for e in where)]))  # the products' highest check
            rows, cols = ring.basis_table(True)
            ids, exps = {}, list(where)
            right = sum_offsets(ids, exps, ring.exponents, c, k)  # an image term, then a block
            blocks = [e if e.omega >= -c else None for e in ring.exponents]  # a product's blocks
            left = sum_offsets(ids, blocks, exps, c, k)  # a block, then an image term
            unit = [((0, t, 1),) for t in range(k)]  # e_t itself
            q = images[self.fiber.fundamental_index]
            for i in range(k):  # Psi(e_i) - Q * e_i
                yield vanishes((images[i], unit, right, 1), (q, cols[i], right, -1))
            for i, j in product(range(k), repeat=2):  # Psi(e_i * e_j) - Psi(e_i) * e_j
                yield vanishes((rows[i][j], images, left, 1), (images[i], cols[j], right, -1))

        holds = verdicts(identities())
        for i, lbl in enumerate(self.fiber.labels):
            if not next(holds):
                want = ring.product(qcls, self.fiber.qh_basis(lbl), cutoff)
                if op.images[i] != want:
                    failures.append(f"Psi({lbl}) = {op.images[i]!r} but Q*{lbl} = {want!r}")
        for i, la in enumerate(self.fiber.labels):
            for j, lb in enumerate(self.fiber.labels):
                if next(holds):
                    continue
                b = self.fiber.qh_basis(lb)
                left = op.apply(ring.product(self.fiber.qh_basis(la), b, cutoff))
                right = ring.product(op.images[i], b, cutoff)
                if left != right:
                    failures.append(f"Psi({la}*{lb}) = {left!r} != Psi({la})*{lb} = {right!r}")
        return check(failures)

    def vertical_report(self, cutoff) -> dict:
        """iota is a ring map and the splitting a module map for the vertical
        product, iota(e_i) *v iota(e_j) = 0 and s(e_i) *v iota(e_j) =
        iota(e_i * e_j), summed exactly from the kept basis products of both
        rings; only a failing pair builds its sides as classes (`verdicts`).
        Raises TableIncomplete when the tables do not cover the cutoff."""
        failures = []
        ring = self.fiber_ring

        def identities():  # whether each pair meets both identities, in order
            vr, c = self.vertical_ring, _exact(cutoff)
            ring._cover(c)
            vr._cover(c)
            rows, cols = ring.basis_table(True)[0], vr.basis_table(True)[1]
            iotas = [[(0, t, x) for t, x in enumerate(v) if x] for v in self.iota]
            splits = [[(0, t, x) for t, x in enumerate(v) if x] for v in self.splitting_map]
            zero, size, ids = self.total.h2.zero(), len(self.total.basis), {}
            vsums = sum_offsets(ids, [zero], vr.exponents, c, size)  # a class, then a block
            lifted = [self.iota_h2_class(e) for e in ring.exponents]  # the fiber's blocks in P
            fsums = sum_offsets(ids, lifted, [zero], c, size)
            for i, j in product(range(len(self.fiber.basis)), repeat=2):
                by = [(cols[q], x) for _, q, x in iotas[j]]  # *v iota(e_j), column by column
                yield (vanishes(*[(iotas[i], col, vsums, x) for col, x in by])
                       and vanishes((rows[i][j], iotas, fsums, -1),
                                    *[(splits[i], col, vsums, x) for col, x in by]))

        holds = verdicts(identities())
        for i, la in enumerate(self.fiber.labels):
            for j, lb in enumerate(self.fiber.labels):
                if next(holds):
                    continue
                a, b = self.fiber.qh_basis(la), self.fiber.qh_basis(lb)
                fiber_prod = ring.product(a, b, cutoff)
                left = self.vertical_product(self.iota_class(a), self.iota_class(b), cutoff)
                mid = self.vertical_product(self.splitting_class(a), self.iota_class(b), cutoff)
                want = self.iota_class(fiber_prod).truncate(cutoff)
                if not left.is_zero():
                    failures.append(
                        f"iota({la}) *v iota({lb}) = {left!r}, fiber classes in "
                        "distinct fibers must multiply to zero"
                    )
                if mid != want:
                    failures.append(
                        f"s({la}) *v iota({lb}) = {mid!r} != iota({la}*{lb}) = {want!r}"
                    )
        return check(failures)

    def vertical_table_report(self) -> dict:
        """Entry-level check of the vertical table against fiber data: at
        each vertical key class, the fiber class B under it, every entry
        n(i, j, k) with e_i = iota(pre) (j <= k) equals the fiber sum of
        pre[a] d[j][b] d[k][c] n_M(a, b, c; B), d the restriction to the
        fiber. Both tables are read from their kept scattered rows, signed
        as `query` signs them; for each (i, j) the row over c of the sum
        over (a, b) is built once, and each k sums it over the support of
        d[k]. Outside a table's declared window an unstored slot is read
        through `three`, and its TableIncomplete text skips the entry. The
        iota preimages are kept per model (`_iota_preimages`)."""
        m, fgw, vgw = self.total, self.fiber_gw, self.vertical_gw
        failures, skips = [], []
        try:
            d = self.fiber_restriction_matrix()
        except Inconsistent as exc:
            return check([str(exc)])
        classes = vgw.known_key_classes("three_point")
        pres = self._iota_preimages() if classes else ()
        supp = [[(t, x) for t, x in enumerate(row) if x] for row in d]

        def gap(table, slots, cls):  # the text of an unstored slot outside the window
            try:
                table.three(*slots, cls)
            except TableIncomplete as exc:
                return str(exc)

        def open_at(table, cls):
            w = table.window("three_point")
            return w is None or cls.omega > w

        for cls in classes:
            b = self.fiber_class_from_total(cls)
            if b is None:
                failures.append(f"vertical key {cls!r} is not a fiber class")
                continue
            fiber, vert = fgw._scattered(b), vgw._scattered(cls)
            f_open, v_open = open_at(fgw, b), open_at(vgw, cls)
            for i, pre in enumerate(pres):
                if pre is None:
                    continue
                for j in range(len(m.basis)):
                    # row[c]: the sum over the stored slots; gaps[c]: the unstored (a, b, c)
                    row, gaps, got_row = {}, {}, vert.get((i, j), {})
                    for a, x in pre:
                        for b2, y in supp[j]:
                            stored = fiber.get((a, b2), {})
                            for c, v in stored.items():
                                row[c] = row.get(c, 0) + x * y * v
                            if f_open:
                                for c in range(len(self.fiber.basis)):
                                    if c not in stored:
                                        gaps.setdefault(c, []).append((a, b2, c))
                    for k in range(j, len(m.basis)):
                        got = got_row.get(k)
                        if got is None:
                            if v_open:
                                skips.append(gap(vgw, (i, j, k), cls))
                                continue
                            got = 0
                        lost = [s for c, _ in supp[k] for s in gaps.get(c, ())]
                        if lost:
                            skips.extend(gap(fgw, s, b) for s in lost)
                            continue
                        want = sum((y * row[c] for c, y in supp[k] if c in row), 0)
                        if want != got:
                            failures.append(
                                f"vertical ({m.labels[i]},{m.labels[j]},{m.labels[k]}; "
                                f"{cls!r}) = {format_rational(got)}, fiber data forces "
                                f"{format_rational(want)}"
                            )
        return check(failures, skips)

    def section_divisor_report(self) -> dict:
        """The fundamental-class and divisor axioms of the section table
        (`quantum.table_axioms`): a key off counts curves in sigma_ref + off."""
        return table_axioms(self.section_gw, lambda off: self.sigma_ref + off)

    # -- loop invariants --------------------------------------------------------

    @kept
    def _lattice_embed_inverse(self):
        """The inverse of the lattice embedding (rows: generators, columns:
        degree-2 basis classes), kept."""
        emb = self.total.h2.embed
        if emb is None:
            raise MissingInput(f"{self.name}: total lattice has no degree-2 embedding")
        inv = invert([list(row) for row in emb]) if len(emb) == len(emb[0]) else None
        if inv is None:
            raise MissingInput(
                f"{self.name}: lattice generators must form a basis of degree-2 homology"
            )
        return inv

    def _covector_on_deg2(self, values):
        """The covector on the degree-2 basis with the given generator values."""
        return [sum(map(mul, row, values)) for row in self._lattice_embed_inverse()]

    def _pd_of_covector(self, cov_deg2):
        m = self.total
        return m.vector(m.solve_pairing(dict(zip(m.indices_of_degree(2), cov_deg2))).items())

    def _power_cap(self, factors):
        """Iterated cap of Poincare duals of degree-2 covectors."""
        m = self.total
        x = self._pd_of_covector(factors[0])
        for f in factors[1:]:
            x = m.cap(x, self._pd_of_covector(f))
        return x

    def invariant_Ic(self):
        """Vertical Chern value of the reference section modulo the fiber's
        minimal Chern number. Returns (value, modulus)."""
        n = self.fiber.h2.minimal_chern_number()
        c = self.sigma_ref.c1
        if c.denominator != 1:
            raise QhfibError(f"{self.name}: reference section must be integral")
        c = c.numerator
        return ((c % n) if n else c, n)

    def invariant_Iu(self):
        """Coupling-power class: dual of u^n in lattice coordinates, reduced
        modulo the spherical generators. Dict over non-spherical generators."""
        u = self._covector_on_deg2(self.total.h2.omega)
        n = self.fiber.n
        x = self._power_cap([u] * n)
        deg2 = self.total.indices_of_degree(2)
        lat = self.total.h2
        y = apply([x[idx] for idx in deg2], self._lattice_embed_inverse(), len(lat.generators))
        return {
            lat.generators[g]: y[g]
            for g in range(len(lat.generators))
            if not lat.spherical[g]
        }

    def invariant_Ik(self, k: int) -> Fraction:
        """Mixed characteristic number int c^k u^(n+1-k) over the total space."""
        n = self.fiber.n
        if not (0 <= k <= n + 1):
            raise QhfibError(f"k must lie in 0..{n + 1}")
        u = self._covector_on_deg2(self.total.h2.omega)
        c = self._covector_on_deg2(self.total.h2.c1)
        x = self._power_cap([c] * k + [u] * (n + 1 - k))
        return self.total.intersect(x, self.total.fundamental_vector())

    # -- nonsqueezing -------------------------------------------------------------

    def nonsqueezing(self) -> NonsqueezingResult:
        """Least symplectic area of a section class through a generic point
        with nonvanishing three-point invariant; an upper bound for embedded
        ball capacity. Strictly three-point: no divisor fallback, missing
        data is reported, never guessed."""
        w = self.section_gw.window("three_point")
        if w is None:
            raise TableIncomplete(
                f"{self.name}: three-point section table declares no completeness; "
                "the minimal through-point invariant cannot be certified"
            )
        if self.base_area is None:
            raise QhfibError(
                f"{self.name}: no base area declared, the section energies are "
                "only defined relative to it"
            )
        pt = self.total.point_index
        hits = [
            cls.omega
            for (idx, cls), val in self.section_gw.three_point.items()
            if pt in idx and val != 0
        ]
        if not hits:
            return NonsqueezingResult(
                None, w,
                f"all through-point section invariants vanish through area {format_rational(w)}",
            )
        bound = self.base_area + self.sigma_ref.omega + min(hits)
        return NonsqueezingResult(bound, w, "bound attained by a stored invariant")

    def structure_report(self) -> dict:
        failures = []
        try:
            self.total.dual_basis()
            self.fiber.dual_basis()
        except QhfibError as exc:  # a degenerate pairing
            failures.append(str(exc))
        q = self.splitting_pairing()
        if any(any(row) for row in q):
            failures.append(
                "splitting is primed but not corrected: s(e_i).s(e_j) != 0 "
                f"(q = {[[format_rational(x) for x in row] for row in q]})"
            )
        return check(failures)


def composable(f: FibrationModel, g: FibrationModel):
    if f.fiber_signature() != g.fiber_signature():
        raise FiberMismatch(
            f"{f.name} and {g.name} do not share a fiber model; composition undefined"
        )


class LoopComposite:
    """Glued loop: the shared fiber plus the composite operator at the glued
    reference section, valid modulo the composite window."""

    def __init__(self, name, fiber, fiber_ring, loop, u0, c0, window):
        self.name = name
        self.fiber = fiber
        self.fiber_ring = fiber_ring
        self.loop = loop  # PsiOperator: Psi_g after Psi_f
        self.u0 = u0
        self.c0 = c0
        self.window = window
        self._kept = {}

    def psi_operator(self, cutoff, offset: H2Class | None = None) -> PsiOperator:
        cutoff = _exact(cutoff)
        offset = self.fiber.h2.zero() if offset is None else offset
        if self.window < offset.omega + cutoff:
            raise TableIncomplete(
                f"{self.name}: composite table complete through "
                f"{format_rational(self.window)}, need "
                f"{format_rational(offset.omega + cutoff)}"
            )
        return self.loop.shifted(offset, cutoff)

    @kept
    def normalized_offset(self) -> H2Class:
        return _normalizing_class(self.fiber.h2, self.u0, self.c0, self.name)

    def rho(self, cutoff) -> QHClass:
        op = self.psi_operator(cutoff, self.normalized_offset())
        q = op.images[self.fiber.fundamental_index]
        if not self.fiber_ring.is_unit(q, cutoff):
            raise NotInvertible(f"{self.name}: composite Seidel element not invertible")
        return q


def compose(f: FibrationModel, g: FibrationModel, cutoff):
    """Glue g after f at their reference sections. Returns the composite
    loop plus a check record whose details are one step line each for the
    composite loop, truncated once, against Psi_g after Psi_f at the cutoff
    and for the normalization gluing."""
    composable(f, g)
    if g.fiber is not f.fiber:
        # the fibers agree structurally: rebuild g on f's, so classes compare
        g = g.replace(fiber=f.fiber, fiber_gw=f.fiber_gw)
    cutoff = _exact(cutoff)
    fiber = f.fiber
    name = f"{g.name}*{f.name}"

    w_f = f.section_gw.window("two_point")
    w_g = g.section_gw.window("two_point")
    if w_f is None or w_g is None:
        raise TableIncomplete("composition needs declared-complete two-point tables")
    loop_f, loop_g = f._loop("two_point"), g._loop("two_point")

    # a term e^E of one factor with omega(E) > 0 meets the other's terms
    # down to area -cutoff - omega(E): m is minus the largest such area, or 0
    def reach(loop):
        return -max([0] + [e.omega for img in loop.images for e in img.terms])

    m_f, m_g = reach(loop_f), reach(loop_g)
    window = min(w_f + m_g, w_g + m_f)
    if window < cutoff:
        raise TableIncomplete(
            f"composite table only derivable through {format_rational(window)}, "
            f"need {format_rational(cutoff)}"
        )

    # each loop is valid through its own window, which contains the
    # composite window: m_f, m_g <= 0
    comp = LoopComposite(
        name, fiber, f.fiber_ring, loop_g.compose(loop_f),
        u0=f.sigma_ref.omega + g.sigma_ref.omega,
        c0=f.sigma_ref.c1 + g.sigma_ref.c1,
        window=window,
    )

    report = check([])
    composed = g.psi_operator(cutoff - m_f).compose(f.psi_operator(cutoff - m_g))
    step(
        report, "convolution-matches-operator-composition",
        comp.psi_operator(cutoff).images == [img.truncate(cutoff) for img in composed.images],
        "two-point convolution against Psi_g after Psi_f",
    )
    try:
        off = comp.normalized_offset()
        u_norm = comp.u0 + off.omega
        c_norm = comp.c0 + off.c1
        sf, sg = f.sigma_phi(), g.sigma_phi()
        glued_u = sf.omega + sg.omega
        glued_c = sf.c1 + sg.c1
        step(
            report, "normalization-glues",
            (u_norm == glued_u == 0) and (c_norm == glued_c),
            f"composite normalized coupling {format_rational(u_norm)}, "
            f"glued sections give {format_rational(glued_u)} "
            f"(chern: {format_rational(c_norm)} vs {format_rational(glued_c)})",
        )
    except Inconsistent as exc:
        step(report, "normalization-glues", False, str(exc))
    return comp, report


@kept(convert=_exact)
def mirror(fib: FibrationModel, cutoff) -> FibrationModel:
    """The reversed loop: same total-space topology, coupling and vertical
    Chern values flipped in the section direction, two-point section data
    synthesized from the inverse Seidel operator. The synthesized table is
    complete exactly through the build cutoff. The returned fibration is
    kept per (fibration, cutoff) and shared by every later call."""
    return _build_mirror(fib, cutoff)


def _build_mirror(fib: FibrationModel, cutoff: Fraction) -> FibrationModel:
    """Each count v_ij = (Qinv * e_i)_B . e_j adds r_i[p] r_j[q] v_ij at (p, q; -B),
    r_i row i of E in iota's kept reduction: r_i . iota(e_j) = delta_ij for an
    injective iota, so `_loop` reads v_ij back on any basis of the total space."""
    t = fib.total
    lat = t.h2
    if lat.embed is None:
        raise MissingInput(f"{fib.name}: mirror needs an embedded total lattice")
    fund = fib.iota[fib.fiber.fundamental_index]
    fiber_meet = [t.meet_class(fund, lat.cls(e)) for e in identity(len(lat.generators))]
    u0, c0 = fib.sigma_ref.omega, fib.sigma_ref.c1
    new_omega = tuple(w - 2 * x * u0 for w, x in zip(lat.omega, fiber_meet))
    new_c1 = tuple(c - 2 * x * c0 for c, x in zip(lat.c1, fiber_meet))
    new_lat = H2Lattice(lat.generators, new_omega, new_c1, lat.spherical, lat.embed)
    new_total = ManifoldModel(
        t.name + "~", t.n, t.basis,
        [row[:] for row in t.pairing],
        dict(t.triple), new_lat, t.triple_complete,
    )

    # Psi of the mirror at its reference section is the inverse operator
    qref = fib.q_class(cutoff)
    qinv = fib.fiber_ring.inverse(qref, cutoff)
    f = fib.fiber
    columns = fib._iota_reduction()[0]
    r = [[(p, x) for p, col in enumerate(columns) for row, x in col if row == i]
         for i in range(len(f.basis))]
    two = {}
    for i in range(len(f.basis)):
        img = fib.fiber_ring.product(qinv, f.qh_basis(f.labels[i]), cutoff)
        for e, vec in img.terms.items():
            off_new = new_lat.cls(fib.iota_h2_class(-e).coords)
            cov = f.covector(vec)
            for j in range(len(f.basis)):
                val = cov.get(j, 0)
                if val == 0:
                    continue
                for p, x in r[i]:
                    for q, y in r[j]:
                        key = ((p, q), off_new)
                        two[key] = two.get(key, 0) + x * y * val
    return fib.replace(
        name=fib.name + "~", total_data=new_total,
        section={"two_point": two, "complete_below": {"two_point": cutoff}},
        product_structure=False,
    )
