"""Splittings of the total-space homology and the ring-splitting test.

A splitting sends each fiber class x to a degree x+2 class s(x) meeting the
fiber classes by the fiber's own pairing. A primed splitting may have
nonzero self-pairings q_ij = s'(e_i).s'(e_j); adding fiber-class corrections
lam_ij iota(f_j) kills q, and the correction burden can always be pushed
onto the higher-degree class of each complementary pair.

The ring-splitting check asks whether the quantum homology of the total
space splits off the fiber's: the hypothesis is that every listed
Gromov-Witten invariant of the fiber and every vertical invariant vanishes,
and the conclusion is verified through a horizontally-multiplicative
section map built from the Seidel element.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from ._linalg import apply, invert
from .errors import QhfibError, TableIncomplete
from .fibration import FibrationModel
from .manifold import ManifoldModel, graded_matrix, kunneth
from .novikov import H2Lattice, format_rational
from .quantum import ARITIES, GWTable, QuantumRing, check, step


def splitting_correction(degrees, n, q):
    """Coefficients lam with s(e_i) = s'(e_i) + sum_j lam[i][j] iota(f_j)
    isotropic, given the defect matrix q on a fiber of dimension 2n.

    Nonzero defects must sit in complementary degrees d_i + d_j = 2n - 2;
    anything else cannot come from a graded splitting and is rejected.
    """
    k = len(degrees)
    lam = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            v = Fraction(q[i][j])
            if v == 0:
                continue
            if degrees[i] + degrees[j] != 2 * n - 2:
                raise ValueError(
                    f"defect at degrees ({degrees[i]}, {degrees[j]}) cannot "
                    "arise from a graded splitting"
                )
            if degrees[i] < degrees[j]:
                continue
            if degrees[i] == degrees[j]:
                lam[i][j] = -Fraction(1, 2) * (-1) ** (n - 1) * v
            else:
                lam[i][j] = -((-1) ** degrees[j]) * v
    return lam


def correction_valid(degrees, q, lam) -> bool:
    """The corrected self-pairing vanishes:
    q_ij + lam_ij (-1)^{d_j} + lam_ji = 0 for all i, j."""
    k = len(degrees)
    for i in range(k):
        for j in range(k):
            if Fraction(q[i][j]) + lam[i][j] * (-1) ** degrees[j] + lam[j][i] != 0:
                return False
    return True


def corrected_splitting(fib: FibrationModel) -> FibrationModel:
    """The same fibration with its splitting corrected to be isotropic."""
    q = fib.splitting_pairing()
    if not any(any(row) for row in q):
        return fib
    f = fib.fiber
    lam = splitting_correction(f.degrees, f.n, q)
    dual = f.dual_basis()
    new_s = []
    for lam_i, row in zip(lam, fib.splitting_map):
        fix = apply(apply(lam_i, dual, len(f.basis)), fib.iota, len(fib.total.basis))
        new_s.append([x + y for x, y in zip(row, fix)])
    return fib.replace(splitting=new_s)


def ring_split_check(fib: FibrationModel, cutoff) -> dict:
    """Does QH(P) split off QH(M) through a section map?

    Hypothesis: every listed fiber invariant and vertical invariant is zero.
    When it holds, the Seidel element is a classical monomial mu.a e^E, and
    s_A(x) = (1/mu) iota(x) *h iota([M]) at the section sigma_phi + iota(A),
    A = -E, must restrict to the identity and be isotropic for both the
    pairing and the triple form. The check record holds one step line per
    identity; an honest failure is recorded, never raised. Missing data is
    raised (TableIncomplete), as in every other check, so a suite records a
    skip. When the hypothesis fails the record is a skip listing the
    nonvanishing invariants in table order.
    """
    offending = []
    for label, table in (("fiber", fib.fiber_gw), ("vertical", fib.vertical_gw)):
        for arity in ("two_point", "three_point", "four_point_chi"):
            for (idx, cls), val in table._store(arity).items():
                names = ",".join(table.model.labels[i] for i in idx)
                offending.append(
                    f"{label} {arity} ({names}; {cls!r}) = {format_rational(val)}"
                )
    if offending:
        return {"status": "skip", "details": offending}
    report = check([])
    step(report, "hypothesis", True, "all listed fiber and vertical invariants vanish")

    try:
        shape = fib.rho_shape(cutoff)
    except TableIncomplete:
        raise
    except QhfibError as exc:
        step(report, "seidel-element", False, str(exc))
        return report
    if not shape["monomial"]:
        step(
            report, "seidel-element", False,
            f"Seidel element is not a basis monomial: {shape['value']!r}"
        )
        return report
    step(report, "seidel-element", True, f"rho = {shape['value']!r}")
    mu = shape["coefficient"]
    a_cls = -shape["exponent"]
    sigma_a = fib.sigma_phi() + fib.iota_h2_class(a_cls)

    m, f = fib.total, fib.fiber
    d = fib.fiber_restriction_matrix()
    images = []
    for i, lbl in enumerate(f.labels):
        img = fib.horizontal_product(
            fib.iota_class(f.qh_basis(lbl)), fib.iota_class(f.qh_unit()), cutoff, sigma_a,
        ).scale(Fraction(1) / mu)
        if any(not e.is_zero() for e in img.terms):
            step(
                report, "section-map", False,
                f"s({lbl}) = {img!r} has quantum corrections, not a classical class",
            )
        images.append(img)
    if report["status"] == "fail":
        return report
    step(report, "section-map", True, "s(x) classical for every basis class")

    basis = [(lbl, img.classical()) for lbl, img in zip(f.labels, images)]
    for i, (lbl, x) in enumerate(basis):
        restr = apply(x, d, len(f.basis))
        want = [Fraction(int(j == i)) for j in range(len(f.basis))]
        if restr != want:
            step(
                report, "restricts-to-identity", False,
                f"s({lbl}) restricts to {restr}, not {lbl}",
            )
            break
    else:
        step(report, "restricts-to-identity", True, "")

    # the first pair (triple) of basis images that meet, if any
    meet = next((f"s({la}) . s({lb}) != 0" for la, x in basis for lb, y in basis
                 if m.intersect(x, y)), "")
    step(report, "pairing-isotropic", not meet, meet)
    meet = next((f"t(s({la}), s({lb}), s({lc})) != 0"
                 for la, x in basis for lb, y in basis for lc, z in basis
                 if m.triple_form(x, y, z)), "")
    step(report, "triple-isotropic", not meet, meet)

    mm = fib.horizontal_product(
        fib.iota_class(f.qh_unit()), fib.iota_class(f.qh_unit()), cutoff, sigma_a)
    want = m.qh_unit().scale(mu)
    step(report, "fiber-squares-to-total", mm == want, f"[M] *h [M] = {mm!r}, expected {want!r}")

    ic, _ = fib.invariant_Ic()
    step(report, "chern-invariant-vanishes", ic == 0, f"Ic = {ic}")
    iu = fib.invariant_Iu()
    step(
        report, "coupling-invariant-vanishes",
        all(v == 0 for v in iu.values()),
        f"Iu = {{{', '.join(f'{k}: {format_rational(v)}' for k, v in iu.items())}}}",
    )
    return report


# -- trivial bundles -------------------------------------------------------


def product_section_tables(ring: QuantumRing, lift):
    """The vertical and section tables of the trivial bundle fiber x sphere,
    for the fiber and fiber table of `ring`, in FibrationModel constructor
    form: {arity: {((i, j, ...), lift(B)): n}, "complete_below": ...}, with
    s(e_i) at total index k + i and the classical entries at
    lift(fiber.h2.zero()). Vertical entries push the fiber's three-point
    data through the splitting slots; section entries follow the product
    formula (the base factor contributes only through full point
    constraints).

    Every index tuple is emitted sorted: fiber keys are stored sorted, the
    loops below run in increasing order, and iota slots (< k) come before
    splitting slots (>= k). So loading the tables into a GWTable keeps every
    key and value (Koszul sign +1), and they compare directly with a stored
    table's entries."""
    fiber, fiber_gw = ring.model, ring.table
    k = len(fiber.basis)
    zero = fiber.h2.zero()

    vertical2 = {}
    for ((x, y), cls), val in fiber_gw.two_point.items():
        vertical2[(x, k + y), lift(cls)] = val
        vertical2[(y, k + x), lift(cls)] = val

    vertical3 = {}
    for ((x, y, z), cls), val in fiber_gw.three_point.items():
        # the iota slot can sit on any of the three insertions
        for a, b, c in ((x, y, z), (y, x, z), (z, x, y)):
            vertical3[(a, k + b, k + c), lift(cls)] = val

    section2 = {(ij, lift(zero)): x for ij, x in fiber.pairing_entries().items()}

    section3 = {}
    for i, j, t in combinations_with_replacement(range(k), 3):
        v = fiber.triple_eval(i, j, t)
        if v != 0:
            section3[(i, j, t), lift(zero)] = v
    for (idx, cls), val in fiber_gw.three_point.items():
        section3[idx, lift(cls)] = val

    section4 = {}
    for cls in [zero, *ring._chi_candidate_classes()]:
        target = 3 * 2 * fiber.n - 2 * cls.c1
        for i, j, t in combinations_with_replacement(range(k), 3):
            for y in range(k):
                if sum(fiber.degrees[x] for x in (i, j, t, y)) != target:
                    continue
                if cls.is_zero():  # chi candidates all have positive area
                    vs = [fiber.basis_vector(fiber.labels[x]) for x in (i, j, t, y)]
                    val = fiber.intersect(fiber.cap(fiber.cap(vs[0], vs[1]), vs[2]), vs[3])
                else:
                    try:
                        val = ring._split_four(i, j, t, y, cls)
                    except TableIncomplete:
                        raise TableIncomplete(f"{fiber.name}: cannot synthesize the "
                                              f"four-point data at {cls!r}") from None
                if val != 0:
                    section4[(i, j, t, k + y), lift(cls)] = val

    complete = dict.fromkeys(ARITIES, fiber_gw.window("three_point"))
    # no vertical four-point entries are synthesized, so none are declared complete
    vertical = {"two_point": vertical2, "three_point": vertical3,
                "complete_below": {**complete, "four_point_chi": None}}
    section = {"two_point": section2, "three_point": section3, "four_point_chi": section4,
               "complete_below": complete}
    return vertical, section


def _product_layout(k):
    """The standard iota and splitting of a trivial bundle whose total basis
    is the fiber basis followed by its s(...) copies: e_i -> e_i and
    s(e_i) -> e_{k+i}."""
    iota = [[Fraction(int(t == i)) for t in range(2 * k)] for i in range(k)]
    split = [[Fraction(int(t == k + i)) for t in range(2 * k)] for i in range(k)]
    return iota, split


def product_fixture(fiber: ManifoldModel, fiber_gw: GWTable, base_area,
                    name=None) -> FibrationModel:
    """The trivial bundle fiber x sphere with the constant loop."""
    if fiber.h2.embed is None:
        raise ValueError("trivial bundles need an embedded fiber lattice")
    emb = [list(r) for r in fiber.h2.embed]
    if len(emb) != len(emb[0]) or invert(emb) is None:
        raise ValueError("fiber lattice generators must be a degree-2 basis")
    name = name or f"{fiber.name}xS2"
    k = len(fiber.basis)
    basis = list(fiber.basis) + [(f"s({lbl})", d + 2) for lbl, d in fiber.basis]

    # the cross products with the base sphere's classical data, point first:
    # pt . [S2] = 1 and t(pt, [S2], [S2]) = 1; e_i x pt -> i, e_i x [S2] -> k + i
    def cross(first, second):
        return kunneth(first, second, fiber.degrees, (0, 2), lambda i, s: s * k + i)

    pairing = graded_matrix(cross(fiber.pairing_entries(), {(0, 1): 1}), [d for _, d in basis])
    triple = cross(fiber.triple, {(0, 1, 1): 1})

    # one more generator, the section class s(point), the last degree-2 class
    g = len(fiber.h2.generators)
    h2 = H2Lattice(
        generators=tuple(fiber.h2.generators) + ("sec",),
        omega=tuple(fiber.h2.omega) + (Fraction(0),),
        c1=tuple(fiber.h2.c1) + (Fraction(0),),
        spherical=tuple(fiber.h2.spherical) + (True,),
        embed=tuple(tuple(row) + (Fraction(0),) for row in fiber.h2.embed)
        + ((Fraction(0),) * len(emb[0]) + (Fraction(1),),),
    )
    total = ManifoldModel(name, fiber.n + 1, basis, pairing, triple, h2)
    iota, split = _product_layout(k)
    iota_h2 = [[Fraction(int(t == gi)) for t in range(g + 1)] for gi in range(g)]
    sigma_ref = [Fraction(0)] * g + [Fraction(1)]
    vertical, section = product_section_tables(
        QuantumRing(fiber, fiber_gw), lambda b: h2.cls(b.coords + (Fraction(0),)))
    return FibrationModel(
        name, fiber, fiber_gw, total, iota, split, iota_h2, sigma_ref,
        vertical=vertical, section=section,
        base_area=base_area, product_structure=True,
    )


def verify_product_pattern(fib: FibrationModel) -> dict:
    """For a declared trivial bundle, rebuild the expected vertical and
    section tables from fiber data and diff them against what is stored."""
    if not fib.product_structure:
        return check([], ["fibration does not declare a product structure"])
    if (fib.iota, fib.splitting_map) != _product_layout(len(fib.fiber.basis)):
        return check([], ["product check needs the standard iota/splitting layout"])
    vertical, section = product_section_tables(fib.fiber_ring, fib.iota_h2_class)
    failures = []
    for label, table, expected in (("vertical", fib.vertical_gw, vertical),
                                   ("section", fib.section_gw, section)):
        for arity in ARITIES:
            if arity not in expected:
                continue
            want, have = expected[arity], table._store(arity)
            for key in sorted(set(want) | set(have), key=repr):
                w = want.get(key, Fraction(0))
                h = have.get(key, Fraction(0))
                if w != h:
                    idx, cls = key
                    names = ",".join(fib.total.labels[i] for i in idx)
                    failures.append(
                        f"{label} {arity} ({names}; {cls!r}): stored {format_rational(h)}, "
                        f"product rule gives {format_rational(w)}"
                    )
    return check(failures)
