"""Every constructor refusal, pinned by its exact text.

The model, table and fibration constructors read only the nonzero pairing
entries and check each distinct key class once; these cases fix which
failure each of them reports first, and in which words."""

from fractions import Fraction

import pytest

from qhfib import H2Lattice, ManifoldModel, catalog
from qhfib.errors import DimensionRuleViolation, PrimingInvalid
from qhfib.quantum import GWTable

# the ruled-surface fiber's classical data
BASIS = [("1", 4), ("F", 2), ("T-", 2), ("pt", 0)]
PAIRING = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, -1, 0], [1, 0, 0, 0]]
TRIPLE = {("1", "1", "pt"): 1, ("1", "F", "T-"): 1, ("1", "T-", "T-"): -1}


def model(pairing=PAIRING, triple=TRIPLE, basis=BASIS, complete=True):
    h2 = catalog.ruled_surface_fiber()[0].h2
    return ManifoldModel("m", 2, basis, pairing, triple, h2, triple_complete=complete)


def pairing_with(cells):
    p = [row[:] for row in PAIRING]
    for (i, j), x in cells.items():
        p[i][j] = x
    return p


def refusal(build, exc=ValueError) -> str:
    with pytest.raises(exc) as info:
        build()
    return str(info.value)


OFF_DEGREE = "m: pairing nonzero off complementary degrees"
NOT_SYMMETRIC = "m: pairing not graded-symmetric"

MODEL_CASES = {
    "square pairing of the wrong size": (
        dict(pairing=[[0, 1], [1, 0]]), "m: pairing must be 4x4"),
    "ragged pairing": (
        dict(pairing=[[0, 0, 0, 1], [0, 0, 1], [0, 1, -1, 0], [1, 0, 0, 0]]),
        "m: pairing must be 4x4"),
    "duplicate labels": (
        dict(basis=[("1", 4), ("F", 2), ("F", 2), ("pt", 0)]), "m: duplicate basis labels"),
    "nonzero off complementary degrees": (
        dict(pairing=pairing_with({(0, 1): 1, (1, 0): 1})), f"{OFF_DEGREE} (1, F)"),
    "nonzero on the diagonal off complementary degrees": (
        dict(pairing=pairing_with({(3, 3): 1})), f"{OFF_DEGREE} (pt, pt)"),
    "only the upper entry nonzero": (
        dict(pairing=pairing_with({(3, 0): 0})), NOT_SYMMETRIC),
    "only the lower entry nonzero": (
        dict(pairing=pairing_with({(0, 3): 0})), NOT_SYMMETRIC),
    "both entries nonzero, wrong sign": (
        dict(pairing=pairing_with({(1, 2): 2})), NOT_SYMMETRIC),
    # the first failure in row-major order is at the zero cell (1, pt); a
    # walk over the nonzero cells alone would meet (F, pt) first
    "asymmetry at a zero cell before an off-degree entry": (
        dict(pairing=pairing_with({(0, 3): 0, (1, 3): 1, (3, 1): 1})), NOT_SYMMETRIC),
    "off-degree entry before an asymmetry": (
        dict(pairing=pairing_with({(0, 3): 0, (0, 1): 1, (1, 0): 1})),
        f"{OFF_DEGREE} (1, F)"),
    "triple against the fundamental class off the pairing": (
        dict(triple={**TRIPLE, ("1", "1", "pt"): 2}),
        "m: triple at (1, fundamental, pt) disagrees with pairing"),
    "triple against the fundamental class where the pairing is zero": (
        dict(triple={**TRIPLE, ("1", "F", "F"): 1}),
        "m: triple at (F, fundamental, F) disagrees with pairing"),
    # declared in the other order: the refusal names the first pair in
    # row-major order, not the first declared
    "two triples off the pairing": (
        dict(triple={("1", "T-", "T-"): 1, ("1", "F", "T-"): 2, ("1", "1", "pt"): 1}),
        "m: triple at (F, fundamental, T-) disagrees with pairing"),
    "triple off the pairing on an incomplete model": (
        dict(triple={("pt", "1", "1"): 3}, complete=False),
        "m: triple at (1, fundamental, pt) disagrees with pairing"),
}


@pytest.mark.parametrize("case", MODEL_CASES)
def test_model_refusals(case):
    kwargs, text = MODEL_CASES[case]
    assert refusal(lambda: model(**kwargs)) == text


@pytest.fixture(scope="module")
def ruled():
    return catalog.build("ruled")


def test_table_refusals(ruled):
    fiber, total = catalog.ruled_surface_fiber()[0], ruled.total
    F = fiber.h2.gen("F")
    T, S, Ft = (total.h2.gen(g) for g in ("T", "S", "F"))
    cases = [
        (lambda: GWTable(total, two_point={("pt", "Zm", T + Ft): 1}),
         ValueError,
         "ruled-total two_point: class H2<1*F + 1*T> not supported on spherical generators"),
        (lambda: GWTable(fiber, two_point={("T-", "pt", F.scale(Fraction(1, 2))): 1}),
         ValueError, "ruled-surface two_point: fiber-type keys must be integral"),
        (lambda: GWTable(fiber, two_point={("T-", "pt", fiber.h2.zero()): 1}),
         ValueError, "ruled-surface two_point: fiber-type keys must be nonzero classes"),
        (lambda: GWTable(fiber, two_point={("T-", "pt", -F): 1}),
         ValueError, "ruled-surface two_point: fiber-type keys need positive area"),
        (lambda: GWTable(total, two_point={("pt", "Zm", S): 1}),
         ValueError, "ruled-total two_point: fiber-type keys need positive area"),
        # the class was checked at the first entry; the dimension still is per entry
        (lambda: GWTable(fiber, two_point={("T-", "pt", F): 1, ("pt", "pt", F): 1}),
         DimensionRuleViolation,
         "ruled-surface two_point entry (pt,pt; H2<1*F>): insertion dimensions sum to 0, "
         "rule requires 2"),
        (lambda: GWTable(fiber, three_point={("F", "F", "F", F): 1}),
         DimensionRuleViolation,
         "ruled-surface three_point entry (F,F,F; H2<1*F>): insertion dimensions sum to 6, "
         "rule requires 4"),
        (lambda: GWTable(total, "section", two_point={("pt", "pt", S): 1},
                         section_c1=lambda offset: offset.c1 + 1),
         DimensionRuleViolation,
         "ruled-total two_point entry (pt,pt; H2<1*S>): insertion dimensions sum to 0, "
         "rule requires 8"),
        (lambda: GWTable(fiber, two_point={("T-", "pt", F): 1, ("pt", "T-", F): 2}),
         ValueError, "ruled-surface two_point: conflicting entries at ('pt', 'T-', H2<1*F>)"),
    ]
    for build, exc, text in cases:
        assert refusal(build, exc) == text


def sphere_on(omega, c1, spherical):
    h2 = H2Lattice(generators=("A", "B"), omega=tuple(map(Fraction, omega)),
                   c1=tuple(map(Fraction, c1)), spherical=spherical)
    return ManifoldModel("s", 1, [("1", 2), ("pt", 0)], [[0, 1], [1, 0]],
                         {("1", "1", "pt"): 1}, h2)


def test_a_class_equal_to_a_checked_one_is_still_checked():
    # the class check runs once per key class, keyed by coordinates: classes
    # compare by area and Chern number, so B equals A, but B is not spherical
    m = sphere_on((1, 1), (1, 1), (True, False))
    A, B = m.h2.gen("A"), m.h2.gen("B")
    assert A == B
    GWTable(m, two_point={("1", "pt", A): 1})
    text = refusal(lambda: GWTable(m, two_point={("1", "pt", A): 1, ("pt", "1", B): 1}))
    assert text == "s two_point: class H2<1*B> not supported on spherical generators"
    # the same with a non-integral class equal to an integral one
    m = sphere_on((1, 2), (1, 2), (True, True))
    A, half = m.h2.gen("A"), m.h2.cls((0, Fraction(1, 2)))
    assert A == half
    text = refusal(lambda: GWTable(m, two_point={("1", "pt", A): 1, ("pt", "1", half): 1}))
    assert text == "s two_point: fiber-type keys must be integral"


def vec(model, **coords):
    v = model.zero_vector()
    for label, x in coords.items():
        v[model.label_index(label)] = Fraction(x)
    return v


def test_fibration_refusals(ruled):
    total = ruled.total
    iota, split = ruled.iota, ruled.splitting_map
    bad_iota = [iota[0], vec(total, F=1, S=1), iota[2], iota[3]]
    bad_split = [split[0], split[1], split[2], vec(total, S=2)]
    meet = "ruled-loop: iota(1) . iota(F) = 1, fiber classes must not meet"
    off = "ruled-loop: iota(1) . s(pt) = 2, fiber pairing gives 1"
    cases = [
        (dict(iota=bad_iota), PrimingInvalid, meet),
        (dict(splitting=bad_split), PrimingInvalid, off),
        # both fail: iota . iota at (1, F) comes before iota . s at (1, pt)
        (dict(iota=bad_iota, splitting=bad_split), PrimingInvalid, meet),
        # iota . s fails at (1, pt) and at (pt, 1): row-major names (1, pt)
        (dict(splitting=[vec(total, P=2), *bad_split[1:]]), PrimingInvalid, off),
        (dict(sigma_ref=(0, 0, 2)), ValueError,
         "ruled-loop: reference section meets the fiber 2 times, expected exactly once"),
        (dict(sigma_ref=(1, 0, 0)), ValueError,
         "ruled-loop: reference section meets the fiber 0 times, expected exactly once"),
    ]
    for changes, exc, text in cases:
        assert refusal(lambda: ruled.replace(**changes), exc) == text


# -- a declared zero is data -------------------------------------------------------


@pytest.mark.parametrize("key", [("1", "T-", "T-"), ("T-", "1", "T-")])
@pytest.mark.parametrize("first", [True, False])
def test_a_declared_zero_against_the_fundamental_class_is_checked(key, first):
    # t(1, T-, T-) is the pairing T- . T- = -1: a declared 0 is refused, as 5 is
    rest = {k: v for k, v in TRIPLE.items() if k != ("1", "T-", "T-")}
    triple = {key: 0, **rest} if first else {**rest, key: 0}
    assert refusal(lambda: model(triple=triple)) == (
        "m: triple at (T-, fundamental, T-) disagrees with pairing")
    assert refusal(lambda: model(triple={**rest, key: 5})) == (
        "m: triple at (T-, fundamental, T-) disagrees with pairing")


def labelled(m, store):
    return {tuple(m.labels[i] for i in ck): v for ck, v in store.items()}


def test_a_declared_zero_conflicts_in_either_entry_order(ruled):
    m = ruled.total
    triple = labelled(m, m.triple)
    assert triple[("M", "Zm", "Zm")] == -1
    for entries, at in (({("Zm", "M", "Zm"): 0, **triple}, "('M', 'Zm', 'Zm')"),
                        ({**triple, ("Zm", "M", "Zm"): 0}, "('Zm', 'M', 'Zm')")):
        assert refusal(lambda: ManifoldModel(m.name, m.n, m.basis, m.pairing, entries, m.h2)) == (
            f"ruled-total: conflicting triple entries at {at}")
    # the same in a table: n(T, S, Zm; F) = 1 is stored
    table = ruled.vertical_gw
    three = {labels + (cls,): v for (ck, cls), v in table.three_point.items()
             for labels in [tuple(m.labels[i] for i in ck)]}
    F = next(cls for (_, cls) in table.three_point)
    assert three[("T", "S", "Zm", F)] == 1
    zero = ("S", "T", "Zm", F)
    for entries, at in (({zero: 0, **three}, "('T', 'S', 'Zm', H2<1*F>)"),
                        ({**three, zero: 0}, "('S', 'T', 'Zm', H2<1*F>)")):
        assert refusal(lambda: GWTable(m, three_point=entries)) == (
            f"ruled-total three_point: conflicting entries at {at}")


def test_a_declared_zero_that_agrees_is_dropped(ruled):
    m = ruled.total
    triple = labelled(m, m.triple)
    again = ManifoldModel(m.name, m.n, m.basis, m.pairing,
                          {("Zm", "Zp", "Zp"): 0, **triple, ("F", "M", "P"): 0}, m.h2)
    assert again.triple == m.triple and list(again.triple) == list(m.triple)
    F = next(cls for (_, cls) in ruled.vertical_gw.three_point)
    table = GWTable(m, three_point={("S", "S", "Zm", F): 0})
    assert table.three_point == {} and table.known_key_classes("three_point") == []
