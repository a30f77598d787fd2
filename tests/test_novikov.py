"""Novikov ring arithmetic: group-ring axioms, truncation, inversion."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhfib import (
    CutoffTooSmall,
    H2Lattice,
    NotInvertible,
    NovikovElement,
    QhfibError,
    nov_invert,
    parse_rational,
    format_rational,
)
from qhfib.novikov import _RATIONAL, nov_truncate

LAT = H2Lattice(
    generators=("A", "B"),
    omega=(Fraction(2), Fraction(3)),
    c1=(Fraction(1), Fraction(0)),
    spherical=(True, False),
)

coords = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def elements(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        e = LAT.cls(draw(coords))
        terms[e] = terms.get(e, Fraction(0)) + draw(rationals)
    return NovikovElement(LAT, terms)


@given(elements(), elements(), elements())
def test_addition_is_commutative_and_associative(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)


@given(elements(), elements(), elements())
def test_multiplication_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(elements())
def test_unit_and_zero(x):
    one = NovikovElement.unit(LAT)
    zero = NovikovElement(LAT)
    assert one * x == x
    assert x + zero == x
    assert x - x == zero


@given(coords, coords)
def test_exponentials_multiply_by_adding_classes(c1, c2):
    e1, e2 = LAT.cls(c1), LAT.cls(c2)
    assert NovikovElement.exp(e1) * NovikovElement.exp(e2) == NovikovElement.exp(e1 + e2)


def test_class_identity_tracks_area_and_chern():
    a = LAT.cls((1, 0))
    assert a.omega == 2 and a.c1 == 1
    b = LAT.cls((0, 1))
    assert (a + b).omega == 5
    assert (-a).c1 == -1
    assert a.scale(Fraction(1, 2)).omega == 1
    assert a != b and hash(a) != hash(LAT.cls((1, 1)))
    assert LAT.zero().is_zero()
    assert a.is_spherical() and not b.is_spherical()
    assert not a.scale(Fraction(1, 2)).is_integral()


cone_coords = coords.filter(lambda c: 2 * c[0] + 3 * c[1] <= 0)


@st.composite
def cone_elements(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        e = LAT.cls(draw(cone_coords))
        terms[e] = terms.get(e, Fraction(0)) + draw(rationals)
    return NovikovElement(LAT, terms)


@given(elements(), elements())
def test_truncation_is_additive_and_idempotent(x, y):
    c = Fraction(4)
    t = lambda z: nov_truncate(z, c)
    assert t(t(x)) == t(x)
    assert t(x + y) == t(x) + t(y)


@given(cone_elements(), cone_elements())
def test_truncation_is_multiplicative_on_the_energy_cone(x, y):
    # on exponents of non-positive area the dropped terms form an ideal
    c = Fraction(4)
    t = lambda z: nov_truncate(z, c)
    assert t(x * y) == t(t(x) * t(y))


def test_truncation_is_not_multiplicative_outside_the_cone():
    # a positive-area factor can pull a dropped term back over the cutoff,
    # which is why inversion works against a shifted window internally
    c = Fraction(4)
    x = NovikovElement.exp(LAT.cls((0, 1)))   # omega 3
    y = NovikovElement.exp(LAT.cls((0, -2)))  # omega -6, dropped at 4
    assert nov_truncate(nov_truncate(x, c) * nov_truncate(y, c), c).is_zero()
    assert not nov_truncate(x * y, c).is_zero()


def test_truncation_keeps_the_boundary_term():
    # omega(-2A) = -4 sits exactly on the cutoff and must survive
    x = NovikovElement.exp(LAT.cls((-2, 0))) + NovikovElement.exp(LAT.cls((-3, 0)))
    kept = nov_truncate(x, Fraction(4))
    assert kept == NovikovElement.exp(LAT.cls((-2, 0)))


def geometric_oracle():
    # (1 - e^{-A})^{-1} at cutoff 6 on a rank-1 lattice of area 2
    lat = H2Lattice(("F",), (Fraction(2),), (Fraction(1),), (True,))
    x = NovikovElement.unit(lat) - NovikovElement.exp(lat.cls((-1,)))
    want = NovikovElement(
        lat, {lat.cls((-k,)): Fraction(1) for k in range(4)}
    )
    return lat, x, want


def test_inversion_matches_the_geometric_series():
    lat, x, want = geometric_oracle()
    assert nov_invert(x, Fraction(6)) == want


def test_inverse_multiplies_back_to_one_modulo_cutoff():
    lat, x, _ = geometric_oracle()
    inv = nov_invert(x, Fraction(6))
    assert nov_truncate(x * inv, Fraction(6)) == NovikovElement.unit(lat)


@given(elements())
def test_monomial_shifts_invert_exactly(x):
    # a unit monomial times x recovers x after the inverse shift
    e = LAT.cls((1, -1))
    m = NovikovElement.exp(e, Fraction(3, 2))
    assert (m * x) * NovikovElement.exp(-e, Fraction(2, 3)) == x


def test_inversion_refuses_zero_and_tied_leading_terms():
    with pytest.raises(NotInvertible):
        nov_invert(NovikovElement(LAT), Fraction(6))
    # omega(3A) = omega(2B) = 6: two leading exponents, no canonical unit part
    tie = NovikovElement.exp(LAT.cls((3, 0))) + NovikovElement.exp(LAT.cls((0, 2)))
    with pytest.raises(NotInvertible):
        nov_invert(tie, Fraction(6))


def test_inversion_reports_an_insufficient_window():
    x = NovikovElement.exp(LAT.cls((1, 0)))  # inverse lives at omega -2
    with pytest.raises(CutoffTooSmall):
        nov_invert(x, Fraction(1))
    assert nov_invert(x, Fraction(2)) == NovikovElement.exp(LAT.cls((-1, 0)))


def test_rational_parsing_round_trips():
    assert parse_rational("-7/12") == Fraction(-7, 12)
    assert parse_rational(3) == Fraction(3)
    assert format_rational(Fraction(-7, 12)) == "-7/12"
    assert format_rational(Fraction(4)) == "4"
    with pytest.raises(QhfibError):
        parse_rational("0.5")
    with pytest.raises(QhfibError):
        parse_rational("1e3")


def ref_parse_rational(text):
    """The string branch of parse_rational as it was: a format check, then Fraction(str)."""
    if not re.fullmatch(r"[+-]?\d+(?:/\d+)?", text.strip()):
        raise QhfibError(f"not an exact rational: {text!r} (write p/q, not a decimal)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise QhfibError(f"zero denominator in {text!r}") from None


def parsed(parse, text):
    try:
        return parse(text)
    except QhfibError as exc:
        return str(exc)


padding = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])


@given(pre=padding, body=st.from_regex(_RATIONAL, fullmatch=True), post=padding)
def test_every_accepted_string_parses_as_fraction_does(pre, body, post):
    text = pre + body + post
    try:
        want = Fraction(text.strip())
    except ZeroDivisionError:
        with pytest.raises(QhfibError, match=re.escape(f"zero denominator in {text!r}")):
            parse_rational(text)
        return
    assert parse_rational(text) == want
    assert parsed(parse_rational, text) == parsed(ref_parse_rational, text)


@given(text=st.text(alphabet=st.sampled_from("0123456789+-/_. e\t٣"), max_size=8) | st.text(max_size=6))
def test_any_string_parses_or_fails_as_before(text):
    assert parsed(parse_rational, text) == parsed(ref_parse_rational, text)


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator in '1/0'"),
    (" -3/00 ", "zero denominator in ' -3/00 '"),
    ("1.5", "not an exact rational: '1.5' (write p/q, not a decimal)"),
    ("1_000", "not an exact rational: '1_000' (write p/q, not a decimal)"),
    ("1/-2", "not an exact rational: '1/-2' (write p/q, not a decimal)"),
])
def test_refused_strings_keep_their_messages(text, message):
    with pytest.raises(QhfibError, match=f"^{re.escape(message)}$"):
        parse_rational(text)


# area 1 and Chern number 2 on both A and C: 2A = 2C, and A + B = C + B
TIED = H2Lattice(generators=("A", "B", "C"), omega=(Fraction(1), Fraction(1, 2), Fraction(1)),
                 c1=(Fraction(2), Fraction(0), Fraction(2)), spherical=(True, True, True))


@given(a=st.integers(-3, 3), b=st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
       c=st.integers(-3, 3), shift=st.integers(-3, 3))
def test_equal_classes_with_different_coordinates_hash_alike(a, b, c, shift):
    x = TIED.cls((a, b, c))
    y = TIED.cls((a + shift, b, c - shift))  # A - C has area 0 and Chern number 0
    assert x == y and hash(x) == hash(y)
    assert x.coords != y.coords or shift == 0
    assert (x + y) == x.scale(2) and hash(x + y) == hash(x.scale(2))
    assert hash(-x) == hash(TIED.zero() - y)


def test_lattice_shape_validation():
    with pytest.raises(ValueError):
        H2Lattice(("A",), (Fraction(1), Fraction(2)), (Fraction(0),), (True,))
    with pytest.raises(ValueError):
        LAT.cls((1,))
