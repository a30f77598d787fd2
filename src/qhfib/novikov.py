"""Novikov rings over a lattice of spherical homology classes.

A lattice fixes a finite generator list for the image of pi_2 in H_2 (plus,
for total spaces, enough extra generators to span degree-2 homology), with
the symplectic area and first Chern covectors evaluated on each generator.
Classes are identified when both covectors agree on their difference, so
H2Class hashes and compares on the (area, chern) value pair, keeping one
coordinate representative around for operations that need coordinates.

Novikov elements are finite sums sum_E a_E * e^E with rational coefficients
and lattice-class exponents E. The valuation of e^E is -omega(E), so the
energy filtration keeps e^{-B} with omega(B) <= cutoff, i.e. exponents with
omega(E) >= -cutoff. Every stored scalar is an int when its denominator is
1 and a Fraction otherwise, never a float: `_linalg._exact`, the rule every
`_linalg` answer follows, re-exported here for the rest of the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add

from ._linalg import _exact, apply
from .errors import CutoffTooSmall, NotInvertible, QhfibError


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(text) -> Fraction:
    """Accept Fraction, int, or 'p/q' / 'p' strings; reject floats and booleans."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        match = _RATIONAL.fullmatch(text.strip())
        if not match:
            raise QhfibError(f"not an exact rational: {text!r} (write p/q, not a decimal)")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ZeroDivisionError:
            raise QhfibError(f"zero denominator in {text!r}") from None
    raise QhfibError(f"not an exact rational: {text!r}")


def format_rational(x) -> str:
    return str(_exact(x))


@dataclass(frozen=True)
class H2Lattice:
    """Generators of the class lattice with their area/Chern evaluations.

    embed, when present, writes each generator as a coordinate vector in the
    ambient manifold's degree-2 homology basis; needed by the divisor rule
    and by the loop invariants, optional otherwise.
    """

    generators: tuple[str, ...]
    omega: tuple[Fraction, ...]
    c1: tuple[Fraction, ...]
    spherical: tuple[bool, ...]
    embed: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        for name in ("omega", "c1"):
            object.__setattr__(self, name, tuple(map(_exact, getattr(self, name))))
        if self.embed is not None:
            object.__setattr__(self, "embed", tuple(tuple(map(_exact, r)) for r in self.embed))
        k = len(self.generators)
        if not (len(self.omega) == len(self.c1) == len(self.spherical) == k):
            raise ValueError("lattice covector lengths disagree with generators")
        if self.embed is not None and len(self.embed) != k:
            raise ValueError("embed must give one homology vector per generator")

    def cls(self, coords) -> H2Class:
        coords = tuple(map(_exact, coords))
        if len(coords) != len(self.generators):
            raise ValueError("coordinate length mismatch")
        return H2Class(self, coords)

    def zero(self) -> H2Class:
        # built on demand: a class kept on the lattice would point back at it, a cycle
        return H2Class(self, (0,) * len(self.generators), 0, 0)

    def gen(self, label: str) -> H2Class:
        i = self.generators.index(label)
        return self.cls(tuple(int(j == i) for j in range(len(self.generators))))

    def minimal_chern_number(self) -> int:
        """gcd of c1 over spherical generators; 0 when c1 vanishes there."""
        vals = [self.c1[i] for i, s in enumerate(self.spherical) if s]
        if any(v.denominator != 1 for v in vals):
            raise ValueError("c1 must be integral on spherical generators")
        return gcd(*(v.numerator for v in vals))

    def spherical_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.spherical) if s]


class H2Class:
    """A lattice class: its coordinates, and its area and Chern number,
    computed from the coordinates unless given."""

    __slots__ = ("lattice", "coords", "omega", "c1", "_hash")

    def __init__(self, lattice: H2Lattice, coords, omega=None, c1=None):
        self.lattice = lattice
        self.coords = coords
        if omega is None:  # both covectors, summed over the nonzero coordinates
            omega = c1 = 0
            for w, c, x in zip(lattice.omega, lattice.c1, coords):
                if x:
                    omega, c1 = omega + w * x, c1 + c * x
            omega, c1 = _exact(omega), _exact(c1)
        self.omega = omega
        self.c1 = c1
        # in lowest terms: equal classes hash alike
        self._hash = hash((id(lattice), omega.numerator, omega.denominator,
                           c1.numerator, c1.denominator))

    # classes are identified when area and Chern number both agree
    def __eq__(self, other):
        if not isinstance(other, H2Class):
            return NotImplemented
        return (
            self.lattice is other.lattice
            and self.omega == other.omega
            and self.c1 == other.c1
        )

    def __hash__(self):
        return self._hash

    def __add__(self, other: H2Class) -> H2Class:
        if self.lattice is not other.lattice:
            raise ValueError("classes live on different lattices")
        if not any(other.coords):  # classes are immutable, so e + 0 and 0 + e can be e
            return self
        if not any(self.coords):
            return other
        # both covectors are linear, so the sum's values are the operands' sums
        coords = tuple(map(add, self.coords, other.coords))
        if Fraction in map(type, coords):  # only a Fraction sum can be integral
            coords = tuple(map(_exact, coords))
        return H2Class(self.lattice, coords,
                       _exact(self.omega + other.omega), _exact(self.c1 + other.c1))

    def __sub__(self, other: H2Class) -> H2Class:
        return self + (-other)

    def __neg__(self) -> H2Class:
        return H2Class(self.lattice, tuple(-a for a in self.coords), -self.omega, -self.c1)

    def scale(self, r) -> H2Class:
        r = _exact(r)
        return self.lattice.cls(tuple(r * a for a in self.coords))

    def is_zero(self) -> bool:
        return self.omega == 0 and self.c1 == 0

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_spherical(self) -> bool:
        return all(c == 0 or s for c, s in zip(self.coords, self.lattice.spherical))

    def embedded(self) -> list[Fraction]:
        """Coordinates in the ambient degree-2 homology basis."""
        if self.lattice.embed is None:
            raise ValueError("lattice has no homology embedding")
        return apply(self.coords, self.lattice.embed,
                     len(self.lattice.embed[0]) if self.lattice.embed else 0)

    def __repr__(self):
        parts = [
            f"{format_rational(c)}*{g}"
            for c, g in zip(self.coords, self.lattice.generators)
            if c != 0
        ]
        return "H2<" + (" + ".join(parts) if parts else "0") + ">"


class NovikovElement:
    """Finite rational combination of exponentials of lattice classes."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: H2Lattice, terms=None):
        self.lattice = lattice
        self.terms: dict[H2Class, int | Fraction] = {  # an int needs no _exact call
            e: x for e, a in (terms or {}).items() if (x := a if type(a) is int else _exact(a))}

    @classmethod
    def unit(cls, lattice: H2Lattice) -> NovikovElement:
        return cls(lattice, {lattice.zero(): 1})

    @classmethod
    def exp(cls, e: H2Class, coeff=1) -> NovikovElement:
        return cls(e.lattice, {e: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self.lattice is other.lattice and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.lattice), frozenset(self.terms.items())))

    def __add__(self, other: NovikovElement) -> NovikovElement:
        out = dict(self.terms)
        for e, a in other.terms.items():
            b = out.get(e)
            out[e] = a if b is None else a + b
        return NovikovElement(self.lattice, out)

    def __neg__(self) -> NovikovElement:
        return NovikovElement(self.lattice, {e: -a for e, a in self.terms.items()})

    def __sub__(self, other: NovikovElement) -> NovikovElement:
        return self + (-other)

    def __mul__(self, other) -> NovikovElement:
        if isinstance(other, (int, Fraction)):
            return NovikovElement(self.lattice, {e: a * other for e, a in self.terms.items()})
        out: dict[H2Class, int | Fraction] = {}
        for e1, a1 in self.terms.items():
            for e2, a2 in other.terms.items():
                e = e1 + e2
                b = out.get(e)
                out[e] = a1 * a2 if b is None else a1 * a2 + b
        return NovikovElement(self.lattice, out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "Nov<0>"
        bits = [f"{format_rational(a)}*e^{e!r}" for e, a in sorted(
            self.terms.items(), key=lambda kv: (-kv[0].omega, kv[0].c1)
        )]
        return "Nov<" + " + ".join(bits) + ">"


def nov_truncate(x: NovikovElement, cutoff) -> NovikovElement:
    """Drop terms below the energy window: keep e^E with omega(E) >= -cutoff."""
    cutoff = _exact(cutoff)
    return NovikovElement(x.lattice, {e: a for e, a in x.terms.items() if e.omega >= -cutoff})


def nov_invert(x: NovikovElement, cutoff) -> NovikovElement:
    """Inverse modulo the energy cutoff, by geometric series.

    Needs a unique leading term (the single exponent of maximal area value).
    The refusal of several leading exponents is exact: the area-zero part of
    the ring is Laurent polynomials over Q, whose only units are monomials,
    and the leading part of a product is the product of the leading parts.
    """
    cutoff = _exact(cutoff)
    if x.is_zero():
        raise NotInvertible("zero is not invertible")
    top = max(e.omega for e in x.terms)
    leaders = [e for e in x.terms if e.omega == top]
    if len(leaders) != 1:
        raise NotInvertible("leading term is not unique")
    e0 = leaders[0]
    a0 = x.terms[e0]
    if (-e0).omega < -cutoff:
        raise CutoffTooSmall("the inverse's leading term already falls outside the cutoff window")
    # x = a0 e^{e0} (1 + r) with every term of r of strictly negative area
    r = NovikovElement(
        x.lattice,
        {e - e0: Fraction(a) / a0 for e, a in x.terms.items() if e != e0},  # not int / int
    )
    # sum (-r)^k, truncating against the shifted window after each power
    shifted = cutoff + (-e0).omega  # window for the series factor
    acc = NovikovElement.unit(x.lattice)
    power = NovikovElement.unit(x.lattice)
    while True:
        power = nov_truncate(power * (-r), shifted)
        if power.is_zero():
            break
        acc = acc + power
    inv = NovikovElement.exp(-e0, Fraction(1) / a0) * acc
    return nov_truncate(inv, cutoff)
