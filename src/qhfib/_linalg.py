"""Exact linear algebra over Fraction.

Matrices come in dense (lists of rows) and go out dense, but elimination
runs on sparse rows, each a {column: value} dict of its nonzero entries,
so work grows with the nonzeros touched, not with the matrix area. The
systems are small: pairings, lattice coordinates and the homology maps of
a fibration. Pivoting is deterministic: the first row at or below the
current one that holds the column wins, so repeated runs give identical
reduced forms and the "first/minimal" tie-breaking rules elsewhere in the
package are stable.
"""

from fractions import Fraction
from itertools import product
from math import prod

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def apply(v, rows, width) -> Vector:
    """The row vector v times the matrix rows (one row of the given width
    per coordinate of v): sum of x rows[i] over the nonzero x = v[i], zeros skipped."""
    out = [Fraction(0)] * width
    for x, row in zip(v, rows):
        if x:
            for t, y in enumerate(row):
                if y:
                    out[t] += x * y
    return out


def multilinear(read, *vectors) -> Fraction:
    """Sum of x_1 x_2 ... read(t_1, t_2, ...) over the nonzero coordinates
    x_s = vectors[s][t_s], slots read in order with the first vector
    outermost, so the first raising read raises first; a read of 0 adds
    no product."""
    supports = [[(t, x) for t, x in enumerate(v) if x] for v in vectors]
    total = Fraction(0)
    for combo in product(*supports):
        value = read(*[t for t, _ in combo])
        if value:
            total += prod([x for _, x in combo], start=value)
    return total


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form plus the pivot column indices."""
    if not a:
        return [], []
    cols = len(a[0])
    m = [{j: x for j, x in enumerate(row) if x} for row in a]
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        prow = m[r] = {j: Fraction(x) / inv for j, x in m[r].items()}  # int / int is a float
        for i in range(rows):
            row = m[i]
            if i != r and c in row:
                f = row[c]
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        row.pop(j, None)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    out = []
    for row in m:
        dense = [zero] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b with free variables set to 0, or None."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    cols = len(a[0])
    if cols in pivots:  # pivot in the constants column: inconsistent
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def invert(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [a[i] + e for i, e in enumerate(identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
