"""Exact linear algebra under the scalar rule: every answer is an int when
integral and a Fraction otherwise, never a float (`_exact`).

Matrices come in dense (lists of rows) and go out dense, but elimination
runs on sparse rows, each a {column: value} dict of its nonzero entries,
so work grows with the nonzeros touched, not with the matrix area. The
systems are small and mostly unimodular integer ones: a pivot row divides
in ints, and only a quotient that is not an integer becomes a Fraction.
Pivoting is deterministic: the first row at or below the current one that
holds the column wins, so repeated runs give identical reduced forms and
the "first/minimal" tie-breaking rules elsewhere in the package are stable.
"""

from fractions import Fraction
from itertools import product
from math import prod

Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


def _exact(x):
    """x under the scalar rule: an int as it is, an integral Fraction as its
    numerator, another Fraction as it is, anything else through Fraction(x)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(x, d):
    """x / d under the scalar rule: an int when both are ints and d divides x."""
    if type(x) is int and type(d) is int:
        return Fraction(x, d) if x % d else x // d
    return _exact(x / d)


def zeros(n: int, m: int) -> Matrix:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def apply(v, rows, width) -> Vector:
    """The row vector v times the matrix rows (one row of the given width
    per coordinate of v): sum of x rows[i] over the nonzero x = v[i], zeros skipped."""
    out = [0] * width
    for x, row in zip(v, rows):
        if x:
            for t, y in enumerate(row):
                if y:
                    out[t] += x * y
    return [x if type(x) is int else _exact(x) for x in out]


def multilinear(read, *vectors):
    """Sum of x_1 x_2 ... read(t_1, t_2, ...) over the nonzero coordinates
    x_s = vectors[s][t_s], slots read in order with the first vector
    outermost, so the first raising read raises first; a read of 0 adds
    no product."""
    supports = [[(t, x) for t, x in enumerate(v) if x] for v in vectors]
    total = 0
    for combo in product(*supports):
        value = read(*[t for t, _ in combo])
        if value:
            total += prod([x for _, x in combo], start=value)
    return _exact(total)


def _eliminate(m, cols) -> list[int]:
    """Reduce the sparse rows m in place over their first cols columns to
    reduced row echelon form; return the pivot columns."""
    rows, pivots, r = len(m), [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv, prow = m[r][c], m[r]
        if inv != 1:
            prow = m[r] = {j: _quotient(x, inv) for j, x in prow.items()}
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
    return pivots


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form plus the pivot column indices."""
    if not a:
        return [], []
    m = [{j: x if type(x) is int else _exact(x) for j, x in enumerate(row) if x} for row in a]
    pivots = _eliminate(m, len(a[0]))
    out = [[0] * len(a[0]) for _ in m]
    for dense, row in zip(out, m):
        for j, x in row.items():
            dense[j] = x if type(x) is int else _exact(x)
    return out, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b with free variables set to 0, or None."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    red, pivots = rref([row + [v] for row, v in zip(a, b)])
    if cols in pivots:  # pivot in the constants column: inconsistent
        return None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def reduction(a: Matrix) -> tuple:
    """a (rows n > 0) reduced once for `solved`, which gives solve(a, b) for
    any b: rref([a | I]) is [rref(a) | E], E a = rref(a), wherever the
    pivots past a fall. Returns the nonzero (r, E_rj) of each column j of
    E, the pivot columns in a, and a's width."""
    cols = len(a[0])
    m = [{j: _exact(x) for j, x in enumerate(row) if x} | {cols + r: 1} for r, row in enumerate(a)]
    pivots = _eliminate(m, cols + len(a))
    return ([[(r, _exact(row[j])) for r, row in enumerate(m) if j in row]
             for j in range(cols, cols + len(a))], [c for c in pivots if c < cols], cols)


def solved(reduced, b) -> Vector | None:
    """solve(a, b) from a's `reduction`: E b is the last column of
    rref([a | b]) when a x = b is consistent, that is when E b vanishes
    below a's pivot rows."""
    columns, pivots, cols = reduced
    y = [0] * len(columns)
    for j, v in enumerate(b):
        if v:
            for r, x in columns[j]:
                y[r] += x * v
    if any(y[len(pivots):]):
        return None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = y[r]
    return [v if type(v) is int else _exact(v) for v in x]


def invert(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [a[i] + e for i, e in enumerate(identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
