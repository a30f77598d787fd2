"""Sparse elimination against the dense Gauss-Jordan reference it replaced.

The reduced row echelon form is unique, so rref, rank, solve and invert
must give exactly the reference's answers on every matrix, singular or not.
The vector-times-matrix and slot-sum helpers are checked against dense sums.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qhfib._linalg import apply, invert, multilinear, rank, rref, solve


def ref_rref(a):
    """The dense elimination: first row with a nonzero entry is the pivot."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_solve(a, b):
    if not a:
        return [] if all(x == 0 for x in b) else None
    red, pivots = ref_rref([row[:] + [b[i]] for i, row in enumerate(a)])
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def ref_invert(a):
    n = len(a)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = ref_rref([a[i][:] + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def random_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))


def random_matrix(rng, rows, cols, density):
    return [[random_entry(rng, density) for _ in range(cols)] for _ in range(rows)]


def degrade(rng, a):
    """Zero rows, duplicate rows and combinations of rows, so singular
    matrices and dependent systems show up at every density."""
    a = [row[:] for row in a]
    if len(a) < 2:
        return a
    kind = rng.randrange(4)
    i, j = rng.sample(range(len(a)), 2)
    if kind == 0:
        a[i] = [Fraction(0)] * len(a[i])
    elif kind == 1:
        a[i] = a[j][:]
    elif kind == 2:
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    return a


DENSITIES = (0.01, 0.05, 0.1, 0.3, 0.6, 1.0)
SHAPES = [(1, 1), (2, 5), (5, 2), (6, 6), (10, 7), (7, 10), (12, 12)]
# sparse matrices stay cheap at the sizes of the Seidel system
SPARSE_SHAPES = [(40, 40), (60, 35), (35, 60)]


def shapes(density):
    return SHAPES + (SPARSE_SHAPES if density <= 0.05 else [])


def cases():
    rng = random.Random(20260518)
    for density in DENSITIES:
        for rows, cols in shapes(density):
            for _ in range(3):
                a = random_matrix(rng, rows, cols, density)
                if rng.random() < 0.5:
                    a = degrade(rng, a)
                yield rng, a


@pytest.mark.parametrize("density", DENSITIES)
def test_rref_and_rank_match_the_dense_reference(density):
    rng = random.Random(int(density * 1000))
    for rows, cols in shapes(density):
        for _ in range(5):
            a = random_matrix(rng, rows, cols, density)
            if rng.random() < 0.5:
                a = degrade(rng, a)
            before = [row[:] for row in a]
            assert rref(a) == ref_rref(a)
            assert rank(a) == len(ref_rref(a)[1])
            assert a == before  # the input is left alone


def test_solve_matches_the_dense_reference_on_consistent_and_inconsistent_systems():
    seen = {"solved": 0, "none": 0}
    for rng, a in cases():
        cols = len(a[0])
        # consistent: b in the column space; then a random b, often inconsistent
        x0 = [random_entry(rng, 0.7) for _ in range(cols)]
        consistent = [sum((r * x for r, x in zip(row, x0)), Fraction(0)) for row in a]
        arbitrary = [random_entry(rng, 0.5) for _ in a]
        for b in (consistent, arbitrary):
            got = solve(a, b)
            assert got == ref_solve(a, b)
            seen["solved" if got is not None else "none"] += 1
        assert solve(a, consistent) is not None
    assert seen["solved"] and seen["none"]


def test_invert_matches_the_dense_reference_on_regular_and_singular_matrices():
    rng = random.Random(7)
    seen = {"inverse": 0, "none": 0}
    for density in DENSITIES:
        for n in (1, 2, 3, 5, 8, 13) + ((40,) if density <= 0.05 else ()):
            for _ in range(3):
                a = random_matrix(rng, n, n, density)
                if rng.random() < 0.4:
                    a = degrade(rng, a)
                got = invert(a)
                assert got == ref_invert(a)
                seen["inverse" if got is not None else "none"] += 1
    assert seen["inverse"] and seen["none"]


def test_edge_shapes():
    assert rref([]) == ([], [])
    assert rref([[]]) == ref_rref([[]])
    assert solve([], []) == [] and solve([], [Fraction(1)]) is None
    assert invert([]) == []
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert rref(zero) == ref_rref(zero)
    assert solve(zero, [Fraction(0), Fraction(1)]) is None


def test_apply_is_the_dense_row_vector_times_matrix_product():
    rng = random.Random(18)
    shapes = [(0, 0), (0, 3), (1, 0), (1, 1), (1, 4), (3, 1), (5, 5), (4, 7)]
    for density in DENSITIES:
        for rows, cols in shapes:
            a = random_matrix(rng, rows, cols, density)
            v = [random_entry(rng, density) for _ in range(rows)]
            want = [sum((v[i] * a[i][t] for i in range(rows)), Fraction(0))
                    for t in range(cols)]
            got = apply(v, a, cols)
            assert got == want
            assert all(type(x) is Fraction for x in got)


def test_multilinear_is_the_dense_slot_sum_read_in_order():
    rng = random.Random(19)
    for density in DENSITIES:
        for lengths in [(), (0,), (3,), (1, 1), (2, 0, 3), (3, 4), (2, 3, 2), (1, 2, 2, 1)]:
            table = {}

            def read(*slots):
                seen.append(slots)
                return table.setdefault(slots, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

            vectors = [[random_entry(rng, density) for _ in range(n)] for n in lengths]
            seen = []
            got = multilinear(read, *vectors)
            # the dense sum over every slot, zeros included, first vector outermost
            want, order = Fraction(0), []
            for slots in itertools.product(*(range(n) for n in lengths)):
                coeff = Fraction(1)
                for v, t in zip(vectors, slots):
                    coeff *= v[t]
                if coeff:
                    order.append(slots)
                    want += coeff * table[slots]
            assert got == want and type(got) is Fraction
            assert seen == order


def test_multilinear_raises_at_the_first_raising_slot():
    reads = []

    def read(i, j):
        reads.append((i, j))
        if (i, j) == (1, 0):
            raise KeyError((i, j))
        return Fraction(1)

    one = Fraction(1)
    with pytest.raises(KeyError):
        multilinear(read, [one, one, one], [one, 0, one])
    assert reads == [(0, 0), (0, 2), (1, 0)]
