"""Sparse elimination against the dense Gauss-Jordan reference it replaced.

The reduced row echelon form is unique, so rref, rank, solve (also from a
kept `reduction`) and invert must give exactly the reference's answers on
every matrix, singular or not.
The vector-times-matrix and slot-sum helpers are checked against dense sums.
Every answer follows the scalar rule (an int when integral, else a
Fraction, never a float), and on int, Fraction and mixed input it has the
values of the Fraction-only elimination the integer one replaced.
"""

import itertools
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhfib._linalg import apply, invert, multilinear, rank, reduction, rref, solve, solved


def canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


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


def ref_solve(a, b, elimination=ref_rref):
    if not a:
        return [] if all(x == 0 for x in b) else None
    red, pivots = elimination([row[:] + [b[i]] for i, row in enumerate(a)])
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def ref_invert(a, elimination=ref_rref):
    n = len(a)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = elimination([a[i][:] + eye[i] for i in range(n)])
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
        reduced = reduction(a)
        for b in (consistent, arbitrary):
            got = solve(a, b)
            assert got == ref_solve(a, b) == solved(reduced, b)
            seen["solved" if got is not None else "none"] += 1
        assert solve(a, consistent) is not None
    assert seen["solved"] and seen["none"]


def ref_reduction(a):
    """`reduction` as the dense detour gave it: rref([a | I]) written out
    dense, each column of E read back from it."""
    cols = len(a[0])
    red, pivots = rref([list(row) + [int(r == s) for s in range(len(a))]
                        for r, row in enumerate(a)])
    return ([[(r, row[cols + j]) for r, row in enumerate(red) if row[cols + j]]
             for j in range(len(a))], [c for c in pivots if c < cols], cols)


def typed(reduced):
    """A reduction with the type of every scalar, so an int and an equal
    Fraction differ."""
    columns, pivots, cols = reduced
    return [[(r, x, type(x)) for r, x in col] for col in columns], pivots, cols


def test_reduction_is_the_dense_detour():
    for _, a in cases():
        assert typed(reduction(a)) == typed(ref_reduction(a))
    assert typed(reduction([[2, 4], [1, 3]])) == typed(ref_reduction([[2, 4], [1, 3]]))


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
    assert solved(reduction(zero), [Fraction(0), Fraction(1)]) is None
    assert solved(reduction(zero), [Fraction(0), Fraction(0)]) == [0, 0, 0]


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
            assert all(map(canonical, got))


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
            assert got == want and canonical(got)
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


# -- the Fraction-only elimination the integer one replaced ---------------------
# Every pivot row is divided through Fraction and every sum is seeded with
# Fraction(0), so every answer is a Fraction: the values the scalar rule
# must keep, in the old type. Its solve and invert are ref_solve and
# ref_invert over fraction_rref.


def fraction_rref(a):
    if not a:
        return [], []
    cols = len(a[0])
    m = [{j: x for j, x in enumerate(row) if x} for row in a]
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        prow = m[r] = {j: Fraction(x) / inv for j, x in m[r].items()}
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
    out = []
    for row in m:
        dense = [Fraction(0)] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out, pivots


def fraction_apply(v, rows, width):
    out = [Fraction(0)] * width
    for x, row in zip(v, rows):
        if x:
            for t, y in enumerate(row):
                if y:
                    out[t] += x * y
    return out


def fraction_multilinear(read, *vectors):
    supports = [[(t, x) for t, x in enumerate(v) if x] for v in vectors]
    total = Fraction(0)
    for combo in product(*supports):
        value = read(*[t for t, _ in combo])
        if value:
            total += prod([x for _, x in combo], start=value)
    return total


units = st.integers(-1, 1)
ints = st.integers(-4, 4)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
ENTRIES = {"unit": units, "int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}


def scalars_of(x):
    """The numbers in a nested list or tuple of answers."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from scalars_of(y)
    elif x is not None:
        yield x


@pytest.mark.parametrize("kind", ENTRIES)
@given(data=st.data())
def test_every_answer_has_the_fraction_value_under_the_scalar_rule(kind, data):
    """On int, Fraction and mixed input, singular or not, each function
    gives the Fraction-only answer in value, each scalar canonical."""
    entry = st.one_of(st.just(0), ENTRIES[kind])  # about half the cells are zero
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    a = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if rows > 1 and data.draw(st.booleans()):  # a dependent row
        a[0] = [x + 2 * y for x, y in zip(a[0], a[-1])]
    b = data.draw(st.lists(entry, min_size=rows, max_size=rows))
    square = [row[:rows] + [0] * (rows - len(row[:rows])) for row in a]
    table = {}

    def read(*slots):
        if slots not in table:
            table[slots] = data.draw(ENTRIES[kind])
        return table[slots]

    answers = [
        (rref(a), fraction_rref(a)),
        (solve(a, b), ref_solve(a, b, fraction_rref)),
        (solved(reduction(a), b), ref_solve(a, b, fraction_rref)),
        (invert(square), ref_invert(square, fraction_rref)),
        (apply(b, a, cols), fraction_apply(b, a, cols)),
        (multilinear(read, b, a[0]), fraction_multilinear(read, b, a[0])),
    ]
    for got, want in answers:
        assert got == want
        assert all(map(canonical, scalars_of(got))), got
