"""Shared independent oracles for the test suite.

These helpers deliberately avoid the package's matrix and series code:
complex numbers are (re, im) Fraction pairs, matrices are nested lists,
and the classical recurrences are coded directly, so expected values are
computed along a route the implementation under test never touches.
"""

from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

# exact arithmetic runs long under load; no test here is about speed
settings.register_profile("socone", deadline=None)
settings.load_profile("socone")


def c(re=0, im=0):
    return (Fraction(re), Fraction(im))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cscale(a, s):
    return (a[0] * Fraction(s), a[1] * Fraction(s))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[c(0)] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = c(0)
            for l in range(k):
                acc = cadd(acc, cmul(a[i][l], b[l][j]))
            out[i][j] = acc
    return out


def mat_sub(a, b):
    return [[csub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_add(a, b):
    return [[cadd(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(a, s):
    return [[cscale(x, s) for x in row] for row in a]


def mat_comm(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_from_dense(m):
    """Read a DenseMatrix of GaussianRational entries into oracle pairs."""
    return [[(e.re, e.im) for e in row] for row in m.data]


def pairs_equal(a, b):
    return all(x == y for r1, r2 in zip(a, b) for x, y in zip(r1, r2))


def poch(tau, k):
    """Rising factorial by its defining recurrence, on exact Fractions."""
    tau = Fraction(tau)
    acc = Fraction(1)
    for i in range(k):
        acc *= tau + i
    return acc


def poly_poch(a, k):
    """Rising factorial a (a + 1) ... (a + k - 1) of a polynomial or an
    exact number, as a MultiPoly, by its defining product."""
    from socone.poly import MultiPoly

    acc = MultiPoly.const(1)
    for i in range(k):
        acc = acc * (a + i)
    return acc


def fraction_det(matrix):
    """Determinant by fraction-exact Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for s in range(col, n):
                    a[r][s] -= f * a[col][s]
    return det


def dense_table(values, size):
    """The size x size nested list of a sparse table {(row, col): value},
    with Fraction(0) in every absent cell."""
    return [[values.get((i, j), Fraction(0)) for j in range(size)] for i in range(size)]


def gram_entry(gram, row, col):
    """The entry of a table between two basis states, read off its stored
    entries through the shared index; 0 where none is stored."""
    return gram.entries.get((gram.index[row], gram.index[col]), 0)


def leading_minors_positive(matrix):
    """Sylvester criterion oracle: every leading principal minor positive."""
    n = len(matrix)
    for k in range(1, n + 1):
        sub = [row[:k] for row in matrix[:k]]
        if fraction_det(sub) <= 0:
            return False
    return True


@pytest.fixture
def rng():
    import random

    return random.Random(20260808)


def rand_fraction(rng, height=5, allow_zero=True):
    while True:
        f = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if allow_zero or f:
            return f


def printed_polys():
    """Polynomials that reach every branch of the printed and JSON forms:
    zero, constants, coefficients 1, -1, i, -i, complex and negative ones,
    over the names t, v1, w2, x1 and z3."""
    from socone.poly import MultiPoly
    from socone.scalars import gr

    parts = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    coeffs = st.sampled_from([gr(1), gr(-1), gr(0, 1), gr(0, -1)]) | st.builds(
        gr, parts, parts
    )
    names = st.sampled_from(["t", "v1", "w2", "x1", "z3"])
    monos = st.lists(st.tuples(names, st.integers(0, 3)), max_size=3).map(tuple)
    return st.dictionaries(monos, coeffs, max_size=5).map(MultiPoly)
