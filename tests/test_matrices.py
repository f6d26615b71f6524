from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socone.matrices import (
    DenseMatrix,
    NotNilpotentError,
    commutator,
    dot,
    exact_ldl,
    exp_nilpotent,
    exp_nilpotent_apply,
    is_positive_definite,
    linear_combination,
)
from socone.fock import build_combinatorial
from socone.poly import MultiPoly
from socone.scalars import GaussianRational, gr

from conftest import fraction_det, leading_minors_positive


def rand_matrix(draw_fraction, size):
    return DenseMatrix(
        [[draw_fraction() for _ in range(size)] for _ in range(size)]
    )


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(size):
    return st.lists(
        st.lists(small_fracs, min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    ).map(DenseMatrix)


@settings(derandomize=True, max_examples=25)
@given(matrices(4), matrices(4), matrices(4))
def test_jacobi_identity(a, b, c):
    lhs = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert lhs.is_zero


@settings(derandomize=True, max_examples=25)
@given(matrices(3), matrices(3))
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)


@settings(derandomize=True, max_examples=15)
@given(matrices(5), matrices(5), matrices(5))
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_commutator_trivial_cases():
    i3 = DenseMatrix.identity(3)
    b = DenseMatrix([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert commutator(i3, b).is_zero
    assert commutator(b, b).is_zero
    with pytest.raises(ValueError):
        commutator(i3, DenseMatrix.identity(4))


def test_exp_nilpotent_basics():
    z = DenseMatrix.zeros(4)
    assert exp_nilpotent(z) == DenseMatrix.identity(4)
    m = DenseMatrix([[0, 1, 3], [0, 0, 2], [0, 0, 0]])
    e = exp_nilpotent(m)
    assert e * exp_nilpotent(-m) == DenseMatrix.identity(3)
    with pytest.raises(NotNilpotentError):
        exp_nilpotent(DenseMatrix.identity(2))


def test_exp_nilpotent_never_truncates_silently():
    almost = DenseMatrix([[0, 1], [Fraction(1, 10 ** 9), 0]])
    with pytest.raises(NotNilpotentError):
        exp_nilpotent(almost)


def test_exp_nilpotent_symbolic_entries():
    v = MultiPoly.var("v1")
    m = DenseMatrix([[0, v], [0, 0]])
    e = exp_nilpotent(m)
    assert e.data[0][1] == v
    assert e * exp_nilpotent(-m) == DenseMatrix.identity(2)


def test_exact_ldl_matches_minor_oracle(rng):
    # random symmetric positive definite: A = B^T B + I
    for _ in range(10):
        size = rng.randint(1, 5)
        b = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
            for _ in range(size)
        ]
        a = [
            [
                sum(b[k][i] * b[k][j] for k in range(size))
                + (1 if i == j else 0)
                for j in range(size)
            ]
            for i in range(size)
        ]
        verdict, pivots = is_positive_definite(a)
        assert verdict is True
        assert leading_minors_positive(a)
        # pivots multiply to the determinant
        prod = Fraction(1)
        for p in pivots:
            prod *= p
        assert prod == fraction_det(a)


def test_exact_ldl_zero_and_indefinite():
    pivots, completed = exact_ldl([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
    assert completed and pivots == [0, 0]
    verdict, pivots = is_positive_definite(
        [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    )
    assert verdict is False
    verdict, _ = is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert verdict is False


def textbook_ldl(matrix):
    """The Fraction elimination exact_ldl must reproduce: same pivot rule,
    pivots, types and completion flag."""
    a = [list(map(Fraction, row)) for row in matrix]
    remaining = list(range(len(a)))
    pivots = []
    while remaining:
        k = next((i for i in remaining if a[i][i] != 0), None)
        if k is None:
            if all(a[i][j] == 0 for i in remaining for j in remaining):
                pivots.extend(Fraction(0) for _ in remaining)
                return pivots, True
            return pivots, False
        remaining.remove(k)
        p = a[k][k]
        pivots.append(p)
        factors = {i: a[i][k] / p for i in remaining}
        for i in remaining:
            for j in remaining:
                a[i][j] -= factors[i] * a[k][j]
    return pivots, True


ldl_entries = st.one_of(
    st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=4), st.integers(-4, 4)
)


@st.composite
def symmetric_matrices(draw):
    size = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["general", "zero-diagonal", "low-rank", "blocks"]))
    if kind == "low-rank":
        # V diag(s) V^T with rank <= size - 1 and mixed signs in s: singular,
        # PSD when every sign is positive, and an all-zero remainder at the end
        rank = draw(st.integers(0, max(size - 1, 0)))
        v = [[draw(ldl_entries) for _ in range(rank)] for _ in range(size)]
        s = [draw(st.sampled_from([1, 1, 2, -1, Fraction(1, 3)])) for _ in range(rank)]
        return [
            [sum(v[i][r] * s[r] * v[j][r] for r in range(rank)) for j in range(size)]
            for i in range(size)
        ]
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            m[i][j] = m[j][i] = Fraction(draw(ldl_entries))
    if kind == "zero-diagonal":
        for i in draw(st.sets(st.integers(0, max(size - 1, 0)))):
            if i < size:
                m[i][i] = Fraction(0)
    elif kind == "blocks" and size:
        # a zero block after the first rows leaves an all-zero remainder
        cut = draw(st.integers(0, size))
        for i in range(cut, size):
            for j in range(size):
                m[i][j] = m[j][i] = Fraction(0)
    return m


@settings(derandomize=True, max_examples=200)
@given(symmetric_matrices())
def test_exact_ldl_matches_the_fraction_elimination(m):
    pivots, completed = exact_ldl(m)
    ref_pivots, ref_completed = textbook_ldl(m)
    assert completed == ref_completed
    assert pivots == ref_pivots
    assert all(type(p) is Fraction for p in pivots)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 2]], "matrix must be square"),
        ([[1, 2], [3]], "matrix must be square"),
        ([[1, 2], [3, 4]], "matrix must be symmetric"),
        ([[0, Fraction(1, 2)], [Fraction(1, 3), 0]], "matrix must be symmetric"),
    ],
)
def test_exact_ldl_rejects_non_square_and_non_symmetric(matrix, message):
    with pytest.raises(ValueError, match=message):
        exact_ldl(matrix)


def test_exact_ldl_pivot_cases():
    assert exact_ldl([]) == ([], True)
    # a zero first diagonal is passed over; the pivots come back as Fractions
    pivots, completed = exact_ldl([[0, 0, 0], [0, Fraction(-1, 2), 1], [0, 1, 2]])
    assert completed and pivots == [Fraction(-1, 2), 4, 0]
    # nonzero remainder with an all-zero diagonal: stop without completing
    assert exact_ldl([[1, 1, 0], [1, 1, 1], [0, 1, 0]]) == ([1], False)


# -- kernel fast paths against the plain formulas ----------------------------------

tiny_fracs = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=2))
gaussians = st.one_of(
    st.just(gr(0)), st.builds(gr, tiny_fracs, tiny_fracs), st.builds(gr, tiny_fracs)
)


@st.composite
def truncated_polys(draw):
    v1, w1 = MultiPoly.var("v1"), MultiPoly.var("w1")
    poly = (
        draw(gaussians) * v1
        + draw(gaussians) * w1 * v1
        + draw(gaussians) * v1 * v1 * v1
        + draw(gaussians)
    )
    bound = draw(st.sampled_from([None, 1, 2, 3]))
    return poly if bound is None else poly.truncate({"v": bound})


entries = st.one_of(gaussians, truncated_polys())


def naive_dot(row, col):
    # a zero entry is an exact zero: it carries no truncation bound into the sum
    acc = gr(0)
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def same_entry(x, y):
    assert type(x) is type(y)
    if isinstance(x, MultiPoly):
        assert x.terms == y.terms
    else:
        assert x == y


@st.composite
def shift_operators(draw):
    kind = draw(st.sampled_from(["raise", "lower"]))
    return build_combinatorial(2, 3, kind, draw(st.integers(1, 2))) * draw(gaussians)


def operand_pairs(items):
    return st.integers(1, 4).flatmap(
        lambda size: st.tuples(
            st.lists(items, min_size=size, max_size=size),
            st.lists(items, min_size=size, max_size=size),
        )
    )


@settings(derandomize=True, max_examples=60)
@given(
    st.one_of(
        operand_pairs(gaussians), operand_pairs(entries), operand_pairs(shift_operators())
    )
)
def test_dot_is_the_left_to_right_sum_of_products(pair):
    a, b = pair
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    same_entry(dot(a, b), acc)


@st.composite
def nilpotent_systems(draw, entries):
    size = draw(st.integers(1, 4))
    m = DenseMatrix(
        [
            [draw(entries) if j > i else 0 for j in range(size)]
            for i in range(size)
        ]
    )
    vector = tuple(draw(entries) for _ in range(size))
    return m, vector


@settings(derandomize=True, max_examples=60)
@given(nilpotent_systems(gaussians))
def test_exp_nilpotent_apply_matches_matrix_exponential(system):
    m, vector = system
    want = exp_nilpotent(m).apply(vector)
    for got, expected in zip(exp_nilpotent_apply(m, vector), want):
        same_entry(got, expected)


@settings(derandomize=True, max_examples=30)
@given(nilpotent_systems(entries))
def test_exp_nilpotent_apply_matches_on_series_entries(system):
    m, vector = system
    assert exp_nilpotent_apply(m, vector) == exp_nilpotent(m).apply(vector)


@settings(derandomize=True, max_examples=30)
@given(st.integers(1, 4), st.data())
def test_exp_nilpotent_apply_rejects_non_nilpotent(size, data):
    # upper triangular with a nonzero diagonal is invertible: no iterate of
    # a nonzero vector can vanish
    diag = st.fractions(-3, 3, max_denominator=2).filter(bool)
    m = DenseMatrix(
        [
            [
                data.draw(diag) if i == j else data.draw(tiny_fracs) if j > i else 0
                for j in range(size)
            ]
            for i in range(size)
        ]
    )
    vector = [0] * size
    vector[data.draw(st.integers(0, size - 1))] = 1
    with pytest.raises(NotNilpotentError):
        exp_nilpotent_apply(m, vector)


scalars = st.one_of(
    entries, st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=2)
)


@st.composite
def matrix_pairs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def grid():
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    return grid(), grid()


@settings(derandomize=True, max_examples=100)
@given(matrix_pairs(), scalars)
def test_sum_and_scaling_skip_only_scalar_zero_operations(pair, scalar):
    left, right = pair
    a, b = DenseMatrix(left), DenseMatrix(right)
    cases = [
        (a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]),
        (a * scalar, [[x * scalar for x in row] for row in left]),
        (scalar * a, [[scalar * x for x in row] for row in left]),
    ]
    for got, want in cases:
        assert got == DenseMatrix(want)


@st.composite
def dense_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def grid(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    vector = [draw(entries) for _ in range(inner)]
    return grid(rows, inner), grid(rows, inner), grid(inner, cols), vector


@settings(derandomize=True, max_examples=100)
@given(dense_operands(), scalars, scalars)
def test_sparse_ring_matches_the_dense_formulas(operands, s, t):
    a, b, c = (DenseMatrix(grid) for grid in operands[:3])
    # the formulas read each matrix as it stores its entries: a zero drawn as
    # a truncated polynomial is stored as an absent, exact zero
    left, right, other, vector = a.data, b.data, c.data, operands[3]
    pairs = list(zip(left, right))
    cases = [
        (a * c, [[naive_dot(row, col) for col in zip(*other)] for row in left]),
        (a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in pairs]),
        (a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in pairs]),
        (a * s, [[x * s for x in row] for row in left]),
        (s * a, [[s * x for x in row] for row in left]),
        (a.transpose(), list(zip(*left))),
        (
            linear_combination([s, t], [a, b]),
            [[naive_dot((s, t), xy) for xy in zip(r1, r2)] for r1, r2 in pairs],
        ),
    ]
    for got, want in cases:
        assert got == DenseMatrix(want)
        assert all(got.entries.values())
    assert list(a.apply(vector)) == [naive_dot(row, vector) for row in left]


def test_dense_operands_must_fit():
    a, b = DenseMatrix.identity(2), DenseMatrix.zeros(2, 3)
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError, match="dimension mismatch in matrix addition"):
            op()
    with pytest.raises(ValueError, match="dimension mismatch in matrix product"):
        b * a
    with pytest.raises(ValueError, match="dimension mismatch in matrix-vector product"):
        a.apply([1])
    assert a * b == b
    assert (a == DenseMatrix.identity(3)) is False
    assert (b == b.transpose()) is False
    with pytest.raises(ValueError):
        DenseMatrix.zeros(0)


def running_sum(coeffs, mats):
    # the zeros + c * M loop that linear_combination replaces
    acc = DenseMatrix.zeros(mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        acc = acc + c * m
    return acc


@st.composite
def pencils(draw):
    rows, cols, count = (draw(st.integers(1, 3)) for _ in range(3))
    mats = [
        DenseMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])
        for _ in range(count)
    ]
    return [draw(entries) for _ in range(count)], mats


@settings(derandomize=True, max_examples=100)
@given(pencils())
def test_linear_combination_matches_the_running_sum(pencil):
    coeffs, mats = pencil
    got, want = linear_combination(coeffs, mats), running_sum(coeffs, mats)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for got_row, want_row in zip(got.data, want.data):
        for x, y in zip(got_row, want_row):
            same_entry(x, y)


def test_linear_combination_rejects_mismatched_input():
    a, b = DenseMatrix.identity(2), DenseMatrix.zeros(2, 3)
    for coeffs, mats in (([], []), ([1], [a, a]), ([1, 2], [a, b])):
        with pytest.raises(ValueError):
            linear_combination(coeffs, mats)
