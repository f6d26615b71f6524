from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from socone.matrices import (
    DenseMatrix,
    NotNilpotentError,
    commutator,
    dot,
    exact_ldl,
    exact_vector,
    exp_combination_cleared,
    exp_nilpotent,
    is_positive_definite,
    numerator_pairs,
    numerator_stack,
)
from socone.algebra import build_algebra
from socone.fock import build_combinatorial
from socone.poly import MultiPoly, TAU
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
        # equal numerators over different denominators, an int among them
        ([[0, Fraction(1, 2)], [Fraction(1, 4), 0]], "matrix must be symmetric"),
        ([[0, 1], [Fraction(1, 2), 0]], "matrix must be symmetric"),
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
    # an int and an equal Fraction are symmetric partners; every pivot is a
    # Fraction, also where all entries are ints
    mixed = [
        [2, Fraction(1, 2), 3],
        [Fraction(1, 2), Fraction(5, 3), 0],
        [Fraction(3), 0, 7],
    ]
    pivots, completed = exact_ldl(mixed)
    assert (pivots, completed) == textbook_ldl(mixed)
    assert all(type(p) is Fraction for p in pivots)
    assert is_positive_definite(mixed) == (True, pivots)
    pivots, _ = exact_ldl([[4, 2], [2, 3]])
    assert pivots == [4, 2] and all(type(p) is Fraction for p in pivots)


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


def running_sum(coeffs, mats):
    # the zeros + c * M loop: exp_combination_cleared never forms this matrix
    acc = DenseMatrix.zeros(mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        acc = acc + c * m
    return acc


def strictly_upper(draw, entries, size):
    return DenseMatrix(
        [[draw(entries) if j > i else 0 for j in range(size)] for i in range(size)]
    )


@st.composite
def nilpotent_systems(draw, entries):
    size = draw(st.integers(1, 4))
    m = strictly_upper(draw, entries, size)
    vector = tuple(draw(entries) for _ in range(size))
    return m, vector


def exp_apply(coeffs, mats, vector):
    stack = numerator_stack(mats)
    return exact_vector(*exp_combination_cleared(coeffs, stack, *numerator_pairs(vector)))


@settings(derandomize=True, max_examples=60)
@given(nilpotent_systems(gaussians))
def test_exp_combination_apply_matches_matrix_exponential(system):
    m, vector = system
    want = exp_nilpotent(m).apply(vector)
    for got, expected in zip(exp_apply([1], [m], vector), want):
        same_entry(got, expected)


@settings(derandomize=True, max_examples=30)
@given(nilpotent_systems(entries))
def test_exp_combination_apply_matches_on_series_entries(system):
    m, vector = system
    assert exp_apply([1], [m], vector) == exp_nilpotent(m).apply(vector)


@settings(derandomize=True, max_examples=60)
@given(st.integers(1, 4), st.data())
def test_numerator_pairs_round_trip_numbers_and_polynomials(size, data):
    vector = [data.draw(entries) for _ in range(size)]
    pairs, d = numerator_pairs(vector)
    assert exact_vector(pairs, d) == tuple(vector)


# complex with both parts nonzero, so that every cross product of the
# coefficients' parts with the entries' parts is formed
nonzero_fracs = st.fractions(-3, 3, max_denominator=2).filter(bool)
complex_gaussians = st.builds(gr, nonzero_fracs, nonzero_fracs)


@st.composite
def triangular_pencils(draw):
    size, count = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    mats = [strictly_upper(draw, gaussians, size) for _ in range(count)]
    coeffs = [draw(st.one_of(complex_gaussians, gaussians)) for _ in range(count)]
    return coeffs, mats, tuple(draw(gaussians) for _ in range(size))


@st.composite
def symbolic_pencils(draw):
    # w_j and v_j coefficients, alone or in Gaussian combinations, on the
    # lowering or raising generators or on strictly triangular matrices
    n = draw(st.integers(1, 3))
    group = draw(st.sampled_from(["w", "v"]))
    names = [MultiPoly.var(f"{group}{j}") for j in range(1, n + 1)]
    coeffs = [
        draw(st.sampled_from([x, x + draw(gaussians) * names[0], draw(gaussians) * x]))
        for x in names
    ]
    kind = draw(st.sampled_from(["L", "R", "triangular"]))
    if kind == "triangular":
        mats = [strictly_upper(draw, gaussians, n + 2) for _ in range(n)]
    else:
        alg = build_algebra(n)
        mats = [alg.generator(f"{kind}{j}") for j in range(1, n + 1)]
    return coeffs, mats, tuple(draw(entries) for _ in range(n + 2))


@settings(derandomize=True, max_examples=100)
@given(st.one_of(triangular_pencils(), symbolic_pencils()))
@example(  # every part of coefficient, entry and vector nonzero
    (
        [gr(Fraction(1, 2), -2), gr(0, 3)],
        [
            DenseMatrix([[0, gr(1, 1), gr(2, -1)], [0, 0, gr(0, -1)], [0, 0, 0]]),
            DenseMatrix([[0, 0, 0], [0, 0, gr(Fraction(-1, 3), 2)], [0, 0, 0]]),
        ],
        (gr(1, -1), gr(0, 1), gr(Fraction(3, 2), Fraction(1, 5))),
    )
)
def test_linear_combination_matches_the_running_sum(pencil):
    # exp of the linear combination, which the kernel never forms, applied
    # to the vector: the oracle forms it as the running sum
    coeffs, mats, vector = pencil
    got = exp_apply(coeffs, mats, vector)
    want = exp_nilpotent(running_sum(coeffs, mats)).apply(vector)
    assert got == want
    if not any(isinstance(x, MultiPoly) for x in (*coeffs, *vector)):
        for x, y in zip(got, want):
            same_entry(x, y)


@settings(derandomize=True, max_examples=30)
@given(st.integers(1, 4), st.data())
def test_exp_combination_apply_rejects_non_nilpotent(size, data):
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
        exp_nilpotent(m)
    # the same generator as one matrix, and as c * (m / c) + 0 * m
    c = data.draw(gaussians.filter(bool))
    for coeffs, mats in (([1], [m]), ([c, 0], [m * (1 / c), m])):
        with pytest.raises(NotNilpotentError, match="matrix is not nilpotent"):
            exp_apply(coeffs, mats, vector)


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
            running_sum([s, t], [a, b]),
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


def test_a_dense_scalar_multiplies_each_entry_as_it_is():
    # a polynomial in t is a value like any other: the product stays the
    # single part 0, not split into powers of t as a Fock operator's would
    v1 = MultiPoly.var("v1")
    m = DenseMatrix([[1, gr(0, 1), 0], [v1, 0, Fraction(2, 3)]])
    for s in (TAU, 1 + TAU, v1, TAU * v1 - Fraction(1, 3)):
        want = {p: x * s for p, x in m.entries.items()}
        for got in (s * m, m * s):
            assert list(got.slices) == [0] and got.entries == want
    assert (TAU * DenseMatrix.identity(2)).entries == {(0, 0): TAU, (1, 1): TAU}
    assert (m * 0).slices == {} and (m * 0).entries == {}


MISMATCH = "need a coefficient per matrix, each K x K for a K-vector"


def test_linear_combination_rejects_mismatched_input():
    a, b, c = DenseMatrix.identity(2), DenseMatrix.zeros(2, 3), DenseMatrix.identity(3)
    # the stack refuses an empty family, a matrix that is not square and
    # mixed sizes; the kernel a wrong coefficient count and vector length
    for family in ([], [b], [a, b], [b, a], [a, c]):
        with pytest.raises(ValueError, match=MISMATCH):
            numerator_stack(family)
    stack = numerator_stack([a, a])
    for coeffs, vector in (([1], [1, 0]), ([1, 2, 3], [1, 0]), ([1, 2], [1, 0, 0]), ([1, 2], [1])):
        with pytest.raises(ValueError, match=MISMATCH):
            exp_combination_cleared(coeffs, stack, *numerator_pairs(vector))


# entries with denominators 2 and 3 and Gaussian ones, so that each
# generator's own denominator in the stack is exercised
stack_entries = st.sampled_from(
    [0, 0, 1, -2, Fraction(1, 2), Fraction(-1, 3), gr(0, 1), gr(Fraction(1, 3), Fraction(-1, 2))]
)


# every kind of coefficient the kernel takes: a real one scales the stack's
# pairs by its int numerator, a complex one by a pair product
coefficients = st.one_of(st.integers(-3, 3), tiny_fracs, gaussians, complex_gaussians)


@st.composite
def reused_stacks(draw):
    size, count = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    mats = [strictly_upper(draw, stack_entries, size) for _ in range(count)]
    draws = [
        (
            [draw(coefficients) for _ in range(count)],
            tuple(draw(gaussians) for _ in range(size)),
        )
        for _ in range(6)
    ]
    # real and complex coefficients alternate in one combination
    mixed = [draw(complex_gaussians if k % 2 else nonzero_fracs) for k in range(count)]
    draws.append((mixed, tuple(draw(gaussians) for _ in range(size))))
    return mats, draws


@settings(derandomize=True, max_examples=40)
@given(reused_stacks())
def test_one_stack_serves_every_coefficient_draw(system):
    mats, draws = system
    stack = numerator_stack(mats)
    size, rows, dens = stack
    assert (size, len(dens)) == (mats[0].rows, len(mats))
    assert all(type(row) is tuple for row in rows)
    for coeffs, vector in draws:
        got = exact_vector(*exp_combination_cleared(coeffs, stack, *numerator_pairs(vector)))
        want = exp_nilpotent(running_sum(coeffs, mats)).apply(vector)
        for x, y in zip(got, want):
            same_entry(x, y)
