import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from socone.algebra import build_algebra
from socone.matrices import DenseMatrix, dot, exp_nilpotent, numerator_pairs
from socone.poly import MultiPoly, TAU
from socone.scalars import gr
from socone.spectral import roundtrip_check
from socone.states import (
    NotInOrbitError,
    StateVector,
    coherent_closed_form,
    coherent_state,
    coherent_suite,
    lambda_factor,
    leibniz_base,
    leibniz_base_value,
    leibniz_closed_form,
    leibniz_from_matrices,
    moved_vacuum,
    random_point,
    recover_coordinates,
    vacuum,
)

from conftest import poch, poly_poch, rand_fraction


def test_random_point_draws_numerator_then_denominator_per_component():
    rng, ref = random.Random(7), random.Random(7)
    for n, height in [(1, 5), (3, 97), (4, 1)]:
        want = [Fraction(ref.randint(-height, height), ref.randint(1, height)) for _ in range(n)]
        assert random_point(rng, n, height) == want
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "draw",
    [
        lambda: random_point(random.Random(0), 2, 0),
        lambda: coherent_suite(2, 3, 0, height=0),
        lambda: roundtrip_check(2, 3, 0, height=0),
    ],
    ids=["random_point", "coherent_suite", "roundtrip_check"],
)
def test_a_height_below_1_is_refused(draw):
    with pytest.raises(ValueError, match="^the height of random rationals must be at least 1$"):
        draw()


def test_vacuum_annihilation():
    for n in (1, 2, 3):
        alg = build_algebra(n)
        omega = vacuum(n)
        assert omega.entries == (gr(0),) * n + (gr(1), gr(0, 1))
        for j in range(1, n + 1):
            assert not any(alg.L(j).apply(omega.entries))
        rho0_omega = StateVector(alg.rho0.apply(omega.entries))
        assert rho0_omega == (-2) * omega
        # raising acts freely
        assert any(alg.R(1).apply(omega.entries))


def test_coherent_state_values():
    assert coherent_state([0, 0]) == vacuum(2)
    cs = coherent_state([1])
    assert cs.entries == (gr(0, 2), gr(2), gr(0))
    cs = coherent_state([1, 1])
    assert cs.entries == (gr(0, 2), gr(0, 2), gr(3), gr(0, -1))


def test_coherent_state_symbolic():
    v1 = MultiPoly.var("v1")
    cs = coherent_state([v1])
    assert cs.entries[0] == gr(0, 2) * v1
    assert cs.entries[1] == 1 + v1 * v1
    assert cs.entries[2] == gr(0, 1) * (1 - v1 * v1)


def test_recover_coordinates_examples():
    v, lam = recover_coordinates(vacuum(3))
    assert v == (gr(0),) * 3 and lam == 1
    v, lam = recover_coordinates(coherent_state([1]))
    assert v == (gr(1),) and lam == 1
    v, lam = recover_coordinates(3 * coherent_state([1]))
    assert v == (gr(1),) and lam == 3


def test_recover_coordinates_orbit_invariant():
    # on the orbit, a - i b is twice the scale factor
    state = Fraction(7, 3) * coherent_state([Fraction(1, 2), 2])
    lam = lambda_factor(state)
    assert state.a - gr(0, 1) * state.b == 2 * lam


@st.composite
def exact_states(draw):
    """(state, (v, lam) or None) for n = 1..3: a plain state, or lam times
    coherent(v), with or without one entry moved."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    scalar = st.builds(gr, part, part)
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["plain", "coherent", "perturbed"]))
    if kind == "plain":
        entries = draw(st.lists(scalar, min_size=n + 2, max_size=n + 2))
        return StateVector(entries), None
    v = draw(st.lists(scalar, min_size=n, max_size=n))
    lam = draw(scalar.filter(bool))
    state = lam * coherent_state(v)
    if kind == "coherent":
        return state, (tuple(v), lam)
    entries = list(state.entries)
    entries[draw(st.integers(0, n + 1))] += draw(scalar.filter(bool))
    return StateVector(entries), None


@settings(derandomize=True, max_examples=300)
@given(exact_states())
def test_recover_coordinates_recovers_or_refuses_and_never_divides_by_zero(case):
    state, expected = case
    try:
        v, lam = recover_coordinates(state)
    except NotInOrbitError as exc:
        assert expected is None
        # off the orbit with a - i b != 0 the quotient identity fails: it
        # alone puts (v0, a, b) on the orbit
        if state.a == gr(0, 1) * state.b:
            assert str(exc) == "a - i b vanishes: vector is not in the orbit"
        else:
            assert str(exc) == "quotient identity for the scale factor fails"
        return
    assert lam * coherent_state(v) == state
    if expected is not None:
        assert (v, lam) == expected


def test_state_vectors_compare_by_entries_and_are_unhashable():
    assert StateVector((0, 1, 2)) == StateVector((gr(0), gr(1), gr(2)))
    assert StateVector((0, 1, 2)) != StateVector((0, 1, 2, 0))
    assert StateVector((0, 1, 2)) != (gr(0), gr(1), gr(2))
    with pytest.raises(TypeError):
        hash(vacuum(1))


def test_recover_coordinates_errors():
    with pytest.raises(NotInOrbitError, match="^a - i b vanishes"):
        recover_coordinates(StateVector((gr(1), gr(0), gr(0))))  # a - ib = 0 shape
    with pytest.raises(NotInOrbitError, match="^quotient identity"):
        recover_coordinates(StateVector((gr(1), gr(1), gr(5))))


def test_a_gaussian_coherent_point_round_trips_exactly():
    # every real and imaginary part nonzero, denominators coprime
    v = (gr(Fraction(2, 3), Fraction(-5, 7)), gr(Fraction(-1, 4), Fraction(3, 2)))
    lam = gr(Fraction(3, 5), Fraction(-7, 2))
    assert recover_coordinates(lam * coherent_state(v)) == (v, lam)


def _base_by_dot(w, v):
    return 1 - 2 * dot(w, v) + dot(w, w) * dot(v, v)


def test_leibniz_base_value_is_the_dot_formula():
    w = [gr(Fraction(2, 3), Fraction(-5, 7)), gr(Fraction(-1, 4), Fraction(3, 2))]
    v = [gr(Fraction(7, 9), Fraction(1, 6)), gr(-3, Fraction(2, 5))]
    assert leibniz_base_value(w, v) == _base_by_dot(w, v)
    assert leibniz_base_value([1, 0], [0, 1]) == 2
    # polynomials, alone and beside numbers, with complex coefficients
    x, y = MultiPoly.var("w1"), MultiPoly.var("v1")
    w = [gr(Fraction(1, 2), 1) * x + Fraction(1, 3), gr(0, 2)]
    v = [y * y - gr(Fraction(3, 4), -1), gr(Fraction(-2, 5), 1) * y]
    assert leibniz_base_value(w, v) == _base_by_dot(w, v)
    assert leibniz_base_value(w[:1], v[:1]) == _base_by_dot(w[:1], v[:1])


def test_leibniz_matrix_values():
    assert leibniz_from_matrices([0], [0]) == 1
    assert leibniz_from_matrices([1], [1]) == 0
    # 1 - 2 w.v + (w.w)(v.v) at w=(1,0), v=(0,1) is 1 - 0 + 1*1 = 2
    assert leibniz_from_matrices([1, 0], [0, 1]) == 2


def test_leibniz_random_agreement_and_symmetry(rng):
    for n in (1, 2, 3, 4):
        for _ in range(50 if n < 4 else 20):
            w = [rand_fraction(rng) for _ in range(n)]
            v = [rand_fraction(rng) for _ in range(n)]
            lam = leibniz_from_matrices(w, v)
            assert lam == leibniz_base_value(w, v)
            assert lam == leibniz_from_matrices(v, w)
        assert leibniz_from_matrices([0] * n, [rand_fraction(rng)] * n) == 1


def test_leibniz_symbolic_identity():
    for n in (1, 2):
        w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
        v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
        assert leibniz_from_matrices(w, v) == leibniz_base(n)


def test_moved_vacuum_closed_form_n2():
    # exp(w.L) exp(v.R) vacuum, fully symbolic, against the closed vector
    n = 2
    alg = build_algebra(n)
    w = [MultiPoly.var("w1"), MultiPoly.var("w2")]
    v = [MultiPoly.var("v1"), MultiPoly.var("v2")]
    lower = DenseMatrix.zeros(4)
    raiser = DenseMatrix.zeros(4)
    for j in (1, 2):
        lower = lower + w[j - 1] * alg.L(j)
        raiser = raiser + v[j - 1] * alg.R(j)
    omega = vacuum(n)
    moved = exp_nilpotent(lower).apply(exp_nilpotent(raiser).apply(omega.entries))
    wv = w[0] * v[0] + w[1] * v[1]
    v2 = v[0] * v[0] + v[1] * v[1]
    w2 = w[0] * w[0] + w[1] * w[1]
    eye = gr(0, 1)
    assert moved[0] == eye * 2 * (v[0] - v2 * w[0])
    assert moved[1] == eye * 2 * (v[1] - v2 * w[1])
    assert moved[2] == -2 * wv + 1 + v2 + w2 * v2
    assert moved[3] == eye * (-2) * wv + eye * (1 - v2 + w2 * v2)


def _moved_by_matrices(w, v, q):
    # exp(w.L) as a whole matrix, applied to q times the closed-form state;
    # w.L is the running sum zeros + w_j L_j
    alg = build_algebra(len(w))
    generator = DenseMatrix.zeros(len(w) + 2)
    for j in range(1, len(w) + 1):
        generator = generator + w[j - 1] * alg.L(j)
    return StateVector(exp_nilpotent(generator).apply(q.apply(coherent_state(v).entries)))


def test_moved_vacuum_matches_the_matrix_exponentials(rng):
    for n in (1, 2, 3):
        identity = build_algebra(n).identity
        for _ in range(4):
            w = [rand_fraction(rng) for _ in range(n)]
            v = [rand_fraction(rng) for _ in range(n)]
            assert moved_vacuum(w, v, identity) == _moved_by_matrices(w, v, identity)


def test_moved_vacuum_with_a_gaussian_q():
    # every real and imaginary part of w, v and q is nonzero
    w = [gr(Fraction(1, 2), Fraction(2, 3)), gr(Fraction(-3, 5), Fraction(1, 4))]
    v = [gr(Fraction(2, 7), Fraction(-1, 3)), gr(Fraction(5, 2), Fraction(3, 4))]
    q = DenseMatrix(
        [
            [gr(Fraction(i + 2, j + 3), Fraction(-(j + 1), i + 2)) for j in range(4)]
            for i in range(4)
        ]
    )
    assert moved_vacuum(w, v, q) == _moved_by_matrices(w, v, q)


@st.composite
def moved_vacuum_cases(draw):
    """(w, v, q) at n = 1..3 with Gaussian-rational parts, q square of size n + 2."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    scalar = st.builds(gr, part, part)
    n = draw(st.integers(1, 3))
    w = draw(st.lists(scalar, min_size=n, max_size=n))
    v = draw(st.lists(scalar, min_size=n, max_size=n))
    row = st.lists(scalar, min_size=n + 2, max_size=n + 2)
    q = DenseMatrix(draw(st.lists(row, min_size=n + 2, max_size=n + 2)))
    return w, v, q


@settings(derandomize=True, max_examples=100)
@given(moved_vacuum_cases())
def test_moved_vacuum_with_any_q_matches_the_matrix_exponentials(case):
    w, v, q = case
    assert moved_vacuum(w, v, q) == _moved_by_matrices(w, v, q)


def test_leibniz_series_coefficients():
    series = leibniz_closed_form(1, 5)
    by_w = series.split_index("w", 1)
    assert by_w[(0,)].split_index("v", 1)[(0,)] == 1
    for k in range(1, 6):
        coeff = by_w[(k,)].split_index("v", 1)[(k,)]
        for tau in (Fraction(2), Fraction(7, 3)):
            assert coeff.subs({"t": tau}).as_gaussian() == poch(tau, k) / factorial(k)
    # n=2: the coefficient of w1^2 v2^2 is -t/2
    series2 = leibniz_closed_form(2, 2)
    by_w = series2.split_index("w", 2)
    assert by_w[(2, 0)].split_index("v", 2)[(0, 2)] == TAU * Fraction(-1, 2)


@pytest.mark.parametrize("n, degree", [(1, 8), (2, 6), (3, 5)])
@pytest.mark.parametrize("tau", [None, Fraction(7, 3)])
def test_leibniz_series_is_the_gegenbauer_sum(n, degree, tau):
    # (1 - 2 x s + s^2)^(-l) = sum_k C_k^l(x) s^k with l = t/2, x s = w.v and
    # s^2 = (w.w)(v.v); C_k^l(x) = sum_m (-1)^m (l)_(k-m) (2x)^(k-2m) / (m! (k-2m)!)
    w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
    v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
    wv = sum((a * b for a, b in zip(w, v)), MultiPoly.zero())
    s2 = sum((a * a for a in w), MultiPoly.zero()) * sum(
        (b * b for b in v), MultiPoly.zero()
    )
    half = TAU * Fraction(1, 2) if tau is None else Fraction(tau, 2)
    want = MultiPoly.zero()
    for k in range(degree + 1):
        for m in range(k // 2 + 1):
            scale = Fraction((-1) ** m * 2 ** (k - 2 * m), factorial(m) * factorial(k - 2 * m))
            want = want + poly_poch(half, k - m) * scale * wv ** (k - 2 * m) * s2 ** m
    assert leibniz_closed_form(n, degree, tau) == want


def test_leibniz_series_evaluated_weight():
    series = leibniz_closed_form(1, 4, tau=Fraction(-2))
    # at weight -2 the series is the base polynomial itself
    base = leibniz_base(1)
    assert series == base


def test_coherent_suite_passes():
    for n in (1, 2, 3):
        assert coherent_suite(n, count=15, seed=3).all_passed


@pytest.mark.parametrize("count", [0, -1])
def test_coherent_suite_refuses_no_points(count):
    # a suite that compared no point has shown nothing
    with pytest.raises(ValueError, match="number of points must be at least 1"):
        coherent_suite(1, count)


def test_vacuum_is_built_once_per_n():
    assert vacuum(2) is vacuum(2)


def test_vacuum_pairs_are_cleared_once_per_vector():
    pairs, d = numerator_pairs(vacuum(3).entries)
    assert vacuum(3).pairs is vacuum(3).pairs
    assert vacuum(3).pairs == (tuple(pairs), d)
    # the cache does not take part in equality
    assert vacuum(3) == StateVector(vacuum(3).entries)


def test_coherent_state_at_a_gaussian_point_equals_its_closed_form():
    v = (Fraction(1, 2), gr(Fraction(-2, 3), Fraction(5, 7)), 3)
    alg = build_algebra(3)
    generator = DenseMatrix.zeros(5)
    for j, c in enumerate(v, 1):
        generator = generator + c * alg.R(j)
    want = exp_nilpotent(generator).apply(vacuum(3).entries)
    assert coherent_state(v).entries == want == coherent_closed_form(v).entries


def test_leibniz_series_is_built_once_per_key():
    assert leibniz_closed_form(2, 3) is leibniz_closed_form(2, 3)
    weight = Fraction(-2)
    assert leibniz_closed_form(1, 4, weight) is leibniz_closed_form(1, 4, weight)
    for _ in range(2):
        with pytest.raises(ValueError):
            leibniz_closed_form(1, -1)
