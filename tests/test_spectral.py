from fractions import Fraction
from math import factorial

import pytest

from socone.fock import gram_matrix, multi_indices, positivity_probe
from socone.matrices import is_positive_definite
from socone.poly import MultiPoly, TAU
from socone.scalars import gr
from socone import spectral
from socone.spectral import (
    SingularCoordinateError,
    basis_polynomials,
    exp_zX_vacuum,
    h2_value,
    moment_consistency_check,
    moment_positivity_probe,
    moments,
    orthogonality_check,
    roundtrip_check,
    spectral_transform,
    v_to_z,
    vacuum_orthogonality_check,
    verify_coordinate_duality,
    z_to_v,
    zeta2_value,
)
from socone.states import vacuum

from conftest import (
    dense_table,
    gram_entry,
    leading_minors_positive,
    poch,
    poly_poch,
    rand_fraction,
)


def test_quadratic_companions():
    assert zeta2_value([0, 0]) == 0
    assert h2_value([0, 0]) == 1
    assert zeta2_value([Fraction(1, 2), 1]) == Fraction(-3, 4)
    assert h2_value([0, 1]) == 0


def test_exp_zX_values():
    assert exp_zX_vacuum([0, 0, 0]) == vacuum(3)
    # n=1 symbolic: (2i(z - z^2), 1 - 2z + 2z^2, i(1 - 2z))
    z = MultiPoly.var("z1")
    s = exp_zX_vacuum([z])
    eye = gr(0, 1)
    assert s.entries[0] == eye * 2 * (z - z * z)
    assert s.entries[1] == 1 - 2 * z + 2 * z * z
    assert s.entries[2] == eye * (1 - 2 * z)
    # n=2 at z=(0,1): zeta^2 = -1
    s = exp_zX_vacuum([0, 1])
    assert s.entries == (gr(0, 2), gr(2), gr(-1), gr(0, 1))


def test_z_to_v_examples():
    v, h2 = z_to_v([0, 0])
    assert v == (gr(0), gr(0)) and h2 == 1
    v, h2 = z_to_v([Fraction(1, 2)])
    assert h2 == Fraction(1, 4)
    assert v == (gr(1),)
    # matrix oracle: v = z/(1-z) for n=1
    for z in (Fraction(1, 3), Fraction(-2), Fraction(3, 7)):
        v, h2 = z_to_v([z])
        assert v[0] == z / (1 - z)
        assert h2 == (1 - z) ** 2
    with pytest.raises(SingularCoordinateError):
        z_to_v([0, 1])


def test_v_to_z_examples():
    z, h2 = v_to_z([0, 0])
    assert z == (gr(0), gr(0)) and h2 == 1
    z, h2 = v_to_z([1])
    assert z == (gr(Fraction(1, 2)),) and h2 == Fraction(1, 4)
    with pytest.raises(SingularCoordinateError):
        v_to_z([-1])  # 1 + 2 v1 + v.v = 0


def test_roundtrip_random(rng):
    for n in (1, 2, 3):
        assert roundtrip_check(n, 20, seed=11).all_passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_duality_symbolic(n):
    report = verify_coordinate_duality(n)
    assert report.all_passed, [ch.name for ch in report.failed()]


def test_transform_coefficients():
    series = spectral_transform(1, 6)
    buckets = series.split_groups({"z"})
    assert buckets[()] == 1
    for k in range(1, 7):
        coeff = buckets[(("z1", k),)]
        for tau in (Fraction(1), Fraction(5, 2)):
            assert coeff.subs({"t": tau}).as_gaussian() == poch(tau, k) / factorial(k)
    series2 = spectral_transform(2, 2)
    assert series2.split_groups({"z"})[(("z2", 2),)] == TAU * Fraction(1, 2)


@pytest.mark.parametrize("n, degree", [(1, 8), (2, 6), (3, 5)])
@pytest.mark.parametrize("tau", [None, Fraction(7, 3)])
def test_transform_is_the_double_pochhammer_sum(n, degree, tau):
    # ((1 - z1)^2 - p)^(-t/2) with p = z2^2 + ... + zn^2 is
    # sum_m (t/2)_m / m! p^m (1 - z1)^(-t-2m), and (1 - z1)^(-a) is
    # sum_j (a)_j / j! z1^j
    z = [MultiPoly.var(f"z{j}") for j in range(1, n + 1)]
    p = sum((a * a for a in z[1:]), MultiPoly.zero())
    weight = TAU if tau is None else MultiPoly.const(tau)
    want = MultiPoly.zero()
    for m in range(degree // 2 + 1):
        for j in range(degree - 2 * m + 1):
            coeff = poly_poch(weight * Fraction(1, 2), m) * poly_poch(weight + 2 * m, j)
            want = want + coeff * Fraction(1, factorial(m) * factorial(j)) * z[0] ** j * p ** m
    assert spectral_transform(n, degree, tau) == want


def test_moments_n1_are_rising_factorials():
    table = moments(1, 8)
    for k in range(9):
        value = table.moment((k,))
        for tau in (Fraction(1), Fraction(2), Fraction(3), Fraction(-2), Fraction(7, 5)):
            assert value.subs({"t": tau}).as_gaussian() == poch(tau, k)
    at2 = moments(1, 2, tau=Fraction(2))
    assert [at2.moment((k,)) for k in range(3)] == [1, 2, 6]


def test_moments_n2():
    table = moments(2, 4)
    assert table.moment((0, 0)) == 1
    assert table.moment((0, 1)).is_zero  # odd in z2
    assert table.moment((1, 1)).is_zero
    assert table.moment((0, 2)) == TAU
    assert table.moment((1, 0)) == TAU
    assert table.moment((2, 0)) == TAU * TAU + TAU


@pytest.mark.parametrize("check_hat", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_moments_at_a_weight_equal_the_symbolic_table_there(n, check_hat):
    symbolic = moments(n, 3, check_hat=check_hat)
    for tau in (Fraction(-5, 2), Fraction(0), Fraction(1, 3), Fraction(4)):
        table = moments(n, 3, tau=tau, check_hat=check_hat)
        assert table.tau == tau
        assert table.entries.keys() == symbolic.entries.keys()
        for k, value in symbolic.entries.items():
            assert table.moment(k) == value.subs({"t": tau})


def test_moments_at_a_weight_are_checked_against_the_hat_route(monkeypatch):
    real = spectral.spectral_transform

    def off_at_a_weight(n, truncation, tau=None):
        series = real(n, truncation, tau)
        return series if tau is None else series + MultiPoly.var("z1")

    monkeypatch.setattr(spectral, "spectral_transform", off_at_a_weight)
    moments(2, 2, tau=Fraction(1, 2), check_hat=False)
    with pytest.raises(AssertionError, match="moment mismatch"):
        moments(2, 2, tau=Fraction(1, 2), check_hat=True)


def test_moment_probe_expands_the_transform_at_the_weight(monkeypatch):
    exponents = []
    real = spectral.series_power

    def spy(base, exponent, bound):
        exponents.append(exponent)
        return real(base, exponent, bound)

    monkeypatch.setattr(spectral, "series_power", spy)
    moment_positivity_probe(2, Fraction(1, 2), 2)
    assert exponents == [Fraction(-1, 4)]


def test_moment_hat_consistency():
    assert moment_consistency_check(1, 6).all_passed
    assert moment_consistency_check(2, 4).all_passed


def test_moment_positivity_probes():
    probe = moment_positivity_probe(1, Fraction(2), 3)
    assert probe.positive_definite is True
    # gamma Hankel oracle through leading minors
    table = moments(1, 6, tau=Fraction(2), check_hat=False)
    hankel = [
        [table.moment((i + j,)).as_gaussian().as_fraction() for j in range(4)]
        for i in range(4)
    ]
    assert leading_minors_positive(hankel)

    probe = moment_positivity_probe(1, Fraction(0), 1)
    assert probe.positive_definite is False
    assert list(probe.pivots) == [(0, 1), (0, 0)]

    probe = moment_positivity_probe(2, Fraction(3), 2)
    assert probe.positive_definite is True
    assert probe.float_min_eigenvalue > -1e-10


@pytest.mark.parametrize("tau", [Fraction(-1, 2), Fraction(1)])
def test_gram_and_moment_probes_share_one_verdict(tau):
    # n = 2: the Wallach boundary is t = 0, so the two weights straddle it
    gram = gram_matrix(2, 3)
    dense = dense_table(gram.eval_at(tau), len(gram.basis))
    blocks = []
    for d in range(4):
        idx = [i for i, k in enumerate(gram.basis) if sum(k) == d]
        blocks.append([[dense[i][j] for j in idx] for i in idx])
    gram_probe = positivity_probe(2, 3, tau)
    assert gram_probe.positive_definite == all(
        is_positive_definite(b)[0] for b in blocks
    )
    assert [p for _, p in gram_probe.pivots] == [
        p for b in blocks for p in is_positive_definite(b)[1]
    ]

    table = moments(2, 4, tau=tau, check_hat=False)
    basis = multi_indices(2, 2)
    mat = [
        [
            table.moment(tuple(a + b for a, b in zip(k, m))).as_gaussian().as_fraction()
            for m in basis
        ]
        for k in basis
    ]
    moment_probe = moment_positivity_probe(2, tau, 2)
    assert type(moment_probe) is type(gram_probe)
    verdict, pivots = is_positive_definite(mat)
    assert moment_probe.positive_definite == verdict
    assert list(moment_probe.pivots) == [(0, p) for p in pivots]
    assert gram_probe.positive_definite == moment_probe.positive_definite == (tau > 0)


def test_basis_polynomials_small():
    polys = {bp.index: bp.poly for bp in basis_polynomials(1, 2)}
    x = MultiPoly.var("x1")
    assert polys[(0,)] == 1
    assert polys[(1,)] == x - TAU
    assert str(polys[(1,)]) == "x1 - t"


def test_basis_polynomials_match_laguerre_recurrence():
    # oracle: (k+1) L_{k+1} = (2k + t - x) L_k - (k + t - 1) L_{k-1},
    # the classical three-term recurrence at parameter t - 1, and
    # |k>(x) = k! (-1)^k L_k(x)
    kmax = 10
    x = MultiPoly.var("x1")
    lag = [MultiPoly.const(1), TAU - x]
    for k in range(1, kmax):
        nxt = ((2 * k + TAU - x) * lag[k] - (k + TAU - 1) * lag[k - 1]) * Fraction(
            1, k + 1
        )
        lag.append(nxt)
    polys = {bp.index: bp.poly for bp in basis_polynomials(1, kmax)}
    for k in range(kmax + 1):
        expected = factorial(k) * (-1) ** k * lag[k]
        assert polys[(k,)] == expected, f"k={k}"


def test_basis_polynomials_n2_degrees():
    polys = basis_polynomials(2, 3)
    for bp in polys:
        assert max(bp.poly.degrees("x")) <= sum(bp.index)
    assert polys[0].poly == 1


def test_vacuum_orthogonality_symbolic():
    assert vacuum_orthogonality_check(1, 5).all_passed
    assert vacuum_orthogonality_check(2, 3).all_passed


def test_orthogonality_three_routes():
    report = orthogonality_check(Fraction(3), 5)
    assert report.all_passed, [ch.name for ch in report.failed()]
    # closed-form spot values: <p_2, p_2> = 2! (3)(4) = 24 at weight 3
    from socone.fock import gram_matrix

    gram = gram_matrix(1, 2)
    assert gram_entry(gram, (2,), (2,)).subs({"t": Fraction(3)}).as_gaussian() == 24
