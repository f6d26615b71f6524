from fractions import Fraction
from math import factorial

import pytest

from socone.algebra import build_observables
from socone.fock import gram_at, gram_matrix, mi_factorial, multi_indices, positivity_probe
from socone.matrices import DenseMatrix, exp_nilpotent, is_positive_definite
from socone.poly import MultiPoly, TAU, exp_series, series_power, weight_exponent
from socone.scalars import I, GaussianRational, gr
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
from socone.states import coherent_closed_form, leibniz_base_value, vacuum

from conftest import (
    changed_hat,
    dense_table,
    first_order_basis,
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


SPATIAL_CALLS = {
    "zeta2_value": zeta2_value,
    "h2_value": h2_value,
    "coherent_closed_form": coherent_closed_form,
    "leibniz_base_value": lambda v: leibniz_base_value(v, v),
    "z_to_v": z_to_v,
    "v_to_z": v_to_z,
}


@pytest.mark.parametrize("name", sorted(SPATIAL_CALLS))
def test_spatial_tuples_refuse_no_components_and_the_lorentz_forms_are_hand_built(name):
    call = SPATIAL_CALLS[name]
    with pytest.raises(ValueError, match="^spatial dimension must be at least 1$"):
        call(())
    if name == "leibniz_base_value":
        for w, v in (((), (1,)), ((gr(0, 1),), ())):
            with pytest.raises(ValueError, match="^spatial dimension must be at least 1$"):
                leibniz_base_value(w, v)
    if name not in ("zeta2_value", "h2_value"):
        return

    def hand_built(z):
        first, *rest = z
        if name == "h2_value":
            first = 1 - first
        return first * first - sum((c * c for c in rest), gr(0))

    for n in (1, 2, 4):
        z = tuple(MultiPoly.var(f"z{j}") for j in range(1, n + 1))
        got = call(z)
        assert isinstance(got, MultiPoly) and got == hand_built(z)
    for point in (
        (Fraction(1, 2),),
        (1, 0),
        (gr(1, 2), Fraction(-3, 4), 5),
        (Fraction(97, 96), gr(0, Fraction(1, 3)), -2, Fraction(5, 7)),
    ):
        got = call(point)
        want = hand_built([GaussianRational.coerce(c) for c in point])
        assert type(got) is GaussianRational and got == want


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_zX_vacuum_matches_the_matrix_exponential(rng, n):
    # the shared vacuum exponential against exp_nilpotent of the formed sum
    observables = [e.matrix for e in build_observables(n)]
    for _ in range(4):
        z = [rand_fraction(rng, 7) for _ in range(n)]
        z[-1] = gr(z[-1], rand_fraction(rng, 7))
        generator = DenseMatrix.zeros(n + 2)
        for c, x in zip(z, observables):
            generator = generator + c * x
        want = exp_nilpotent(generator).apply(vacuum(n).entries)
        assert exp_zX_vacuum(z).entries == want


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


# The exact-point formulas in GaussianRational arithmetic, as the package
# computed them before it carried points as numerator pairs: references for
# z_to_v, v_to_z, coherent_closed_form and the closed form of exp(z.X) vacuum.


def reference_components(values):
    comps = [GaussianRational.coerce(c) for c in values]
    if not comps:
        raise ValueError("spatial dimension must be at least 1")
    return comps


def reference_square(comps):
    return sum((c * c for c in comps), gr(0))


def reference_z_to_v(z):
    first, *rest = reference_components(z)
    h2 = (1 - first) * (1 - first) - reference_square(rest)
    if not h2:
        raise SingularCoordinateError("h^2 vanishes at this point")
    return ((1 - first - h2) / h2,) + tuple(-I * c / h2 for c in rest), h2


def reference_v_to_z(v):
    comps = reference_components(v)
    denom = 1 + 2 * comps[0] + reference_square(comps)
    if not denom:
        raise SingularCoordinateError("1 + 2 v1 + v.v vanishes at this point")
    h2 = 1 / denom
    return (1 - h2 * (1 + comps[0]),) + tuple(I * h2 * c for c in comps[1:]), h2


def reference_coherent_closed_form(v):
    comps = reference_components(v)
    v2 = reference_square(comps)
    return tuple(2 * I * c for c in comps) + (1 + v2, I * (1 - v2))


def reference_exp_zX_vacuum(z):
    first, *rest = reference_components(z)
    zeta2 = first * first - reference_square(rest)
    return (
        (2 * I * (first - zeta2),)
        + tuple(2 * c for c in rest)
        + (1 - 2 * first + 2 * zeta2, I * (1 - 2 * first))
    )


def outcome(call, point):
    """repr of the result, types included, or the exception's type and message."""
    try:
        return repr(call(point))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_exact_point_pipeline_matches_its_reference_formulas(n):
    import random

    rng = random.Random(n)
    points = []
    for height in (5, 97):
        for _ in range(6):
            point = [rand_fraction(rng, height) for _ in range(n)]
            points.append(point)
            gaussian = list(point)
            k = rng.randrange(n)
            gaussian[k] = gr(point[k], rand_fraction(rng, height, allow_zero=False))
            points.append(gaussian)
    pad = [0] * (n - 1)
    # v1 = -1 and z1 = 1 are singular; z = (0, 1) is singular from n = 2 on
    points += [[-1, *pad], [1, *pad], [0, 1, *pad[1:]][:n], [], [0.5] * n]
    routes = [
        (reference_z_to_v, z_to_v),
        (reference_v_to_z, v_to_z),
        (reference_coherent_closed_form, lambda v: coherent_closed_form(v).entries),
        (reference_exp_zX_vacuum, lambda z: exp_zX_vacuum(z).entries),
    ]
    for point in points:
        for reference, call in routes:
            assert outcome(call, point) == outcome(reference, point), (call, point)
    # the special points are refused, not passed by both routes alike
    assert outcome(v_to_z, [-1, *pad])[0] is SingularCoordinateError
    assert outcome(z_to_v, [1, *pad])[0] is SingularCoordinateError
    assert [outcome(z_to_v, p)[0] for p in ([], [0.5] * n)] == [ValueError, TypeError]


def test_polynomial_points_are_refused_by_the_coordinate_changes():
    z = [MultiPoly.var("z1"), 1]
    for change in (z_to_v, v_to_z):
        with pytest.raises(TypeError):
            change(z)


@pytest.mark.parametrize("count", [0, -1])
def test_roundtrip_refuses_no_points(count):
    # a suite that compared no point has shown nothing
    with pytest.raises(ValueError, match="number of points must be at least 1"):
        roundtrip_check(2, count, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_duality_symbolic(n):
    report = verify_coordinate_duality(n)
    assert report.all_passed, [ch.name for ch in report.failed()]


def test_transform_coefficients():
    series = spectral_transform(1, 6)
    buckets = series.split_index("z", 1)
    assert buckets[(0,)] == 1
    for k in range(1, 7):
        coeff = buckets[(k,)]
        for tau in (Fraction(1), Fraction(5, 2)):
            assert coeff.subs({"t": tau}).as_gaussian() == poch(tau, k) / factorial(k)
    series2 = spectral_transform(2, 2)
    assert series2.split_index("z", 2)[(0, 2)] == TAU * Fraction(1, 2)


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


@pytest.mark.parametrize(
    "extra", [TAU * MultiPoly.var("z1"), gr(0, 1) * MultiPoly.var("z2")]
)
def test_moment_probe_refuses_a_non_constant_or_complex_moment(monkeypatch, extra):
    real = spectral.spectral_transform
    monkeypatch.setattr(
        spectral, "spectral_transform", lambda n, d, tau=None: real(n, d, tau) + extra
    )
    with pytest.raises(ValueError):
        moment_positivity_probe(2, Fraction(1, 2), 2)


def test_moment_hat_consistency():
    assert moment_consistency_check(1, 6).all_passed
    assert moment_consistency_check(2, 4).all_passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_doubled_observable_on_the_hat_side_fails_the_moment_row(monkeypatch, n):
    # X_1 = R_1 + L_1 + rho0, and the other X_j read none of the three
    doubled = changed_hat(
        R1=lambda hat: 2 * hat.R(1), L1=lambda hat: 2 * hat.L(1), rho0=lambda hat: 2 * hat.rho0
    )
    monkeypatch.setattr(spectral, "build_hat", doubled)
    first = tuple(int(j == 0) for j in range(n))
    report = moment_consistency_check(n, 3)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("transform moments match vacuum expectations", False, f"moment mismatch at {first}")
    ]


def test_moment_positivity_probes():
    probe = moment_positivity_probe(1, Fraction(2), 3)
    assert probe.positive_definite is True
    # gamma Hankel oracle through leading minors
    table = moments(1, 6, tau=Fraction(2), check_hat=False)
    hankel = [
        [
            Fraction(*table.moment((i + j,)).as_gaussian().as_integer_ratio())
            for j in range(4)
        ]
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
    dense = dense_table(gram_at(2, 3, tau), len(gram.basis))
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
            Fraction(
                *table.moment(tuple(a + b for a, b in zip(k, m)))
                .as_gaussian()
                .as_integer_ratio()
            )
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_order_basis_polynomials_are_their_closed_forms(n):
    got, want = first_order_basis(n)
    assert got == want


def reference_basis_polynomials(n, kmax, tau=None):
    """basis_polynomials as it was formed before its integer products: the
    same generating function, each product a GaussianRational loop truncated
    after it."""
    v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
    x = [MultiPoly.var(f"x{j}") for j in range(1, n + 1)]
    v2 = sum((a * a for a in v), MultiPoly.zero())
    xv = sum((a * b for a, b in zip(x, v)), MultiPoly.zero())
    q = 1 + 2 * v[0] + v2
    inv_q = series_power(q, Fraction(-1), kmax)
    numerator = x[0] * (v[0] + v2) + gr(0, 1) * (xv - x[0] * v[0])
    exp_part = exp_series((numerator * inv_q).truncate({"v": kmax}), kmax)
    weight_part = series_power(q, weight_exponent(tau), kmax)
    gf = (exp_part * weight_part).truncate({"v": kmax})
    buckets = gf.split_index("v", n)
    return {
        k: mi_factorial(k) * buckets.get(k, MultiPoly.zero())
        for k in multi_indices(n, kmax)
    }


@pytest.mark.parametrize(
    "n, kmax, tau",
    [(1, 16, None), (2, 6, None), (3, 5, None), (2, 5, Fraction(-1, 2))],
)
def test_basis_polynomials_match_the_truncated_product_route(n, kmax, tau):
    got = {bp.index: bp.poly for bp in basis_polynomials(n, kmax, tau)}
    assert got == reference_basis_polynomials(n, kmax, tau)
    # from n = 2 on the integer products meet imaginary parts
    complex_coeffs = any(c.im for p in got.values() for c in p.terms.values())
    assert complex_coeffs == (n > 1)


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
