"""The commuting observables acting on the vacuum: coordinate changes,
the cone transform, joint moments, and the generalized Laguerre basis.

The z coordinates parametrize exp(z.X) vacuum; h^2 = (1-z1)^2 - sum z_k^2
is the scale factor there, and the inverse change gives
h^2 = (1 + 2 v1 + v.v)^(-1). Raising z to -tau/2 powers of h^2 produces
the transform whose coefficients are the joint spectral moments; for n=1
everything collapses to the gamma/Laguerre classics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import sub

from .algebra import build_observables
from .fock import (
    PositivityProbe,
    build_hat,
    gram_matrix,
    mi_degree,
    mi_factorial,
    multi_indices,
    positivity_probe,
    probe_components,
    vacuum_vector,
)
from .matrices import _coerce_entry, dot, exp_nilpotent_apply, linear_combination
from .poly import MultiPoly, exp_series, series_power, weight_exponent
from .report import CheckResult, Report
from .scalars import I as _I
from .scalars import gr
from .states import ROUTE_FAILURES, StateVector, recover_coordinates, vacuum


class SingularCoordinateError(ValueError):
    pass


def zeta2_value(z):
    """The Lorentz form z1^2 - z2^2 - ... - zn^2."""
    comps = [_coerce_entry(c) for c in z]
    return reduce(sub, (c * c for c in comps[1:]), comps[0] * comps[0])


def h2_value(z):
    """(1 - z1)^2 - z2^2 - ... - zn^2: the Lorentz form at (1 - z1, z2, ..)."""
    return zeta2_value((1 - z[0], *z[1:]))


def _symbolic_z(n: int) -> tuple:
    return tuple(MultiPoly.var(f"z{j}") for j in range(1, n + 1))


def exp_zX_vacuum(z) -> StateVector:
    """exp(z.X) applied to the vacuum, via the nilpotent exponential, checked
    against the closed quadratic form."""
    n = len(z)
    comps = [_coerce_entry(c) for c in z]
    obs = build_observables(n)
    generator = linear_combination(comps, [e.matrix for e in obs])
    omega = vacuum(n)
    moved = StateVector(exp_nilpotent_apply(generator, omega.entries))
    zeta2 = zeta2_value(comps)
    closed = StateVector(
        (gr(0, 2) * (comps[0] - zeta2),)
        + tuple(2 * c for c in comps[1:])
        + (1 - 2 * comps[0] + 2 * zeta2, _I * (1 - 2 * comps[0]))
    )
    if moved != closed:
        raise AssertionError("closed form for exp(z.X) vacuum fails")
    return moved


def z_to_v(z):
    """(v, h^2) with v1 = (1 - z1 - h^2)/h^2 and v_k = -i z_k / h^2.

    Checked against coordinate recovery from the moved vacuum vector.
    """
    comps = [_coerce_entry(c) for c in z]
    h2 = h2_value(comps)
    if not h2:
        raise SingularCoordinateError("h^2 vanishes at this point")
    v = ((1 - comps[0] - h2) / h2,) + tuple((-_I) * c / h2 for c in comps[1:])
    state = exp_zX_vacuum(comps)
    recovered_v, lam = recover_coordinates(state)
    if lam != h2 or any(a != b for a, b in zip(recovered_v, v)):
        raise AssertionError("coordinate recovery disagrees with the closed form")
    return v, h2


def v_to_z(v):
    """(z, h^2) with h^2 = (1 + 2 v1 + v.v)^(-1); inverse of z_to_v."""
    comps = [_coerce_entry(c) for c in v]
    denom = 1 + 2 * comps[0] + dot(comps, comps)
    if not denom:
        raise SingularCoordinateError("1 + 2 v1 + v.v vanishes at this point")
    h2 = 1 / denom
    z = (1 - h2 * (1 + comps[0]),) + tuple(_I * h2 * c for c in comps[1:])
    back, back_h2 = z_to_v(z)
    if back_h2 != h2 or any(a != b for a, b in zip(back, comps)):
        raise AssertionError("round trip through the coordinate change fails")
    return z, h2


def verify_coordinate_duality(n: int) -> Report:
    """exp(z.X) vacuum = h^2 * coherent(v(z)) as exact identities in symbolic z.

    The spatial slots of h^2 * coherent(v(z)) are 2i (h^2 v_j) and the
    temporal ones are h^2 +- (h^2 v.v), so the check clears denominators by
    dividing sum (h^2 v_j)^2 by h^2 exactly. A failed exp(z.X) vacuum is
    one FAIL row with the message as its detail.
    """
    title = f"coordinate duality (n={n})"
    z = _symbolic_z(n)
    h2 = h2_value(z)
    try:
        state = exp_zX_vacuum(z)
    except ROUTE_FAILURES as exc:
        name = "exp(z.X) vacuum equals its closed form"
        return Report(title, [CheckResult(name, False, str(exc))])
    num = (1 - z[0] - h2,) + tuple((-_I) * c for c in z[1:])
    name = "(h^2 v).(h^2 v) is divisible by h^2"
    try:
        scaled_v2 = dot(num, num).exact_divide(h2)
    except ValueError:
        return Report(title, [CheckResult(name, False)])
    checks = [CheckResult(name, True)]
    expected = (
        tuple(gr(0, 2) * c for c in num)
        + (h2 + scaled_v2, _I * (h2 - scaled_v2))
    )
    for i, (got, want) in enumerate(zip(state.entries, expected)):
        checks.append(CheckResult(f"component {i + 1} matches", got == want))
    return Report(title, checks)


def roundtrip_check(n: int, count: int, seed: int, height: int = 5) -> Report:
    """v -> z -> v on random exact points with nonzero denominators.

    v_to_z asserts the round trip and recovers the coordinates of the moved
    vacuum; a point where either fails is a FAIL row with the message as
    its detail.
    """
    import random

    rng = random.Random(seed)
    checks = []
    done = 0
    while done < count:
        v = [
            Fraction(rng.randint(-height, height), rng.randint(1, height))
            for _ in range(n)
        ]
        name = f"round trip at point {done + 1}"
        try:
            v_to_z(v)
        except SingularCoordinateError:
            continue
        except ROUTE_FAILURES as exc:
            checks.append(CheckResult(name, False, str(exc)))
        else:
            checks.append(CheckResult(name, True))
        done += 1
    return Report(f"coordinate round trips (n={n})", checks)


def spectral_transform(n: int, truncation: int, tau: Fraction | None = None):
    """Series of ((1-z1)^2 - sum z_k^2) ** (-tau/2) in the z variables."""
    return series_power(h2_value(_symbolic_z(n)), weight_exponent(tau), truncation)


@dataclass(frozen=True)
class MomentTable:
    """Joint moments E[x^k] = k! [z^k] of the transform."""

    n: int
    max_degree: int
    tau: Fraction | None
    entries: dict

    def moment(self, k):
        return self.entries.get(tuple(k), MultiPoly.zero())


def _hat_moments(n: int, max_degree: int) -> dict:
    """<vacuum, X^k vacuum> for all |k| <= max_degree, weight symbolic.

    The X^k vacuum vectors are built by extending one slot at a time (the
    family commutes, so the extension order is immaterial). The Gram table
    is block-diagonal by degree with vacuum entry 1 (gram_matrix asserts
    both), so each expectation is the vacuum component of X^k vacuum.
    """
    bound = max(max_degree, 2)
    hat = build_hat(n, bound)
    omega = vacuum_vector(n)
    xs = [hat.observable(j) for j in range(1, n + 1)]
    table = {(0,) * n: omega}
    out = {}
    for k in multi_indices(n, max_degree):
        if k not in table:
            j = next(i for i, e in enumerate(k) if e)
            prev = tuple(e - (1 if i == j else 0) for i, e in enumerate(k))
            table[k] = xs[j].apply(table[prev])
        out[k] = MultiPoly.coerce(table[k].get((0,) * n, 0))
    return out


def moments(
    n: int, max_degree: int, tau: Fraction | None = None, check_hat: bool = True
) -> MomentTable:
    """Moment table from the transform at the requested weight.

    With check_hat the table in symbolic t is compared with the vacuum
    expectations of the observable family in the hat realization, and a
    table at a given weight with those expectations at that weight.
    """

    def table(weight):
        buckets = spectral_transform(n, max_degree, weight).split_index("z", n)
        return {
            k: mi_factorial(k) * buckets.get(k, MultiPoly.zero())
            for k in multi_indices(n, max_degree)
        }

    entries = table(tau)
    if check_hat:
        expected = _hat_moments(n, max_degree)
        symbolic = entries if tau is None else table(None)
        for k, value in symbolic.items():
            at_tau = tau is None or expected[k].subs({"t": tau}) == entries[k]
            if expected[k] != value or not at_tau:
                raise AssertionError(f"moment mismatch at {k}")
    return MomentTable(n, max_degree, tau, entries)


def moment_positivity_probe(n: int, tau: Fraction, degree: int) -> PositivityProbe:
    """Exact LDL of the moment matrix M[k][m] = E[x^(k+m)] at an exact
    weight, one per component of its nonzero values, every pivot labeled 0.

    An empirical probe of one weight, not a positivity proof.
    """
    # the two-argument form takes exact rationals only, not a float
    table = moments(n, 2 * degree, tau=Fraction(tau, 1), check_hat=False)
    nonzero = {k: v.as_gaussian().as_fraction() for k, v in table.entries.items() if v}
    basis = multi_indices(n, degree)
    values = {
        (i, j): nonzero[s]
        for i, k in enumerate(basis)
        for j, m in enumerate(basis)
        if (s := tuple(a + b for a, b in zip(k, m))) in nonzero
    }
    return probe_components(values, [0] * len(basis))


@dataclass(frozen=True)
class BasisPolynomial:
    index: tuple
    poly: MultiPoly


def basis_polynomials(
    n: int, max_total_degree: int, tau: Fraction | None = None
) -> list:
    """Basis states as polynomials in the spectral variables x_1..x_n.

    |k>(x) is k! times the v^k coefficient of
    exp((x1 (v1 + v.v) + i (x.v - x1 v1)) h^2(v)) * h^2(v)^(tau/2)
    with h^2(v) = (1 + 2 v1 + v.v)^(-1).
    """
    kmax = max_total_degree
    if kmax < 0:
        raise ValueError("degree must be non-negative")
    v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
    x = [MultiPoly.var(f"x{j}") for j in range(1, n + 1)]
    v2 = dot(v, v)
    q = 1 + 2 * v[0] + v2
    inv_q = series_power(q, Fraction(-1), kmax)
    numerator = x[0] * (v[0] + v2) + _I * (dot(x, v) - x[0] * v[0])
    exponent_arg = numerator.mul_truncated(inv_q, {"v": kmax})
    exp_part = exp_series(exponent_arg, kmax)
    weight_part = series_power(q, weight_exponent(tau), kmax)
    gf = exp_part.mul_truncated(weight_part, {"v": kmax})
    buckets = gf.split_index("v", n)
    return [
        BasisPolynomial(k, mi_factorial(k) * buckets.get(k, MultiPoly.zero()))
        for k in multi_indices(n, kmax)
    ]


def _apply_moment_functional(poly: MultiPoly, table: MomentTable):
    by_index = poly.split_index("x", table.n)
    return sum((c * table.moment(k) for k, c in by_index.items()), MultiPoly.zero())


def vacuum_orthogonality_check(n: int, kmax: int) -> Report:
    """E[p_k] = 0 for every nonzero k, as identities in the weight."""
    table = moments(n, kmax, check_hat=False)
    polys = basis_polynomials(n, kmax)
    checks = []
    for bp in polys:
        value = _apply_moment_functional(bp.poly, table)
        expected_zero = mi_degree(bp.index) > 0
        ok = value.is_zero if expected_zero else value == 1
        name = (
            f"E[p_{bp.index}] = 0" if expected_zero else f"E[p_{bp.index}] = 1"
        )
        checks.append(CheckResult(name, ok))
    return Report(f"vacuum orthogonality (n={n}, kmax={kmax})", checks)


def orthogonality_check(tau: Fraction, kmax: int) -> Report:
    """Three routes to <p_k, p_m> for n=1 at an exact weight:

    (a) the Gram table from the Leibniz series, (b) the moment functional
    applied to p_k p_m, (c) the closed form delta_km k! (tau)_k.
    """
    tau = Fraction(tau, 1)
    values = gram_matrix(1, kmax).eval_at(tau)
    table = moments(1, 2 * kmax, tau=tau, check_hat=False)
    polys = {bp.index: bp.poly for bp in basis_polynomials(1, kmax, tau=tau)}
    checks = [
        CheckResult(
            "pairing is positive definite at this weight",
            positivity_probe(1, kmax, tau).positive_definite,
        )
    ]
    for k in range(kmax + 1):
        for m in range(k, kmax + 1):
            a = values.get((k, m), 0)
            b = _apply_moment_functional(polys[(k,)] * polys[(m,)], table).as_gaussian()
            if k == m:
                c = Fraction(mi_factorial((k,)))
                for i in range(k):
                    c *= tau + i
            else:
                c = Fraction(0)
            ok = a == b == c
            checks.append(CheckResult(f"<p_{k}, p_{m}> agrees on all routes", ok))
    return Report(f"orthogonality routes (n=1, tau={tau}, kmax={kmax})", checks)


def moment_consistency_check(n: int, max_degree: int) -> Report:
    """k! [z^k] of the transform equals <vacuum, X^k vacuum>, symbolically."""
    name = "transform moments match vacuum expectations"
    try:
        moments(n, max_degree, check_hat=True)
        check = CheckResult(name, True)
    except ROUTE_FAILURES as exc:
        check = CheckResult(name, False, str(exc))
    return Report(f"moment consistency (n={n}, degree={max_degree})", [check])
