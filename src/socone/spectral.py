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
from functools import cache
from types import MappingProxyType

from .algebra import _observables
from .fock import (
    FockMatrix,
    PositivityProbe,
    build_hat,
    gram_at,
    mi_degree,
    mi_factorial,
    multi_indices,
    pairing_series,
    positivity_probe,
    probe_components,
)
from .matrices import _divided, dot, exact_value, exact_vector
from .matrices import numerator_pairs, pair_dot, pair_product
from .poly import (
    MultiPoly,
    _pack,
    exp_series,
    series_power,
    weight_exponent,
)
from .report import CheckResult, Report
from .scalars import I as _I
from .scalars import gr
from .states import ROUTE_FAILURES, StateVector, _orbit_coordinates, _point_pairs, _raised
from .states import random_point


class SingularCoordinateError(ValueError):
    pass


def zeta2_value(z):
    """The Lorentz form z1^2 - z2^2 - ... - zn^2, over numerator pairs."""
    (first, *rest), d = _point_pairs(z)
    return exact_value(*_lorentz_pairs(first, rest), d * d)


def h2_value(z):
    """(1 - z1)^2 - z2^2 - ... - zn^2: the Lorentz form at (1 - z1, z2, ..)."""
    ((r, i1), *rest), d = _point_pairs(z)
    return exact_value(*_lorentz_pairs((d - r, -i1), rest), d * d)


def _symbolic_z(n: int) -> tuple:
    return tuple(MultiPoly.var(f"z{j}") for j in range(1, n + 1))


def _exact_point(values) -> tuple:
    """(pairs, d) with values = pairs / d for a spatial tuple of exact
    numbers: an empty tuple raises ValueError, a polynomial TypeError."""
    pairs, d = _point_pairs(values)
    if any(type(re) is not int for re, _ in pairs):
        raise TypeError("coordinate changes take exact numbers, not polynomials")
    return pairs, d


def _lorentz_pairs(first, rest) -> tuple:
    """first^2 - rest.rest over numerator pairs."""
    (a, b), (c, e) = pair_product(first, first), pair_dot(rest, rest)
    return a - c, b - e


def _moved_pairs(z, pairs, d) -> tuple:
    """exp(z.X) vacuum for z = pairs / d as (numerator pairs, denominator),
    by states._raised, the vacuum exponential coherent_state uses, on the X
    family's stack. It is checked against the closed quadratic form in
    numerator pairs: with z1 = Z1 / d and zeta^2 = p / d^2, the form is
    (2i (d Z1 - p), 2 d Z_k, d^2 - 2 d Z1 + 2 p, i (d^2 - 2 d Z1)) / d^2,
    and pair (x, y) over den equals (c, e) over d^2 when x d^2 = c den and
    y d^2 = e den."""
    n = len(pairs)
    moved, den = _raised(n, z, _observables(n)[1])
    (r, i1), *rest = pairs
    p0, p1 = _lorentz_pairs((r, i1), rest)
    d2, dr, di = d * d, d * r, d * i1
    closed = (
        [(2 * (p1 - di), 2 * (dr - p0))]
        + [(2 * d * x, 2 * d * y) for x, y in rest]
        + [(d2 - 2 * dr + 2 * p0, 2 * (p1 - di)), (2 * di, d2 - 2 * dr)]
    )
    for (x, y), (c, e) in zip(moved, closed):
        if x * d2 != c * den or y * d2 != e * den:
            raise AssertionError("closed form for exp(z.X) vacuum fails")
    return moved, den


def exp_zX_vacuum(z) -> StateVector:
    """exp(z.X) applied to the vacuum, checked against its closed form."""
    return StateVector(exact_vector(*_moved_pairs(z, *numerator_pairs(z))))


def z_to_v(z):
    """(v, h^2) with v1 = (1 - z1 - h^2)/h^2 and v_k = -i z_k / h^2.

    The point is cleared once to z = Z / d, and h^2 = g / d^2 with g =
    (d - Z1)^2 - Z2^2 - ... - Zn^2. Then v1 = (d (d - Z1) - g) / g and
    v_k = -i d Z_k / g, each divided by the Gaussian integer g once. Checked
    against coordinate recovery from the moved vacuum, read as its
    numerator pairs by states._orbit_coordinates.
    """
    pairs, d = _exact_point(z)
    (r, i1), *rest = pairs
    g = _lorentz_pairs((d - r, -i1), rest)
    if not any(g):
        raise SingularCoordinateError("h^2 vanishes at this point")
    first = (d * (d - r) - g[0], -d * i1 - g[1])
    v = _divided([first, *((d * y, -d * x) for x, y in rest)], g)
    h2 = exact_value(*g, d * d)
    recovered_v, lam = _orbit_coordinates(*_moved_pairs(z, pairs, d))
    if lam != h2 or any(a != b for a, b in zip(recovered_v, v)):
        raise AssertionError("coordinate recovery disagrees with the closed form")
    return v, h2


def v_to_z(v):
    """(z, h^2) with h^2 = (1 + 2 v1 + v.v)^(-1); inverse of z_to_v.

    The point is cleared once to v = V / d, and 1 + 2 v1 + v.v = q / d^2
    with q = d^2 + 2 d V1 + V.V. Then h^2 = d^2 / q, z1 = (q - d (d + V1)) / q
    and z_k = i d V_k / q, each divided by the Gaussian integer q once.
    """
    pairs, d = _exact_point(v)
    (r, i1), *rest = pairs
    vv0, vv1 = pair_dot(pairs, pairs)
    q = (d * d + 2 * d * r + vv0, 2 * d * i1 + vv1)
    if not any(q):
        raise SingularCoordinateError("1 + 2 v1 + v.v vanishes at this point")
    first = (q[0] - d * (d + r), q[1] - d * i1)
    # h^2 = d^2 / q rides along as the last quotient
    out = _divided([first, *((-d * y, d * x) for x, y in rest), (d * d, 0)], q)
    z, h2 = out[:-1], out[-1]
    back, back_h2 = z_to_v(z)
    if back_h2 != h2 or any(a != b for a, b in zip(back, v)):
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
    try:
        # builds the observables, so n < 1 raises ValueError here
        state = exp_zX_vacuum(z)
    except ROUTE_FAILURES as exc:
        name = "exp(z.X) vacuum equals its closed form"
        return Report(title, [CheckResult(name, False, str(exc))])
    h2 = h2_value(z)
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
    if count < 1:
        raise ValueError("the number of points must be at least 1")
    import random

    rng = random.Random(seed)
    checks = []
    done = 0
    while done < count:
        v = random_point(rng, n, height)
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
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
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

    With omega the projector onto the vacuum state, X^k omega is built as a
    product, extending one slot at a time (the family commutes, so the
    extension order is immaterial). The Gram table is block-diagonal by
    degree with vacuum entry 1 (fock._gram_cells asserts both), so each
    expectation is the vacuum cell of X^k omega, the pairing series of
    omega X^k omega.
    """
    bound = max(max_degree, 2)
    hat = build_hat(n, bound)
    observables = [hat.observable(j) for j in range(1, n + 1)]
    omega = FockMatrix(n, bound, {(0, 0): 1})
    table = {(0,) * n: omega}
    out = {}
    for k in multi_indices(n, max_degree):
        if k not in table:
            j = next(i for i, e in enumerate(k) if e)
            lower = tuple(e - (1 if i == j else 0) for i, e in enumerate(k))
            table[k] = observables[j] * table[lower]
        out[k] = pairing_series(omega * table[k])
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


@cache
def _moment_cells(n: int, degree: int) -> tuple:
    """(size, cells) of the moment matrix on the basis states of degree at
    most `degree`: size is their number, and cells maps the word of z^s in
    the transform's terms, for each s = k + m, to s! and the positions
    (i, j) of the cells that hold E[x^s]. Every z^s of degree at most
    2 * degree is some k + m. Nothing here depends on the weight, so the
    map is built once per (n, degree)."""
    basis = multi_indices(n, degree)
    positions = {}
    for i, k in enumerate(basis):
        for j, m in enumerate(basis):
            s = tuple(a + b for a, b in zip(k, m))
            positions.setdefault(s, []).append((i, j))
    names = [f"z{j}" for j in range(1, n + 1)]
    cells = {
        _pack(zip(names, s)): (mi_factorial(s), tuple(at))
        for s, at in positions.items()
    }
    return len(basis), MappingProxyType(cells)


def moment_positivity_probe(n: int, tau: Fraction, degree: int) -> PositivityProbe:
    """Exact LDL of the moment matrix M[k][m] = E[x^(k+m)] at an exact
    weight, one per component of its nonzero values, every pivot labeled 0.

    The transform is expanded at the weight, and each moment
    E[x^s] = s! [z^s] is read off its terms as one Fraction into the cells
    that hold it (_moment_cells). A term that is not z^s for a moment, as
    one in t would be, or a complex coefficient raises ValueError.
    An empirical probe of one weight, not a positivity proof.
    """
    # the two-argument form takes exact rationals only, not a float
    series = spectral_transform(n, 2 * degree, Fraction(tau, 1))
    size, cells = _moment_cells(n, degree)
    values = {}
    for word, coeff in series.terms.items():
        cell = cells.get(word)
        if cell is None:
            raise ValueError("the transform has a term that is not a moment")
        scale, at = cell
        a, d = coeff.as_integer_ratio()
        value = Fraction(a * scale, d)
        for pos in at:
            values[pos] = value
    return probe_components(values, [0] * size)


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
    basis = multi_indices(n, kmax)  # n < 1 raises ValueError here
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
        for k in basis
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

    (a) the Gram table's integer cells at tau (gram_at), (b) the moment
    functional applied to p_k p_m, (c) the closed form delta_km k! (tau)_k.
    """
    tau = Fraction(tau, 1)
    values = gram_at(1, kmax, tau)
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
