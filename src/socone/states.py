"""Vacuum, coherent states, coordinate recovery, and the Leibniz function.

The matrix realization pins the vacuum weight at -2. The scalar read off a
group-orbit vector (v0, a, b) is lam = (a - i b)/2, which agrees with the
quotient -v0.v0 / (2 (a + i b)) wherever that quotient is defined but has
no 0/0 at the vacuum. The pairing behind the Leibniz function is the
bilinear functional s -> (a - i b)/2, i.e. conj(vacuum) paired into s and
halved; a naive conjugate-transpose pairing is NOT compatible with the
ladder involution here (it sends R_j to -L_j), which is why all inner
products go through this functional.

From the raise to the orbit checks, a vector stays Gaussian-integer pairs
(re, im) over one denominator (a polynomial p is (p, 0) over 1); only a
matrix q between the raise and the lower, and the values returned, see
exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .algebra import build_algebra, rotation_label
from .matrices import NotNilpotentError, _coerce_entry, _divided, _numerators
from .matrices import exact_value, exact_vector, exp_combination_cleared
from .matrices import numerator_pairs, pair_dot, pair_product
from .poly import MultiPoly, series_power, weight_exponent
from .report import CheckResult, Report
from .scalars import I as _I
from .scalars import gr

_HALF = Fraction(1, 2)


class NotInOrbitError(ValueError):
    pass


# what a failed route raises inside a verify suite: each is caught there and
# becomes a FAIL row with the message as its detail
ROUTE_FAILURES = (AssertionError, NotInOrbitError, NotNilpotentError)


@dataclass(frozen=True)
class StateVector:
    """A column vector split as (v0: n spatial entries, a, b), equal to a
    state with equal entries and, like the polynomials it may hold, unhashable.
    Its numerator pairs are cleared once, on first read of `pairs`."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(_coerce_entry, self.entries)))
        if len(self.entries) < 3:
            raise ValueError("state vectors need at least three components")

    @cached_property
    def pairs(self) -> tuple:
        """numerator_pairs(entries), the pairs as a tuple: (pairs, d)."""
        pairs, d = numerator_pairs(self.entries)
        return tuple(pairs), d

    @property
    def a(self):
        return self.entries[-2]

    @property
    def b(self):
        return self.entries[-1]

    def __rmul__(self, scalar):
        return StateVector(tuple(scalar * e for e in self.entries))

    __hash__ = None


@cache
def vacuum(n: int) -> StateVector:
    """The vacuum (0,..,0,1,i); its annihilation properties are asserted
    once per n. Built once per n and shared: a StateVector is immutable.
    """
    alg = build_algebra(n)
    omega = StateVector((gr(0),) * n + (gr(1), _I))
    for j in range(1, n + 1):
        if any(alg.L(j).apply(omega.entries)):
            raise AssertionError(f"L{j} does not annihilate the vacuum")
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if any(alg.rho(j, k).apply(omega.entries)):
                raise AssertionError(
                    f"{rotation_label(j, k)} does not annihilate the vacuum"
                )
    if StateVector(alg.rho0.apply(omega.entries)) != (-2) * omega:
        raise AssertionError("rho0 does not act as -2 on the vacuum")
    return omega


def _point_pairs(values) -> tuple:
    """numerator_pairs of a spatial tuple; an empty tuple raises ValueError."""
    pairs, d = numerator_pairs(values)
    if not pairs:
        raise ValueError("spatial dimension must be at least 1")
    return pairs, d


def coherent_closed_form(v) -> StateVector:
    """(2i v, 1 + v.v, i (1 - v.v)) for a spatial tuple v, read off its
    numerator pairs: with v = V / d and V.V = p + i q, the entries are
    2i V / d, (d^2 + p + i q) / d^2 and (q + i (d^2 - p)) / d^2. An empty
    tuple raises ValueError."""
    pairs, d = _point_pairs(v)
    p, q = pair_dot(pairs, pairs)
    d2 = d * d
    spatial = tuple(exact_value(-2 * im, 2 * re, d) for re, im in pairs)
    return StateVector(spatial + (exact_value(d2 + p, q, d2), exact_value(q, d2 - p, d2)))


def _raised(n, coeffs, stack) -> tuple:
    """exp(sum_k coeffs[k] M_k) vacuum(n) for the family M_k cleared into
    stack, the exponential of the vacuum behind v.R and z.X, as (numerator
    pairs, denominator). The vacuum's pairs are cleared once per vector."""
    return exp_combination_cleared(coeffs, stack, *vacuum(n).pairs)


def coherent_state(v) -> StateVector:
    """exp(v.R) applied to the vacuum, computed two ways and asserted equal:
    by exp_combination_cleared and in closed form."""
    alg = build_algebra(len(v))
    via_exp = StateVector(exact_vector(*_raised(alg.n, v, alg.raising_stack)))
    closed = coherent_closed_form(v)
    if via_exp != closed:
        raise AssertionError("exponential and closed-form coherent states differ")
    return closed


def lambda_factor(state: StateVector):
    """The scale factor (a - i b)/2 of an orbit vector; exact, no division."""
    return (state.a - _I * state.b) * _HALF


def _orbit_coordinates(pairs, den):
    """recover_coordinates on a state given as numerator pairs over den."""
    *spatial, (ar, ai), (br, bi) = pairs
    lr, li = scale = (ar + bi, ai - br)  # a - i b = 2 lam, over den
    if not (lr or li):
        raise NotInOrbitError("a - i b vanishes: vector is not in the orbit")
    v2r, v2i = pair_dot(spatial, spatial)
    if (-v2r, -v2i) != pair_product(scale, (ar - bi, ai + br)):
        raise NotInOrbitError("quotient identity for the scale factor fails")
    # b + i a = i (a - i b) = -li + i lr
    v = _divided(spatial, (-li, lr))
    # lam (c + i e) / f = (x + i y) / den, times 2 den f
    for (x, y), entry in zip(pairs, coherent_closed_form(v).entries):
        c, e, f = _numerators(entry)
        if pair_product(scale, (c, e)) != (2 * f * x, 2 * f * y):
            raise NotInOrbitError("vector is not a scaled coherent state")
    return v, exact_value(lr, li, 2 * den)


def recover_coordinates(state: StateVector):
    """Invert s = lam * (2i v, 1 + v.v, i(1 - v.v)) to (v, lam) for a state
    of exact numbers.

    The entries are cleared to Gaussian-integer numerators over one
    denominator, and both orbit checks run as identities between them:
    lam = -(1/2) v0.v0 / (a + i b) as -(v0.v0) = (a - i b)(a + i b), and
    the reconstruction lam * coherent_closed_form(v) = s cross-multiplied.
    Anything off the orbit raises NotInOrbitError. The spatial part divides
    by b + i a = i (a - i b), which is nonzero once lam is; only v and lam
    are made into exact values.
    """
    return _orbit_coordinates(*numerator_pairs(state.entries))


def leibniz_base(n: int) -> MultiPoly:
    """1 - 2 w.v + (w.w)(v.v) in the symbolic w and v variables."""
    return leibniz_base_value(
        [MultiPoly.var(f"w{j}") for j in range(1, n + 1)],
        [MultiPoly.var(f"v{j}") for j in range(1, n + 1)],
    )


def leibniz_base_value(w, v):
    """1 - 2 w.v + (w.w)(v.v) at tuples of exact numbers or polynomials.

    With w = W/dw and v = V/dv in numerator pairs and d = dw dv, the value
    is d^2 - 2 d W.V + (W.W)(V.V) over d^2, made into one exact value.
    """
    (wp, dw), (vp, dv) = _point_pairs(w), _point_pairs(v)
    d = dw * dv
    wv = pair_dot(wp, vp)
    re, im = pair_product(pair_dot(wp, wp), pair_dot(vp, vp))
    return exact_value(d * d - 2 * d * wv[0] + re, im - 2 * d * wv[1], d * d)


def _moved(w, v, q) -> tuple:
    """moved_vacuum(w, v, q) as (numerator pairs, denominator)."""
    alg = build_algebra(len(w))
    moved = _raised(alg.n, v, alg.raising_stack)
    if q is not alg.identity:  # the identity changes nothing
        moved = numerator_pairs(q.apply(exact_vector(*moved)))
    return exp_combination_cleared(w, alg.lowering_stack, *moved)


def moved_vacuum(w, v, q) -> StateVector:
    """exp(w.L) q exp(v.R) vacuum, the coherent matrix element of an
    (n+2)-square matrix q between spatial tuples w and v of exact numbers or
    polynomials, each exponential by exp_combination_cleared. q acts on the
    raised vector as exact values (DenseMatrix.apply), cleared again for
    the lowering; the entries are made into exact values at the end.
    """
    return StateVector(exact_vector(*_moved(w, v, q)))


def leibniz_from_matrices(w, v):
    """Pairing of two coherent states through the matrix pipeline.

    Reads the scale factor off exp(w.L) exp(v.R) vacuum and asserts it
    equals 1 - 2 w.v + (w.w)(v.v). Works on exact numbers and on symbolic
    components alike. The scale factor and, at exact points where it is
    nonzero, the orbit checks of recover_coordinates are read off the
    moved vacuum's numerator pairs.
    """
    n = len(w)
    if len(v) != n:
        raise ValueError("w and v must have the same length")
    pairs, den = _moved(w, v, build_algebra(n).identity)
    (ar, ai), (br, bi) = pairs[-2:]
    lam = exact_value(ar + bi, ai - br, 2 * den)
    if lam and not any(isinstance(c, MultiPoly) for c in (*w, *v)):
        # on the invertible part of the orbit the state must pass the
        # recovery's orbit checks
        _orbit_coordinates(pairs, den)
    if lam != leibniz_base_value(w, v):
        raise AssertionError("matrix pipeline disagrees with the closed form")
    return lam


@cache
def leibniz_closed_form(
    n: int, truncation: int, tau: Fraction | None = None
) -> MultiPoly:
    """The pairing (1 - 2 w.v + (w.w)(v.v))^(-tau/2) as a truncated double
    series in w and v; with tau None the coefficients are polynomials in t.

    Built once per key and shared: the series is immutable. A failed build
    raises every time.
    """
    return series_power(leibniz_base(n), weight_exponent(tau), truncation)


def random_point(rng, n: int, height: int) -> list:
    """n exact rationals p/q drawn from rng with |p| <= height and
    1 <= q <= height, numerator then denominator, component by component."""
    if height < 1:
        raise ValueError("the height of random rationals must be at least 1")
    return [
        Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(n)
    ]


def coherent_suite(n: int, count: int = 50, seed: int = 0, height: int = 5) -> Report:
    """Randomized exact checks of the coherent-state pipeline.

    Matrix pairing versus closed form, swap symmetry, the reproducing value
    at w = 0, scaled-state recovery, and (for n <= 2) the fully symbolic
    pairing identity.
    """
    if count < 1:
        raise ValueError("the number of points must be at least 1")
    import random

    rng = random.Random(seed)
    checks = []
    try:
        vacuum(n)
        checks.append(CheckResult("vacuum axioms", True))
    except ROUTE_FAILURES as exc:
        checks.append(CheckResult("vacuum axioms", False, str(exc)))
    # a failed pipeline or orbit check ends its loop as a FAIL row
    agree = True
    failure = ""
    symmetric, reproducing = [], []  # one verdict per point compared
    for _ in range(count):
        w, v = random_point(rng, n, height), random_point(rng, n, height)
        try:
            lam = leibniz_from_matrices(w, v)
            symmetric.append(lam == leibniz_from_matrices(v, w))
            reproducing.append(leibniz_from_matrices([0] * n, v) == 1)
        except ROUTE_FAILURES as exc:
            agree, failure = False, str(exc)
            break
    checks.append(
        CheckResult(
            f"matrix pairing equals closed form ({count} points)", agree, failure
        )
    )
    # a row that compared no point has shown nothing, so it fails
    for name, verdicts in (
        ("pairing is symmetric under swapping w, v", symmetric),
        ("pairing at w = 0 is 1", reproducing),
    ):
        detail = "" if verdicts else "no point compared"
        checks.append(CheckResult(name, bool(verdicts) and all(verdicts), detail))
    recovered = True
    failure = ""
    for _ in range(max(count // 2, 1)):
        v = random_point(rng, n, height)
        lam = Fraction(rng.randint(1, height), rng.randint(1, height))
        try:
            got_v, got_lam = recover_coordinates(lam * coherent_state(v))
        except ROUTE_FAILURES as exc:
            recovered, failure = False, str(exc)
            break
        if got_lam != lam or any(a != b for a, b in zip(got_v, v)):
            recovered = False
            break
    checks.append(CheckResult("scaled-state recovery", recovered, failure))
    if n <= 2:
        w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
        v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
        try:
            leibniz_from_matrices(w, v)
            checks.append(CheckResult("symbolic pairing identity", True))
        except ROUTE_FAILURES as exc:
            checks.append(CheckResult("symbolic pairing identity", False, str(exc)))
    return Report(f"coherent states (n={n})", checks)
