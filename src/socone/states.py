"""Vacuum, coherent states, coordinate recovery, and the Leibniz function.

The matrix realization pins the vacuum weight at -2. The scalar read off a
group-orbit vector (v0, a, b) is lam = (a - i b)/2, which agrees with the
quotient -v0.v0 / (2 (a + i b)) wherever that quotient is defined but has
no 0/0 at the vacuum. The pairing behind the Leibniz function is the
bilinear functional s -> (a - i b)/2, i.e. conj(vacuum) paired into s and
halved; a naive conjugate-transpose pairing is NOT compatible with the
ladder involution here (it sends R_j to -L_j), which is why all inner
products go through this functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import build_algebra, rotation_label
from .matrices import (
    NotNilpotentError,
    _coerce_entry,
    dot,
    exp_nilpotent_apply,
    linear_combination,
)
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
    state with equal entries and, like the polynomials it may hold, unhashable."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(_coerce_entry(e) for e in self.entries)
        )
        if len(self.entries) < 3:
            raise ValueError("state vectors need at least three components")

    @property
    def n(self) -> int:
        return len(self.entries) - 2

    @property
    def v0(self) -> tuple:
        return self.entries[: self.n]

    @property
    def a(self):
        return self.entries[self.n]

    @property
    def b(self):
        return self.entries[self.n + 1]

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


def coherent_closed_form(v) -> StateVector:
    """(2i v, 1 + v.v, i (1 - v.v)) for a spatial tuple v."""
    comps = [_coerce_entry(c) for c in v]
    v2 = dot(comps, comps)
    spatial = tuple(gr(0, 2) * c for c in comps)
    return StateVector(spatial + (1 + v2, _I * (1 - v2)))


def coherent_state(v) -> StateVector:
    """exp(v.R) applied to the vacuum, computed two ways and asserted equal."""
    n = len(v)
    alg = build_algebra(n)
    comps = [_coerce_entry(c) for c in v]
    generator = linear_combination(comps, [alg.R(j) for j in range(1, n + 1)])
    omega = vacuum(n)
    via_exp = StateVector(exp_nilpotent_apply(generator, omega.entries))
    closed = coherent_closed_form(comps)
    if via_exp != closed:
        raise AssertionError("exponential and closed-form coherent states differ")
    return closed


def lambda_factor(state: StateVector):
    """The scale factor (a - i b)/2 of an orbit vector; exact, no division."""
    return (state.a - _I * state.b) * _HALF


def recover_coordinates(state: StateVector):
    """Invert s = lam * (2i v, 1 + v.v, i(1 - v.v)) to (v, lam) for a state
    of exact numbers.

    The quotient form of lam is asserted through its cleared-denominator
    identity, and the reconstruction is verified against the closed form;
    anything off the orbit raises NotInOrbitError. The spatial part divides
    by b + i a = 2i lam, which is nonzero once lam is.
    """
    lam = lambda_factor(state)
    if not lam:
        raise NotInOrbitError("a - i b vanishes: vector is not in the orbit")
    # cleared form of lam = -(1/2) v0.v0 / (a + i b)
    if -_HALF * dot(state.v0, state.v0) != lam * (state.a + _I * state.b):
        raise NotInOrbitError("quotient identity for the scale factor fails")
    denom = state.b + _I * state.a
    v = tuple(c / denom for c in state.v0)
    if StateVector(tuple(lam * e for e in coherent_closed_form(v).entries)) != state:
        raise NotInOrbitError("vector is not a scaled coherent state")
    return v, lam


def leibniz_base(n: int) -> MultiPoly:
    """1 - 2 w.v + (w.w)(v.v) in the symbolic w and v variables."""
    return leibniz_base_value(
        [MultiPoly.var(f"w{j}") for j in range(1, n + 1)],
        [MultiPoly.var(f"v{j}") for j in range(1, n + 1)],
    )


def leibniz_base_value(w, v):
    """1 - 2 w.v + (w.w)(v.v) at tuples of exact numbers or polynomials."""
    wc = [_coerce_entry(c) for c in w]
    vc = [_coerce_entry(c) for c in v]
    return 1 - 2 * dot(wc, vc) + dot(wc, wc) * dot(vc, vc)


def moved_vacuum(w, v, q) -> StateVector:
    """exp(w.L) q exp(v.R) vacuum, the coherent matrix element of an
    (n+2)-square matrix q between spatial tuples w and v of exact numbers or
    polynomials, computed by matrix-vector products only.
    """
    n = len(w)
    alg = build_algebra(n)
    lower = linear_combination(w, [alg.L(j) for j in range(1, n + 1)])
    raiser = linear_combination(v, [alg.R(j) for j in range(1, n + 1)])
    moved = q.apply(exp_nilpotent_apply(raiser, vacuum(n).entries))
    return StateVector(exp_nilpotent_apply(lower, moved))


def leibniz_from_matrices(w, v):
    """Pairing of two coherent states through the matrix pipeline.

    Reads the scale factor off exp(w.L) exp(v.R) vacuum and asserts it
    equals 1 - 2 w.v + (w.w)(v.v). Works on exact numbers and on symbolic
    components alike.
    """
    n = len(w)
    if len(v) != n:
        raise ValueError("w and v must have the same length")
    identity = build_algebra(n).identity
    wc = [_coerce_entry(c) for c in w]
    vc = [_coerce_entry(c) for c in v]
    state = moved_vacuum(wc, vc, identity)
    symbolic = any(isinstance(c, MultiPoly) for c in wc + vc)
    lam = lambda_factor(state)
    if not symbolic and lam:
        # on the invertible part of the orbit the state must pass the
        # recovery's orbit checks
        recover_coordinates(state)
    if lam != leibniz_base_value(wc, vc):
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


def coherent_suite(n: int, count: int = 50, seed: int = 0, height: int = 5) -> Report:
    """Randomized exact checks of the coherent-state pipeline.

    Matrix pairing versus closed form, swap symmetry, the reproducing value
    at w = 0, scaled-state recovery, and (for n <= 2) the fully symbolic
    pairing identity.
    """
    import random

    rng = random.Random(seed)

    def rand_tuple():
        return [
            Fraction(rng.randint(-height, height), rng.randint(1, height))
            for _ in range(n)
        ]

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
        w, v = rand_tuple(), rand_tuple()
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
        v = rand_tuple()
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
