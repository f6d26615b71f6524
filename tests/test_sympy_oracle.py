"""Series and division checked against sympy, an oracle outside socone.

Each truncated series is compared with sympy's Taylor expansion: every
variable group is scaled by its own symbol, and the expansion keeps each
such symbol's degree up to the bound, which is what per-group truncation
keeps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socone.fock import positivity_probe
from socone.poly import TAU, MultiPoly, exp_series, group_of, series_power
from socone.scalars import GaussianRational
from socone.spectral import moment_positivity_probe

sp = pytest.importorskip("sympy")

NAMES = ("v1", "v2", "w1", "t")
SYMS = {name: sp.Symbol(name) for name in NAMES}
SCALES = {"v": sp.Symbol("s_v"), "w": sp.Symbol("s_w")}


def rational(q):
    q = Fraction(q)
    return sp.Rational(q.numerator, q.denominator)


def to_sympy(p: MultiPoly):
    expr = sp.Integer(0)
    for mono, c in p.decoded_terms().items():
        term = rational(c.re) + sp.I * rational(c.im)
        for name, e in mono:
            term *= SYMS[name] ** e
        expr += term
    return sp.expand(expr)


def taylor(expr, groups, bound):
    """The Taylor polynomial of expr with degree <= bound in each group."""
    expr = expr.subs(
        {SYMS[n]: SCALES[group_of(n)] * SYMS[n] for n in NAMES if group_of(n) in groups},
        simultaneous=True,
    )
    for g in sorted(groups):
        expr = sp.series(expr, SCALES[g], 0, bound + 1).removeO()
    return sp.expand(expr.subs({SCALES[g]: 1 for g in groups}))


def assert_same(p: MultiPoly, expr):
    assert sp.expand(to_sympy(p) - expr) == 0


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.one_of(
    st.builds(GaussianRational, small.filter(bool)),
    st.builds(GaussianRational, small, small.filter(bool)),
)


@st.composite
def polys(draw, names, min_degree, max_terms, t_degree=1):
    """A sum of up to max_terms terms in names, each of total degree in
    names at least min_degree and at most 2, times t^k with k <= t_degree."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = [draw(st.integers(0, 2)) for _ in names]
        if sum(exps) < min_degree:
            exps[0] += min_degree - sum(exps)
        mono = list(zip(names, exps)) + [("t", draw(st.integers(0, t_degree)))]
        terms[tuple(mono)] = draw(coefficients)
    return MultiPoly(terms)


def series_groups(p: MultiPoly) -> set:
    return {group_of(n) for n in p.variables()} - {"t"}


exponents = st.one_of(
    small.map(lambda q: (q, rational(q))),
    st.tuples(small.filter(bool), small).map(
        lambda ab: (TAU * ab[0] + ab[1], rational(ab[0]) * SYMS["t"] + rational(ab[1]))
    ),
)


@settings(derandomize=True, max_examples=12)
@given(
    polys(("v1", "w1"), 1, 3),
    exponents,
    st.integers(0, 3),
)
def test_series_power_matches_sympy(u, exponent, bound):
    ours, theirs = exponent
    result = series_power(MultiPoly.const(1) + u, ours, bound)
    reference = taylor((1 + to_sympy(u)) ** theirs, series_groups(u), bound)
    assert_same(result, reference)


@settings(derandomize=True, max_examples=12)
@given(polys(("v1", "v2", "w1"), 1, 3), st.integers(0, 3))
def test_exp_series_matches_sympy(argument, bound):
    result = exp_series(argument, bound)
    reference = taylor(sp.exp(to_sympy(argument)), series_groups(argument), bound)
    assert_same(result, reference)


@settings(derandomize=True, max_examples=40)
@given(
    polys(("v1", "v2"), 0, 3),
    polys(("v1", "v2"), 0, 3),
    polys(("v1", "v2"), 0, 2),
    st.booleans(),
)
def test_exact_divide_matches_sympy(a, b, r, perturb):
    if b.is_zero:
        return
    dividend = a * b + r if perturb else a * b
    gens = [SYMS[n] for n in ("v1", "v2", "t")]
    quotient, remainder = sp.div(to_sympy(dividend), to_sympy(b), *gens)
    if sp.expand(remainder) == 0:
        result = dividend.exact_divide(b)
        assert_same(result, quotient)
        assert result * b == dividend
    else:
        with pytest.raises(ValueError):
            dividend.exact_divide(b)


@pytest.mark.parametrize(
    "probe, args",
    [
        (positivity_probe, (2, 3, Fraction(3))),
        (positivity_probe, (2, 6, Fraction(-1, 2))),
        (positivity_probe, (3, 5, Fraction(1, 3))),
        (moment_positivity_probe, (2, Fraction(3), 2)),
        (moment_positivity_probe, (3, Fraction(1, 2), 3)),
    ],
    ids=["gram (2,3,3)", "gram (2,6,-1/2)", "gram (3,5,1/3)", "moment (2,3,2)", "moment (3,1/2,3)"],
)
def test_float_min_eigenvalue_is_a_lower_bound_within_its_tolerance(probe, args):
    # each block's real eigenvalues are counted exactly by sympy (Sturm
    # sequences of the characteristic polynomial): none lies below the
    # float, and one lies within the docstring's tolerance above it
    result = probe(*args)
    lower = rational(result.float_min_eigenvalue)
    r = max(sum(map(abs, row)) for block in result.blocks for row in block)
    upper = lower + rational(r) / 2**39
    x = sp.Symbol("x")
    charpolys = [
        sp.Matrix([[rational(v) for v in row] for row in block]).charpoly(x)
        for block in result.blocks
    ]
    assert all(p.count_roots(None, lower) == (p.eval(lower) == 0) for p in charpolys)
    assert any(p.count_roots(lower, upper) for p in charpolys)
