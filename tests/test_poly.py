from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from socone.poly import MultiPoly, TAU, exp_series, group_of, series_power, var_key
from socone.scalars import GaussianRational, gr

from conftest import poch

V1 = MultiPoly.var("v1")
V2 = MultiPoly.var("v2")
W1 = MultiPoly.var("w1")


def small_polys(max_exponent=3, max_terms=4):
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    names = st.sampled_from(["v1", "v2", "w1", "x1", "t"])
    monos = st.lists(st.tuples(names, st.integers(0, max_exponent)), max_size=3)

    def build(items, c):
        acc = MultiPoly.const(c)
        for name, e in items:
            acc = acc * MultiPoly.var(name) ** e
        return acc

    term = st.builds(build, monos, coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: sum(ts, MultiPoly.zero())
    )


@settings(derandomize=True, max_examples=40)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a


@settings(derandomize=True, max_examples=40)
@given(
    small_polys(),
    small_polys(),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_substitution_commutes_with_arithmetic(a, b, x, y):
    point = {"v1": x, "w1": y, "v2": 1, "x1": 2, "t": Fraction(1, 3)}
    assert (a + b).subs(point) == a.subs(point) + b.subs(point)
    assert (a * b).subs(point) == a.subs(point) * b.subs(point)


def truncated(polys):
    groups = st.sampled_from(["v", "w", "x"])
    bounds = st.dictionaries(groups, st.integers(0, 3), max_size=2)
    return st.builds(lambda p, b: p.truncate(b), polys, bounds)


_SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_SUBS_VALUES = st.one_of(
    st.integers(-2, 2),
    _SMALL_FRACTIONS,
    st.builds(gr, _SMALL_FRACTIONS, _SMALL_FRACTIONS),
    truncated(small_polys(max_exponent=1, max_terms=2)),
)


@settings(derandomize=True, max_examples=150)
@given(
    truncated(small_polys()),
    st.dictionaries(st.sampled_from(["v1", "v2", "w1", "x1", "t"]), _SUBS_VALUES),
)
# a zero scalar meets a truncated polynomial value: its bound still merges
@example(V1 * W1, {"w1": 0, "v1": V1.truncate({"v": 0})})
def test_subs_matches_the_polynomial_route(p, assignments):
    # reference: every value as a polynomial, const(coeff) * value ** e per term
    values = {name: MultiPoly.coerce(v) for name, v in assignments.items()}
    want = MultiPoly.zero(p.trunc)
    for mono, coeff in p.terms.items():
        factor = MultiPoly.const(coeff, p.trunc)
        for name, e in mono:
            factor = factor * values.get(name, MultiPoly.var(name)) ** e
        want = want + factor
    got = p.subs(assignments)
    assert type(got) is MultiPoly
    assert got.terms == want.terms
    assert got.trunc == want.trunc
    assert all(type(c) is GaussianRational and c for c in got.terms.values())


def test_no_stored_zero_coefficients():
    p = V1 - V1 + 3 * W1 * 0
    assert p.terms == {}
    assert p.is_zero


def test_truncation_is_exact_through_the_bound():
    full = (1 + V1) ** 6
    cut = (1 + V1).truncate({"v": 4}) ** 6
    for k in range(5):
        assert cut.coefficient([("v1", k)]) == full.coefficient([("v1", k)])
    assert cut.degree("v") <= 4


def test_series_power_trivial_and_errors():
    one = MultiPoly.const(1)
    assert series_power(one, Fraction(5, 2), 7) == 1
    assert series_power(one, -TAU, 7) == 1
    with pytest.raises(ValueError):
        series_power(1 + V1 + 1, Fraction(1, 2), 3)  # constant term 2
    with pytest.raises(TypeError):
        series_power(1 - V1, 0.5, 3)
    with pytest.raises(TypeError):
        series_power(1 - V1, V1, 3)


def test_series_power_pochhammer_coefficients():
    # (1 - u)^(-tau) with u = w1 v1; the coefficient of u^k is (tau)_k / k!
    base = 1 - W1 * V1
    series = series_power(base, -TAU, 6)
    from math import factorial

    buckets = series.split_groups({"w", "v"})
    for k in range(7):
        mono = (("v1", k), ("w1", k)) if k else ()
        coeff = buckets[mono]
        for tau in (Fraction(1), Fraction(3), Fraction(-2), Fraction(5, 2)):
            value = coeff.subs({"t": tau}).as_gaussian().as_fraction()
            assert value == poch(tau, k) / factorial(k)


def test_series_power_square_identity():
    # (1 - 2wv + w^2 v^2) = (1 - wv)^2, so the -tau/2 power matches (1-wv)^-tau
    quad = 1 - 2 * W1 * V1 + (W1 * W1) * (V1 * V1)
    assert series_power(quad, TAU * Fraction(-1, 2), 5) == series_power(
        1 - W1 * V1, -TAU, 5
    )


@settings(derandomize=True, max_examples=20)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_series_power_exponent_additivity(a, b):
    base = 1 - 2 * V1 + V1 * W1
    product = series_power(base, a, 4) * series_power(base, b, 4)
    assert product == series_power(base, a + b, 4)


def test_series_power_symbolic_exponent_additivity():
    base = 1 - V1 * W1
    half = TAU * Fraction(-1, 2)
    assert series_power(base, half, 4) * series_power(base, half, 4) == series_power(
        base, -TAU, 4
    )


def test_exp_series_matches_scalar_expansion():
    e = exp_series(V1, 5)
    from math import factorial

    for k in range(6):
        assert e.coefficient([("v1", k)]) == gr(Fraction(1, factorial(k)))
    with pytest.raises(ValueError):
        exp_series(1 + V1, 3)
    with pytest.raises(ValueError):
        exp_series(TAU, 3)


def test_exact_divide():
    a = (1 + V1 + V2) * (2 - V2) * (2 - V2)
    assert a.exact_divide((2 - V2) ** 2) == 1 + V1 + V2
    with pytest.raises(ValueError):
        (V1 + 1).exact_divide(V2)


def test_diff():
    p = V1 ** 3 * W1 + 2 * V1
    assert p.diff("v1") == 3 * V1 ** 2 * W1 + 2
    assert p.diff("v2").is_zero


def test_canonical_rendering():
    x1 = MultiPoly.var("x1")
    assert str(x1 - TAU) == "x1 - t"
    assert str(2 * TAU * TAU + 2 * TAU) == "2*t^2 + 2*t"
    assert str(MultiPoly.zero()) == "0"
    assert str(gr(0, 1) * V1) == "i*v1"
    p = V1 * W1 - V1 ** 2
    # graded lex puts v1^2 ahead of v1 w1
    assert str(p) == "-v1^2 + v1*w1"


def test_latex_rendering():
    assert (MultiPoly.var("x1") - TAU).latex() == r"x_{1} - \tau"


def test_split_groups():
    p = 3 * W1 ** 2 * V1 * TAU + W1 ** 2 * V2 - 5
    buckets = p.split_groups({"w", "v"})
    assert buckets[()] == MultiPoly.const(-5)
    assert buckets[(("v1", 1), ("w1", 2))] == 3 * TAU
    assert buckets[(("v2", 1), ("w1", 2))] == 1
    by_index = p.split_index("w", 2)
    assert by_index.keys() == {(0, 0), (2, 0)}
    assert by_index[(0, 0)] == -5
    assert by_index[(2, 0)] == 3 * V1 * TAU + V2


def test_name_lookups_after_the_cache_is_warm():
    for name in ("v1", "w12", "z3", "x2", "t", "q7", "v"):
        var_key(name)
        group_of(name)
    assert group_of("w12") == "w" and var_key("w12") == (1, "w", 12)
    assert var_key("q7") == (500_000, "q", 7)
    assert var_key("t") == (1_000_000, "t", 0)
    assert sorted(["t", "x2", "q7", "z3", "w12", "v1"], key=var_key) == [
        "v1", "w12", "z3", "x2", "q7", "t"
    ]
    for bad in ("", "1v", "v1a", "v-1", "v 1", "_"):
        for _ in range(2):
            with pytest.raises(ValueError):
                var_key(bad)
            with pytest.raises(ValueError):
                group_of(bad)
            with pytest.raises(ValueError):
                MultiPoly.var(bad)


def test_sum_with_a_tighter_bound_is_clipped():
    # the merged bound is tighter than the left operand's, so its terms
    # must be clipped again
    p = MultiPoly.var("v1") ** 3 + MultiPoly.var("w1")
    q = MultiPoly.zero({"v": 1})
    assert (p + q).terms == {(("w1", 1),): gr(1)}
    assert (q + p).terms == (p + q).terms
    assert (p + q).trunc == {"v": 1}
    assert (p * q.truncate({"w": 0}) + 1).terms == {(): gr(1)}


def test_constructor_canonicalises_monomials():
    p = MultiPoly({(("w1", 1), ("v1", 1)): 1})
    assert p == MultiPoly.var("v1") * MultiPoly.var("w1")
    assert p.coefficient([("v1", 1), ("w1", 1)]) == 1
    assert str(p) == "v1*w1"
    # zero exponents dropped, repeated names and equal monomials summed
    q = MultiPoly({(("v1", 1), ("w1", 0), ("v1", 1)): 2, (("v1", 2),): 3, (("t", 0),): 5})
    assert q.terms == {(("v1", 2),): gr(5), (): gr(5)}
    assert q.coefficient([("v1", 1), ("v1", 1)]) == 5
    # terms that cancel after canonicalisation leave nothing
    r = MultiPoly({(("v1", 1), ("w1", 1)): 1, (("w1", 1), ("v1", 1)): -1}, {"v": 3})
    assert r.is_zero and r.trunc == {"v": 3}
