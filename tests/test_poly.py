import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import socone
from socone.poly import (
    MultiPoly,
    TAU,
    exp_series,
    group_of,
    series_power,
    series_power_numerators,
    var_key,
)
from socone.scalars import GaussianRational, gr

from conftest import poch, printed_polys

# the source tree of the socone under test, for fresh interpreters
_SRC = str(Path(socone.__file__).resolve().parent.parent)

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
)


@settings(derandomize=True, max_examples=150)
@given(
    truncated(small_polys()),
    st.dictionaries(st.sampled_from(["v1", "v2", "w1", "x1", "t"]), _SUBS_VALUES),
)
# a zero scalar cancels every term it meets
@example(V1 * W1 + V1, {"w1": 0, "v1": 2})
def test_subs_matches_the_polynomial_route(p, assignments):
    # reference: every value as a polynomial, const(coeff) * value ** e per term
    values = {name: MultiPoly.coerce(v) for name, v in assignments.items()}
    want = MultiPoly.zero()
    for mono, coeff in p.decoded_terms().items():
        factor = MultiPoly.const(coeff)
        for name, e in mono:
            factor = factor * values.get(name, MultiPoly.var(name)) ** e
        want = want + factor
    got = p.subs(assignments)
    assert type(got) is MultiPoly
    assert got.terms == want.terms
    assert all(type(c) is GaussianRational and c for c in got.terms.values())


def test_subs_takes_exact_scalars_only():
    with pytest.raises(TypeError):
        (V1 * W1).subs({"w1": V1})


def test_no_stored_zero_coefficients():
    p = V1 - V1 + 3 * W1 * 0
    assert p.terms == {}
    assert p.is_zero


@settings(derandomize=True, max_examples=100)
@given(
    small_polys(),
    small_polys(),
    st.dictionaries(st.sampled_from(["v", "w", "x", "t"]), st.integers(-3, 3), max_size=3),
)
def test_truncated_product_is_the_truncated_full_product(a, b, bounds):
    assert a.mul_truncated(b, bounds) == (a * b).truncate(bounds)


def v1_coefficient(p, k):
    """The coefficient of v1^k in p, read off its decoded terms."""
    return p.decoded_terms().get((("v1", k),) if k else (), 0)


def test_truncation_is_exact_through_the_bound():
    full = (1 + V1) ** 6
    cut = MultiPoly.const(1)
    for _ in range(6):
        cut = cut.mul_truncated(1 + V1, {"v": 4})
    assert cut == full.truncate({"v": 4})
    for k in range(5):
        assert v1_coefficient(cut, k) == v1_coefficient(full, k)
    assert max(cut.degrees("v")) <= 4


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
    by_w = series.split_index("w", 1)
    for k in range(7):
        coeff = by_w[(k,)].split_index("v", 1)[(k,)]
        for tau in (Fraction(1), Fraction(3), Fraction(-2), Fraction(5, 2)):
            value = Fraction(*coeff.subs({"t": tau}).as_gaussian().as_integer_ratio())
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
    bounds = {"v": 4, "w": 4}
    product = series_power(base, a, 4).mul_truncated(series_power(base, b, 4), bounds)
    assert product == series_power(base, a + b, 4)


def test_series_power_symbolic_exponent_additivity():
    base = 1 - V1 * W1
    half = TAU * Fraction(-1, 2)
    root = series_power(base, half, 4)
    assert root.mul_truncated(root, {"v": 4, "w": 4}) == series_power(base, -TAU, 4)


def test_exp_series_matches_scalar_expansion():
    e = exp_series(V1, 5)
    for k in range(6):
        assert v1_coefficient(e, k) == gr(Fraction(1, factorial(k)))
    with pytest.raises(ValueError):
        exp_series(1 + V1, 3)
    with pytest.raises(ValueError):
        exp_series(TAU, 3)


# -- the integer series kernel against the binomial loop it replaced ----------------


def _reference_u(base, bounds, role):
    u = MultiPoly.const(1) - base.truncate(bounds)
    # a key () collects the terms with no variable of a truncated group
    if () in ref_split(u.decoded_terms(), bounds):
        raise ValueError(f"series does not terminate: {role} has a pure-t term")
    return u


def reference_series_power(base, exponent, bound):
    """The binomial loop series_power ran before its integer kernel: one
    GaussianRational product per pair, each power truncated after it."""
    if base.constant_term != 1:
        raise ValueError("series_power requires constant term 1")
    minus_e = -MultiPoly.coerce(exponent)
    bounds = {group_of(n): bound for n in base.variables()}
    bounds.pop("t", None)
    u = _reference_u(base, bounds, "base")
    acc = upow = rising = MultiPoly.const(1)
    m = 0
    while True:
        m += 1
        upow = (upow * u).truncate(bounds)
        if upow.is_zero:
            return acc
        rising = rising * (minus_e + (m - 1))
        acc = acc + (rising * Fraction(1, factorial(m))) * upow


def reference_exp_series(argument, bound):
    """The loop exp_series ran before its integer kernel."""
    if argument.constant_term != 0:
        raise ValueError("exp_series requires zero constant term")
    bounds = {group_of(n): bound for n in argument.variables()}
    bounds.pop("t", None)
    work = _reference_u(1 - argument, bounds, "argument")
    acc = pw = MultiPoly.const(1)
    m = 0
    while True:
        m += 1
        pw = (pw * work).truncate(bounds)
        if pw.is_zero:
            return acc
        acc = acc + pw * Fraction(1, factorial(m))


def gaussians():
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.builds(gr, part, part).filter(bool)


def series_terms():
    """Gaussian-coefficient polynomials with no constant and no pure-t
    term; t rides on some terms."""
    names = st.sampled_from(["v1", "v2", "w1"])
    monomial = st.lists(st.tuples(names, st.integers(1, 2)), min_size=1, max_size=2)
    term = st.builds(
        lambda items, k, c: MultiPoly({tuple(items) + (("t", k),): c}),
        monomial,
        st.integers(0, 2),
        gaussians(),
    )
    return st.lists(term, max_size=3).map(lambda ts: sum(ts, MultiPoly.zero()))


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SERIES_EXPONENTS = st.one_of(
    _RATIONALS,
    gaussians(),
    st.builds(lambda a, b: a * TAU + b, _RATIONALS, _RATIONALS),
    st.builds(lambda a, b: a * TAU + b, gaussians(), _RATIONALS),
)


@settings(derandomize=True, max_examples=200)
@given(series_terms(), SERIES_EXPONENTS, st.integers(0, 5))
def test_series_power_matches_the_binomial_reference_loop(u, exponent, bound):
    base = 1 - u
    assert series_power(base, exponent, bound) == reference_series_power(
        base, exponent, bound
    )


@settings(derandomize=True, max_examples=200)
@given(series_terms(), st.integers(0, 5))
def test_exp_series_matches_the_reference_loop(argument, bound):
    assert exp_series(argument, bound) == reference_exp_series(argument, bound)


_HIGH_T = TAU ** (2 ** 13)


@pytest.mark.parametrize(
    "kernel, reference, args",
    [
        (series_power, reference_series_power, (2 + V1, Fraction(1, 2), 3)),
        (series_power, reference_series_power, (1 - TAU * V1 - TAU, -TAU, 3)),
        # u^2 reaches t^(2^14) within the bound, then only beyond it
        (series_power, reference_series_power, (1 - _HIGH_T * V1, Fraction(1, 2), 2)),
        (series_power, reference_series_power, (1 - _HIGH_T * V1, Fraction(1, 2), 1)),
        (exp_series, reference_exp_series, (1 + V1, 3)),
        (exp_series, reference_exp_series, (TAU * W1 + TAU, 3)),
        (exp_series, reference_exp_series, (_HIGH_T * V1, 2)),
        (exp_series, reference_exp_series, (_HIGH_T * V1, 1)),
    ],
)
def test_series_errors_match_the_reference_loop(kernel, reference, args):
    with pytest.raises(ValueError) as want:
        reference(*args)
    with pytest.raises(ValueError) as got:
        kernel(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "base, exponent, bound",
    [
        (1 - 2 * V1 * W1 + V1 ** 2 * W1 ** 2, TAU * Fraction(-1, 2), 4),
        (1 - gr(0, 1) * V1 + Fraction(1, 3) * V1 * W1, Fraction(-5, 2), 3),
        (1 + TAU * V2 - V1 * V2, TAU, 3),
        (MultiPoly.const(1), Fraction(7, 2), 2),
    ],
)
def test_series_power_numerators_are_series_power_over_one_denominator(base, exponent, bound):
    (re, im), d = series_power_numerators(base, exponent, bound)
    got = {}
    for w in re.keys() | im.keys():
        c = GaussianRational(Fraction(re.get(w, 0), d), Fraction(im.get(w, 0), d))
        if c:
            got[w] = c
    assert got == series_power(base, exponent, bound).terms


@pytest.mark.parametrize(
    "args",
    [
        (2 + V1, Fraction(1, 2), 3),
        (1 - V1, Fraction(1, 2), -1),
        (1 - V1, 0.5, 3),
        (1 - V1, V1, 3),
        (1 - TAU * V1 - TAU, -TAU, 3),
    ],
)
def test_series_power_numerators_check_their_arguments_as_series_power(args):
    with pytest.raises((TypeError, ValueError)) as want:
        series_power(*args)
    with pytest.raises(want.type) as got:
        series_power_numerators(*args)
    assert str(got.value) == str(want.value)


def test_exact_divide():
    a = (1 + V1 + V2) * (2 - V2) * (2 - V2)
    assert a.exact_divide((2 - V2) ** 2) == 1 + V1 + V2
    with pytest.raises(ValueError):
        (V1 + 1).exact_divide(V2)


def test_exact_divide_stores_no_zero_in_the_quotient():
    for divisor in (2 - V2, (V1 - V2) ** 2, 1 + V1 * V2 + W1):
        for cofactor in (V1 - V2, 1 - V1 ** 2 + V2 ** 3, gr(1, 1) * V1 - W1 * V2):
            quotient = (cofactor * divisor).exact_divide(divisor)
            assert quotient == cofactor
            assert quotient.terms and all(quotient.terms.values())


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


def ref_render(p, power_fmt, name_fmt, coeff_fmt, sep):
    """The printed form as it was written before it read the coefficient
    triples: one formatter call per factor and per coefficient."""
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in p.canonical_items():
        vars_part = sep.join(
            name_fmt(n) if e == 1 else power_fmt(name_fmt(n), e) for n, e in mono
        )
        if not vars_part:
            body = coeff_fmt(coeff)
            negative = body.startswith("-")
            body = body.lstrip("-")
        else:
            if coeff == 1:
                body, negative = vars_part, False
            elif coeff == -1:
                body, negative = vars_part, True
            else:
                body = coeff_fmt(coeff)
                negative = body.startswith("-")
                body = body.lstrip("-") + sep + vars_part
        pieces.append((negative, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def ref_coeff_str(c):
    s = str(c)
    return f"({s})" if c.re != 0 and c.im != 0 else s


def ref_latex_name(name):
    group = name.rstrip("0123456789")
    index = int(name[len(group):] or 0)
    if group == "t" and not index:
        return r"\tau"
    return f"{group}_{{{index}}}" if index else group


@settings(derandomize=True, max_examples=300)
@given(printed_polys())
@example(MultiPoly.zero())
@example(MultiPoly.const(gr(0, -1)) + V1 * gr(-1) + W1 * gr(0, 1))
@example(MultiPoly.const(gr(Fraction(-3, 2), 1)) * TAU ** 2 - 1)
def test_text_and_latex_match_the_reference_renderer(p):
    assert str(p) == ref_render(p, lambda v, e: f"{v}^{e}", str, ref_coeff_str, "*")
    latex = ref_render(p, lambda v, e: f"{v}^{{{e}}}", ref_latex_name, ref_coeff_str, r" \, ")
    assert p.latex() == latex


def test_split_groups():
    p = 3 * W1 ** 2 * V1 * TAU + W1 ** 2 * V2 - 5
    buckets = split_by_index(p, ["w", "v"])
    assert buckets.keys() == {(), (("v1", 1), ("w1", 2)), (("v2", 1), ("w1", 2))}
    assert buckets[()] == MultiPoly.const(-5)
    assert buckets[(("v1", 1), ("w1", 2))] == 3 * TAU
    assert buckets[(("v2", 1), ("w1", 2))] == 1
    by_index = p.split_index("w", 2)
    assert by_index.keys() == {(0, 0), (2, 0)}
    assert by_index[(0, 0)] == -5
    assert by_index[(2, 0)] == 3 * V1 * TAU + V2
    assert by_index[(2, 0)].split_index("v", 2) == {(1, 0): 3 * TAU, (0, 1): 1}


@pytest.mark.parametrize("name", ["z", "z0", "z3", "z10"])
def test_split_index_refuses_an_index_outside_one_to_n(name):
    p = MultiPoly.var("z1") * MultiPoly.var(name) + MultiPoly.var("z2")
    with pytest.raises(ValueError, match=f"^{name} is outside z1..z2$"):
        p.split_index("z", 2)


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


def test_constructor_canonicalises_monomials():
    p = MultiPoly({(("w1", 1), ("v1", 1)): 1})
    assert p == MultiPoly.var("v1") * MultiPoly.var("w1")
    assert p.decoded_terms() == {(("v1", 1), ("w1", 1)): gr(1)}
    assert str(p) == "v1*w1"
    # zero exponents dropped, repeated names and equal monomials summed
    q = MultiPoly({(("v1", 1), ("w1", 0), ("v1", 1)): 2, (("v1", 2),): 3, (("t", 0),): 5})
    assert q.decoded_terms() == {(("v1", 2),): gr(5), (): gr(5)}
    # terms that cancel after canonicalisation leave nothing
    r = MultiPoly({(("v1", 1), ("w1", 1)): 1, (("w1", 1), ("v1", 1)): -1})
    assert r.is_zero and r.terms == {}


# -- packed monomials against the tuple-monomial arithmetic --------------------
#
# The reference keeps each monomial as a tuple of (name, exponent) pairs
# sorted by var_key, the representation MultiPoly used before its monomials
# became packed integer words, and repeats that arithmetic term by term.

POOL = ["v1", "v2", "w1", "w2", "x1", "t", "a1", "a2", "b3"]
POOL_GROUPS = ["v", "w", "x", "a", "b"]


def ref_mono(items):
    exps = {}
    for name, e in items:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(((n, e) for n, e in exps.items() if e), key=lambda it: var_key(it[0])))


def ref_group_degree(mono, group):
    return sum(e for name, e in mono if group_of(name) == group)


def ref_within(mono, bounds):
    return all(ref_group_degree(mono, g) <= b for g, b in bounds.items())


def ref_clip(terms, bounds):
    return {m: c for m, c in terms.items() if ref_within(m, bounds)}


def ref_accumulate(out, mono, c):
    acc = out.get(mono)
    s = c if acc is None else acc + c
    if s:
        out[mono] = s
    elif acc is not None:
        del out[mono]


def ref_build(raw):
    summed = {}
    for items, c in raw.items():
        ref_accumulate(summed, ref_mono(items), c)
    return summed


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        ref_accumulate(out, m, c)
    return out


def ref_mul(a, b, bounds):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = ref_mono(m1 + m2)
            if ref_within(mono, bounds):
                ref_accumulate(out, mono, c1 * c2)
    return out


def ref_diff(a, name):
    out = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.get(name, 0)
        if e:
            exps[name] = e - 1
            out[ref_mono(exps.items())] = c * e
    return out


def ref_subs(a, values):
    terms = {}
    for m, c in a.items():
        rest = []
        for name, e in m:
            if name in values:
                for _ in range(e):
                    c = c * values[name]
            else:
                rest.append((name, e))
        ref_accumulate(terms, tuple(rest), c)
    return terms


def ref_split(a, groups):
    buckets = {}
    for m, c in a.items():
        key = tuple(it for it in m if group_of(it[0]) in groups)
        rest = tuple(it for it in m if group_of(it[0]) not in groups)
        buckets.setdefault(key, {})[rest] = c
    return buckets


def split_by_index(p, groups):
    """ref_split's buckets through split_index, one group after another."""
    parts = {(): p} if p else {}
    for group in groups:
        parts = {
            key + tuple((f"{group}{i}", e) for i, e in enumerate(k, start=1) if e): cofactor
            for key, part in parts.items()
            for k, cofactor in part.split_index(group, 3).items()
        }
    return {tuple(sorted(key, key=lambda it: var_key(it[0]))): c for key, c in parts.items()}


def ref_grlex(mono):
    return (-sum(e for _, e in mono), tuple((var_key(n), -e) for n, e in mono))


def ref_exact_divide(a, b):
    """Long division leading term first; None when it does not divide."""
    lead = min(b, key=ref_grlex)
    lead_exps = dict(lead)
    rem, quotient = dict(a), {}
    while rem:
        rm = min(rem, key=ref_grlex)
        exps = dict(rm)
        if any(exps.get(n, 0) < e for n, e in lead_exps.items()):
            return None
        q = ref_mono([(n, exps[n] - lead_exps.get(n, 0)) for n in exps])
        qc = rem[rm] / b[lead]
        quotient[q] = quotient.get(q, gr(0)) + qc
        for m, c in b.items():
            ref_accumulate(rem, ref_mono(q + m), -qc * c)
    return {m: c for m, c in quotient.items() if c}


def same(p, ref):
    # the same terms in the same insertion order
    assert list(p.decoded_terms().items()) == list(ref.items())


_ref_coeffs = st.builds(
    gr,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, Fraction(-1, 2)]),
)
_ref_raw = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 3)), max_size=3).map(tuple),
    _ref_coeffs,
    max_size=5,
)
_ref_bounds = st.one_of(
    st.just({}), st.dictionaries(st.sampled_from(POOL_GROUPS), st.integers(-1, 3), max_size=3)
)


_EXAMPLE_A = {(("v1", 2), ("w1", 1)): gr(1, 1), (("t", 1), ("a1", 1)): gr(-1, 2), (): gr(2)}
_EXAMPLE_B = {(("v1", 1),): gr(Fraction(1, 2)), (("w2", 1),): gr(0, -3), (): gr(3)}


@settings(derandomize=True, max_examples=150)
@example(POOL, _EXAMPLE_A, _EXAMPLE_B, {}, "v1", {"v", "a"}, {})
@example(POOL, _EXAMPLE_A, _EXAMPLE_B, {"v": -1, "w": 2}, "w1", {"w", "t"}, {"t": 2})
@given(
    st.permutations(POOL),
    _ref_raw,
    _ref_raw,
    _ref_bounds,
    st.sampled_from(POOL),
    st.sets(st.sampled_from(POOL_GROUPS + ["t"]), max_size=3),
    st.dictionaries(st.sampled_from(POOL), st.one_of(st.integers(-2, 2), _ref_coeffs)),
)
def test_packed_monomials_match_tuple_monomials(
    order, raw_a, raw_b, bounds, name, groups, values
):
    for n in order:  # names first seen in a drawn order
        var_key(n)
    a, b = MultiPoly(raw_a), MultiPoly(raw_b)
    ra, rb = ref_build(raw_a), ref_build(raw_b)
    same(a, ra)
    same(a + b, ref_add(ra, rb))
    same(a * b, ref_mul(ra, rb, {}))
    same(b * a, ref_mul(rb, ra, {}))
    # the integer product keeps the terms, not their insertion order
    assert a.mul_truncated(b, bounds).decoded_terms() == ref_mul(ra, rb, bounds)
    same(a.diff(name), ref_diff(ra, name))
    same(a.truncate(bounds), ref_clip(ra, bounds))
    scalars = {n: gr(v) if isinstance(v, int) else v for n, v in values.items()}
    same(a.subs(values), ref_subs(ra, scalars))
    want = ref_split(ra, groups)
    if "t" in groups and "t" in a.variables():
        # t has no index, so no multi-index holds it
        with pytest.raises(ValueError, match="^t is outside t1..t3$"):
            split_by_index(a, groups)
    else:
        got = split_by_index(a, groups)
        assert got.keys() == want.keys()
        for key, cofactor in got.items():
            same(cofactor, want[key])
    for group in POOL_GROUPS + ["t"]:
        want_degree = max((ref_group_degree(m, group) for m in ra), default=-1)
        assert max(a.degrees(group), default=-1) == want_degree
        assert a.degrees(group) == {ref_group_degree(m, group) for m in ra}
    for group in POOL_GROUPS:
        by_index = a.split_index(group, 3)
        want = ref_split(ra, {group})
        assert len(by_index) == len(want)
        for k, cofactor in by_index.items():
            mono = tuple((f"{group}{i}", e) for i, e in enumerate(k, start=1) if e)
            assert cofactor.decoded_terms() == want[mono]
    assert a.variables() == {n for m in ra for n, _ in m}
    assert [m for m, _ in a.canonical_items()] == sorted(ra, key=ref_grlex)
    # division, exact and not
    p, q = a, b
    if not q.is_zero:
        for dividend in (p * q, p):
            want = ref_exact_divide(dividend.decoded_terms(), q.decoded_terms())
            if want is None:
                with pytest.raises(ValueError):
                    dividend.exact_divide(q)
            else:
                assert dividend.exact_divide(q).decoded_terms() == want


def test_exponent_and_degree_limits_raise():
    limit = 2 ** 14
    top = V1 ** (limit - 1)
    assert top.degrees("v") == {limit - 1}
    assert top.decoded_terms() == {(("v1", limit - 1),): gr(1)}
    with pytest.raises(ValueError):
        top * V1
    with pytest.raises(ValueError):
        V1 ** limit
    # each exponent fits its field, their group degree does not
    with pytest.raises(ValueError):
        top * V2
    # the neighbouring fields are untouched by a product at the limit
    assert (top * W1 * TAU).decoded_terms() == {(("v1", limit - 1), ("w1", 1), ("t", 1)): gr(1)}
    # beyond a bound the product is dropped, not an error
    assert top.mul_truncated(V1, {"v": limit - 1}).is_zero
    # a negative bound keeps nothing, however far below zero it is
    assert (W1 + 1).truncate({"v": -1}).is_zero
    assert top.truncate({"v": -(limit + 5000)}).is_zero
    for raw in (
        {(("v1", limit),): 1},
        {(("v1", limit // 2), ("v2", limit // 2)): 1},
        {(("v1", -1),): 1},
    ):
        with pytest.raises(ValueError):
            MultiPoly(raw)
    with pytest.raises(ValueError):
        TAU ** limit


def test_copy_deepcopy_and_pickle_round_trip():
    import copy
    import pickle

    p = gr(1, 2) * V1 * TAU - Fraction(3, 4) * W1 ** 2 + 7
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is MultiPoly
        assert q == p and q.terms.keys() == p.terms.keys()
        assert list(q.decoded_terms().items()) == list(p.decoded_terms().items())
        assert str(q) == str(p) and q.latex() == p.latex()


def test_pickle_loads_in_a_process_that_saw_names_in_another_order():
    import json
    import pickle

    from socone.jsonio import poly_to_json

    p = 3 * V2 * W1 * MultiPoly.var("z2") - Fraction(1, 3) * TAU ** 2 * V1 + gr(
        0, 1
    ) * MultiPoly.var("x3")
    script = (
        "import json, pickle, sys\n"
        "from socone.poly import MultiPoly\n"
        "from socone.jsonio import poly_to_json\n"
        "for n in ('x3', 'z2', 'w1', 'q1', 'v2', 'v1'):\n"
        "    MultiPoly.var(n)\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "print(str(p)); print(p.latex()); print(json.dumps(poly_to_json(p)))\n"
        "print(p == pickle.loads(pickle.dumps(p)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(p),
        capture_output=True,
        env={"PYTHONPATH": _SRC},
        check=True,
        timeout=120,
    )
    want = f"{p}\n{p.latex()}\n{json.dumps(poly_to_json(p))}\nTrue\n"
    assert result.stdout.decode() == want


_THREADS_SCRIPT = """
import sys, threading
from functools import reduce
from operator import mul
from socone.poly import TAU, MultiPoly, var_key
from socone.scalars import gr

groups = [f"k{c}" for c in "abcdefghijklmnop"]
failures = []

def work(group):
    try:
        for i in range(1, 61):
            name = f"{group}{i}"
            p = MultiPoly.var(name) ** 2 * TAU
            if p.decoded_terms() != {((name, 2), ("t", 1)): gr(1)}:
                failures.append(name)
    except Exception as exc:
        failures.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(g,)) for g in groups]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
assert failures == [], failures
# every name took a field of its own
names = [f"{g}{i}" for g in groups for i in range(1, 61)]
product = reduce(mul, (MultiPoly.var(n) for n in names), MultiPoly.const(1))
want = tuple(sorted(((n, 1) for n in names), key=lambda it: var_key(it[0])))
assert product.decoded_terms() == {want: gr(1)}
print("ok")
"""


def test_names_registered_from_many_threads_keep_their_own_fields():
    # in a fresh interpreter, so the many names stay out of this one's layout
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT],
        capture_output=True,
        env={"PYTHONPATH": _SRC},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"ok\n"
