from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socone.scalars import GaussianRational, gr, I, ZERO

ONE = gr(1)
fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(GaussianRational, fractions, fractions)


@settings(derandomize=True, max_examples=60)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE


@settings(derandomize=True, max_examples=60)
@given(scalars)
def test_conjugation_involution(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    assert (a * a.conj()).re == a.re * a.re + a.im * a.im


@settings(derandomize=True, max_examples=60)
@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


def test_lowest_terms_and_positive_denominators():
    x = gr(Fraction(2, -4), Fraction(6, 4))
    assert x.re == Fraction(-1, 2) and x.re.denominator == 2
    assert x.im == Fraction(3, 2)
    y = x + x
    assert y.re.denominator == 1


def test_division_and_errors():
    assert (ONE + I) / (ONE + I) == ONE
    assert I * I == -1
    assert 1 / I == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ValueError):
        I.as_fraction()


def test_mixed_comparisons():
    assert gr(3) == 3
    assert gr(Fraction(1, 2)) == Fraction(1, 2)
    assert gr(0, 1) != 1
    assert bool(gr(0, 0)) is False
    assert bool(gr(0, 1)) is True


def test_rendering():
    assert str(gr(0)) == "0"
    assert str(gr(3)) == "3"
    assert str(gr(0, 1)) == "i"
    assert str(gr(0, -1)) == "-i"
    assert str(gr(0, 2)) == "2i"
    assert str(gr(1, -1)) == "1-i"
    assert str(gr(Fraction(3, 2), Fraction(-5, 7))) == "3/2-5/7i"


def test_immutability():
    x = gr(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(5)


# Parts that exercise every fast path: exact zeros, units, integers and
# general fractions, in purely real, purely imaginary and mixed operands.
parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    fractions,
)
operands = st.one_of(
    st.builds(GaussianRational, parts, parts),
    st.builds(GaussianRational, parts),
    st.builds(lambda im: GaussianRational(0, im), parts),
)


def canonical_part(q):
    # a part is an int exactly when it is integral, else a lowest-terms Fraction
    if type(q) is int:
        return Fraction(q)
    assert type(q) is Fraction and q.denominator > 1
    return q


def parts_of(x):
    assert type(x) is GaussianRational
    re, im = canonical_part(x.re), canonical_part(x.im)
    # equality compares the stored form, so this also checks it is reduced
    assert x == GaussianRational(re, im)
    return re, im


@settings(derandomize=True, max_examples=200)
@given(operands, operands)
def test_ring_operations_match_textbook_formulas(x, y):
    # the reference computes on Fractions: raw int parts would turn / into
    # float division
    a, b = parts_of(x)
    c, d = parts_of(y)
    assert parts_of(x + y) == (a + c, b + d)
    assert parts_of(x - y) == (a - c, b - d)
    assert parts_of(x * y) == (a * c - b * d, a * d + b * c)
    assert parts_of(-x) == (-a, -b)
    assert parts_of(x.conj()) == (a, -b)
    if c or d:
        n2 = c * c + d * d
        assert parts_of(x / y) == ((a * c + b * d) / n2, (b * c - a * d) / n2)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(derandomize=True, max_examples=100)
@given(operands, parts)
def test_mixed_rational_operands_match_textbook_formulas(x, r):
    a, b = parts_of(x)
    for k in (r, int(r)):
        assert parts_of(x + k) == parts_of(k + x) == (a + k, b)
        assert parts_of(x - k) == (a - k, b)
        assert parts_of(k - x) == (k - a, -b)
        assert parts_of(x * k) == parts_of(k * x) == (a * k, b * k)


@settings(derandomize=True, max_examples=100)
@given(operands, parts)
def test_division_by_rationals_keeps_exact_parts(x, r):
    for k in (r, int(r)):
        if k:
            parts_of(x / k)
            parts_of(k / GaussianRational(x.re or 1, x.im))
    for num, den in ((1, 3), (6, 3), (-4, 6), (0, 5)):
        q = GaussianRational(num) / den
        assert parts_of(q) == (Fraction(num, den), 0)
        assert type(q.as_fraction()) is Fraction


@settings(derandomize=True, max_examples=100)
@given(operands)
def test_structure_values_are_fractions(x):
    a, b = parts_of(x)
    assert parts_of(x * x.conj()) == (a * a + b * b, 0)
    assert GaussianRational(x.re) == x.re
    assert type(GaussianRational(x.re).as_fraction()) is Fraction
    assert GaussianRational(x.re).as_fraction() == a
    assert GaussianRational(x.re).as_integer_ratio() == (a.numerator, a.denominator)
    if b:
        with pytest.raises(ValueError):
            x.as_integer_ratio()
    assert complex(x) == complex(float(a), float(b))
    assert repr(x) == f"GaussianRational({a!r}, {b!r})"


def test_hash_and_repr_of_canonical_values():
    assert hash(gr(3)) == hash(3)
    assert hash(gr(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(gr(Fraction(6, 3))) == hash(2)
    assert hash(gr(1, Fraction(1, 2))) == hash((Fraction(1), Fraction(1, 2)))
    assert gr(Fraction(4, 2), Fraction(-3, 6)) == gr(2, Fraction(-1, 2))
    assert type(gr(Fraction(4, 2)).re) is int
    assert type(gr(Fraction(1, 2), 3).im) is int
    assert repr(gr(3)) == "GaussianRational(Fraction(3, 1), Fraction(0, 1))"
    assert repr(gr(Fraction(1, 2), -2)) == "GaussianRational(Fraction(1, 2), Fraction(-2, 1))"
    assert repr(ONE / 3) == "GaussianRational(Fraction(1, 3), Fraction(0, 1))"
    assert str(ONE / 3) == "1/3" and str((ONE + I) / 2) == "1/2+1/2i"


@settings(derandomize=True, max_examples=30)
@given(scalars)
def test_copy_deepcopy_and_pickle_round_trip(x):
    import copy
    import pickle

    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is GaussianRational
        assert y == x and hash(y) == hash(x)
        assert (y.re, y.im) == (x.re, x.im)
        assert type(y.re) is type(x.re) and type(y.im) is type(x.im)
        assert str(y) == str(x) and repr(y) == repr(x)
