from fractions import Fraction
from itertools import product

import pytest

from socone import berezin
from socone.algebra import OperatorWord
from socone.berezin import (
    PoleError,
    berezin_symbol_series,
    berezin_transform,
    bessel_form_check,
    fock_pairing_series,
    hat_from_pde_check,
    normal_order,
    vacuum_symbol_check,
    verify_pde_system,
    verify_raising_identity,
    wick_recipe_check,
)
from socone.fock import build_hat, coherent_vector, multi_indices
from socone.poly import MultiPoly, TAU
from socone.states import leibniz_base


def test_identity_transform_is_one(rng):
    for _ in range(5):
        w = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))]
        v = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))]
        try:
            value = berezin_transform(OperatorWord.of(), w, v)
        except PoleError:
            continue
        assert value == 1


def test_raising_transform_values():
    assert berezin_transform(OperatorWord.of("R1"), [0], [0]) == 0
    # closed form t (w_j - v_j w.w) / P at weight -2
    w, v = Fraction(1, 2), Fraction(1, 3)
    p = 1 - 2 * w * v + (w * v) ** 2
    expected = Fraction(-2) * (w - v * w * w) / p
    assert berezin_transform(OperatorWord.of("R1"), [w], [v]) == expected


def test_transform_pole_error():
    with pytest.raises(PoleError):
        berezin_transform(OperatorWord.of(), [1], [1])


@pytest.mark.parametrize("w, v", [([1], [0, 5]), ([1, 0], [0])])
def test_transform_rejects_mismatched_lengths(w, v):
    with pytest.raises(ValueError, match="same length"):
        berezin_transform(OperatorWord.of("rho0"), w, v)


def test_word_products_and_sums():
    w1 = OperatorWord.of("rho0")
    w2 = OperatorWord.of("R1")
    prod = w1 * w2
    assert prod.factors == ("rho0", "R1")
    value = berezin_transform([w1, w2], [0], [0])
    # at the origin: rho0 contributes -2 (weight), R1 contributes 0
    assert value == -2


def test_symbol_series_closed_form():
    # numerator for R_j equals t (w_j - v_j w.w) P^(-t/2 - 1) as a series:
    # cleared form: numerator * P = t (w_j - v_j w.w) * series(P^(-t/2))
    n, bound = 2, 4
    base = leibniz_base(n)
    num, den = berezin_symbol_series(OperatorWord.of("R1"), n, bound)
    w1 = MultiPoly.var("w1")
    v1 = MultiPoly.var("v1")
    w2sum = MultiPoly.var("w1") ** 2 + MultiPoly.var("w2") ** 2
    lhs = (num * base).truncate({"w": bound - 1, "v": bound - 1})
    rhs = (TAU * (w1 - v1 * w2sum) * den).truncate({"w": bound - 1, "v": bound - 1})
    assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_raising_identity(n):
    report = verify_raising_identity(n)
    assert report.all_passed, [ch.name for ch in report.failed()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pde_system(n):
    report = verify_pde_system(n)
    assert report.all_passed, [ch.name for ch in report.failed()]


def test_pde_polynomials_by_hand_n1():
    # n=1: -(t/2) dP/dw = t v - t w v^2 must match the system's right side
    base = leibniz_base(1)
    v = MultiPoly.var("v1")
    w = MultiPoly.var("w1")
    lhs = Fraction(-1, 2) * TAU * base.diff("w1")
    assert lhs == TAU * v - TAU * w * v * v


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 4)])
def test_bessel_form(n, d):
    assert bessel_form_check(n, d).all_passed


@pytest.mark.parametrize("n,d", [(1, 4), (2, 4)])
def test_hat_from_pde(n, d):
    assert hat_from_pde_check(n, d).all_passed


def test_vacuum_symbol():
    assert vacuum_symbol_check(1).all_passed
    assert vacuum_symbol_check(2).all_passed


def test_normal_order_contraction():
    # V R = R V + 1
    got = normal_order((("V", 1), ("R", 1)))
    assert got == {((1,), (1,)): 1, ((), ()): 1}
    # R V stays put
    got = normal_order((("R", 1), ("V", 1)))
    assert got == {((1,), (1,)): 1}
    # distinct slots commute freely
    got = normal_order((("V", 2), ("R", 1)))
    assert got == {((1,), (2,)): 1}


def test_wick_recipe():
    assert wick_recipe_check(1, 6).all_passed
    assert wick_recipe_check(2, 6).all_passed


def test_wick_recipe_at_the_verify_size():
    assert wick_recipe_check(3, 5).all_passed


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (2, 1)])
def test_wick_recipe_refuses_a_size_with_nothing_to_compare(n, d):
    with pytest.raises(ValueError, match="at least 3"):
        wick_recipe_check(n, d)


def test_wick_recipe_catches_a_missing_contraction(monkeypatch):
    monkeypatch.setattr(berezin, "normal_order", commuting_order)
    report = wick_recipe_check(2, 5)
    assert not report.all_passed
    assert "mismatches" in report.checks[0].detail


def full_vector_recipe(n, degree_bound, max_length=3):
    """(words, mismatches) of the ordering-recipe comparison on the whole
    truncated coherent vector: each word is applied letter by letter, and
    both routes are cut to v-degree D - max_length afterwards."""
    hat = build_hat(n, degree_bound)
    psi = coherent_vector(n, degree_bound, "v")
    safe = degree_bound - max_length
    alphabet = [("R", j) for j in range(1, n + 1)] + [("V", j) for j in range(1, n + 1)]
    words = [
        w for size in range(max_length + 1) for w in product(alphabet, repeat=size)
    ]
    derivatives = {}

    def low(value):
        return MultiPoly.coerce(value).truncate({"v": safe}).terms

    mismatches = 0
    for word in words:
        direct = psi
        for kind, j in reversed(word):
            direct = (hat.R(j) if kind == "R" else hat.shift_lower(j)).apply(direct)
        subst = berezin._diffop_apply(berezin.normal_order(word), psi, derivatives)
        compared = multi_indices(n, safe)
        if any(low(direct.get(k, 0)) != low(subst.get(k, 0)) for k in compared):
            mismatches += 1
    return len(words), mismatches


def commuting_order(word):
    # every lower moved right of every raise with no [V_j, R_j] = 1 terms
    raises = tuple(sorted(j for kind, j in word if kind == "R"))
    lowers = tuple(sorted(j for kind, j in word if kind == "V"))
    return {(raises, lowers): 1}


def one_more_on_the_first_term(word):
    terms = normal_order(word)
    if len(word) >= 2:
        first = next(iter(terms))
        terms[first] += 1
    return terms


@pytest.mark.parametrize("mutant", [None, commuting_order, one_more_on_the_first_term])
@pytest.mark.parametrize("n, d", [(1, 5), (2, 5), (3, 5), (2, 6)])
def test_wick_recipe_agrees_with_the_full_vector_comparison(monkeypatch, n, d, mutant):
    if mutant is not None:
        monkeypatch.setattr(berezin, "normal_order", mutant)
    words, mismatches = full_vector_recipe(n, d)
    row = wick_recipe_check(n, d).checks[0]
    assert row.name == f"all {words} words of length <= 3 agree"
    assert row.passed == (mismatches == 0)
    assert row.detail == ("" if not mismatches else f"{mismatches} mismatches")
    assert (mismatches == 0) == (mutant is None)


def test_fock_pairing_series_identity_word():
    # the empty word reproduces the Leibniz series itself
    from socone.states import leibniz_closed_form

    n, bound = 2, 3
    got = fock_pairing_series(OperatorWord.of(), n, bound)
    expected = leibniz_closed_form(n, bound)
    assert got == expected
