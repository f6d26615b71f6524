from fractions import Fraction
from itertools import product

import pytest

from socone import berezin
from socone.algebra import OperatorWord, word_to_matrix
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
from socone.fock import build_hat, gram_matrix, mi_factorial, multi_indices
from socone.poly import MultiPoly, TAU, _sum_into
from socone.scalars import GaussianRational, gr
from socone.states import leibniz_base

from conftest import changed_hat


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


def test_transform_reads_int_fraction_and_gaussian_points_alike():
    words = [OperatorWord.of("R1", "L2"), OperatorWord.of("rho0", coeff=3)]
    for w, v in (([1, -2], [0, 3]), ([2, 1], [-1, 1])):
        values = {
            str(berezin_transform(words, kind(w), kind(v)))
            for kind in (
                list,
                lambda xs: [Fraction(x) for x in xs],
                lambda xs: [GaussianRational(x) for x in xs],
            )
        }
        assert len(values) == 1
    w, v = [Fraction(1, 2), Fraction(-1, 3)], [Fraction(2, 5), 1]
    gaussian = [[GaussianRational(x) for x in xs] for xs in (w, v)]
    assert berezin_transform(words, w, v) == berezin_transform(words, *gaussian)
    for w, v in (([0.5, 0], [0, 0]), ([0, 0], [0, 0.25])):
        with pytest.raises(TypeError):
            berezin_transform(words, w, v)


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


def coherent_vector(n, degree_bound, prefix="v"):
    """sum_k x^k / k! |k> as {multi-index: MultiPoly} in the variables
    prefix1..prefixn, symbolic components."""
    names = [f"{prefix}{j}" for j in range(1, n + 1)]
    return {
        k: MultiPoly({tuple(zip(names, k)): Fraction(1, mi_factorial(k))})
        for k in multi_indices(n, degree_bound)
    }


def fock_apply(matrix, vector: dict) -> dict:
    """A Fock operator on a vector {multi-index: value}, read off its
    t-slices entry by entry, storing no zero."""
    basis = matrix.basis
    return _sum_into({}, (
        (basis[r], x * TAU**e * vector[basis[c]])
        for e, part in matrix.slices.items()
        for (r, c), x in part.items()
        if basis[c] in vector
    ))


def diffop_apply(normal_terms: dict, vector: dict, derivatives: dict):
    """The ordering substitution on a coherent-parameter vector, in
    polynomials: the reference the integer ordering-recipe check is held to.

    A normal word R^a V^b acts on the parameter side as multiplication by
    v^b after differentiation d^a; the substitution reverses the factor
    order, matching the adjoint-style pairing of the two pictures.
    derivatives caches the nonzero components of d^a vector per raises
    tuple a; pass the same dict only with the same vector.
    """
    out = {}
    for (raises, lowers), coeff in normal_terms.items():
        moved = derivatives.get(raises)
        if moved is None:
            moved = {}
            for k, poly in vector.items():
                p = MultiPoly.coerce(poly)
                for j in raises:
                    p = p.diff(f"v{j}")
                if p:
                    moved[k] = p
            derivatives[raises] = moved
        factor = MultiPoly({tuple((f"v{j}", 1) for j in lowers): coeff})
        _sum_into(out, ((k, p * factor) for k, p in moved.items()))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_normal_order_and_substitution_store_no_zero(n):
    alphabet = [("R", j) for j in range(1, n + 1)] + [("V", j) for j in range(1, n + 1)]
    psi = coherent_vector(n, 4)
    derivatives = {}
    for size in range(4):
        for word in product(alphabet, repeat=size):
            terms = normal_order(word)
            assert terms and all(terms.values()), word
            subst = diffop_apply(terms, psi, derivatives)
            assert subst and all(subst.values()), word
    # v1 d1 - 1 multiplies component k by k1 - 1: every k with k1 = 1 cancels
    cancelled = diffop_apply({((1,), (1,)): 1, ((), ()): -1}, psi, {})
    assert all(cancelled.values())
    assert set(cancelled) == {k for k in psi if k[0] != 1}


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
    psi = coherent_vector(n, degree_bound)
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
            direct = fock_apply(hat.R(j) if kind == "R" else hat.shift_lower(j), direct)
        subst = diffop_apply(berezin.normal_order(word), psi, derivatives)
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


@pytest.mark.parametrize(
    "n, d, mutant, count",
    [
        (3, 5, commuting_order, 51),
        (3, 5, one_more_on_the_first_term, 198),
        (4, 6, commuting_order, 92),
        (4, 6, one_more_on_the_first_term, 576),
    ],
)
def test_wick_recipe_counts_every_mismatching_word(monkeypatch, n, d, mutant, count):
    # the counts the polynomial route read on the whole coherent vector
    monkeypatch.setattr(berezin, "normal_order", mutant)
    row = wick_recipe_check(n, d).checks[0]
    assert (row.passed, row.detail) == (False, f"{count} mismatches")


def test_the_integer_pairing_rows_catch_a_wrong_generator(monkeypatch):
    swapped = changed_hat(R1=lambda hat: hat.R(2), R2=lambda hat: hat.R(1))
    monkeypatch.setattr(berezin, "build_hat", swapped)
    failed = [c.name for c in verify_raising_identity(2).failed()]
    assert failed == [
        f"Fock numerator for R{j} is d/dv{j} of the pairing series" for j in (1, 2)
    ]
    shifted = changed_hat(rho0=lambda hat: hat.rho0 + hat.identity)
    monkeypatch.setattr(berezin, "build_hat", shifted)
    report = vacuum_symbol_check(2)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("transform of rho0 at the origin equals t", False)
    ]


def test_a_raise_in_place_of_the_lowering_fails_both_vacuum_forms(monkeypatch):
    swapped = changed_hat(L1=lambda hat: hat.R(1), R1=lambda hat: hat.L(1))
    monkeypatch.setattr(berezin, "build_hat", swapped)
    rows = {c.name: c.passed for c in bessel_form_check(2, 4).checks}
    assert rows == {
        "lowering form for j=1": False,
        "both forms annihilate the vacuum for j=1": False,
        "lowering form for j=2": True,
        "both forms annihilate the vacuum for j=2": True,
    }


@pytest.mark.parametrize(
    "n, d, word",
    [
        (1, 4, OperatorWord.of("R1")),
        (2, 4, OperatorWord.of("L1", "R1")),
        (2, 5, OperatorWord.of("rho0", "rho12", coeff=3)),
        (3, 4, OperatorWord.of("R2", "L3", coeff=gr(1, 2))),
        (3, 5, OperatorWord.of("L2", "rho0", "R2", coeff=Fraction(1, 3))),
    ],
)
def test_fock_pairing_series_is_the_coherent_pairing(n, d, word):
    # <psi_w, Q psi_v> = sum_k psi_w[k] (G Q psi_v)[k], on coherent vectors
    q = word_to_matrix(build_hat(n, d), word)
    moved = fock_apply(gram_matrix(n, d), fock_apply(q, coherent_vector(n, d)))
    left = coherent_vector(n, d, "w")
    want = sum((left[k] * value for k, value in moved.items()), MultiPoly.zero())
    assert fock_pairing_series(word, n, d) == want


def test_fock_pairing_series_identity_word():
    # the empty word reproduces the Leibniz series itself
    from socone.states import leibniz_closed_form

    n, bound = 2, 3
    got = fock_pairing_series(OperatorWord.of(), n, bound)
    expected = leibniz_closed_form(n, bound)
    assert got == expected
