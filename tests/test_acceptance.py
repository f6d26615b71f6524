"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact; the stated runtime budgets are asserted where given.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction
from math import factorial

from socone.algebra import (
    build_algebra,
    build_observables,
    conjugation_check,
    verify_relations,
)
from socone.berezin import bessel_form_check, verify_pde_system
from socone.fock import (
    gram_matrix,
    positivity_probe,
    verify_adjointness,
    verify_hat_relations,
)
from socone.matrices import DenseMatrix, commutator
from socone.poly import MultiPoly, TAU
from socone.spectral import (
    basis_polynomials,
    moments,
    orthogonality_check,
    roundtrip_check,
    verify_coordinate_duality,
)
from socone.states import leibniz_base, leibniz_base_value, leibniz_from_matrices

from conftest import mat_from_dense, pairs_equal, poch, rand_fraction
from test_algebra import L1_TAB, R1_TAB, X1_TAB, X2_TAB, X3_TAB


def _report(number, passed, note=""):
    mark = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {mark}  {note}")
    assert passed, f"criterion {number} failed: {note}"


def test_criterion_01_tabulated_matrices():
    t0 = time.perf_counter()
    alg = build_algebra(3)
    obs = {e.label: e.matrix for e in build_observables(3)}
    ok = (
        pairs_equal(mat_from_dense(alg.R(1)), R1_TAB)
        and pairs_equal(mat_from_dense(alg.L(1)), L1_TAB)
        and pairs_equal(mat_from_dense(obs["X1"]), X1_TAB)
        and pairs_equal(mat_from_dense(obs["X2"]), X2_TAB)
        and pairs_equal(mat_from_dense(obs["X3"]), X3_TAB)
    )
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, f"five 5x5 matrices, {elapsed:.3f}s")


def test_criterion_02_relation_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        alg = build_algebra(n)
        ok = ok and verify_relations(alg).all_passed
        obs = build_observables(n)
        zero = DenseMatrix.zeros(n + 2)
        for a in range(n):
            for b in range(n):
                ok = ok and commutator(obs[a].matrix, obs[b].matrix) == zero
        for e in obs:
            ok = ok and (e.matrix * e.matrix * e.matrix).is_zero
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, f"n = 1..4 exact, {elapsed:.3f}s")


def test_criterion_03_leibniz_pairing():
    import random

    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for n in (1, 2, 3):
        for _ in range(50):
            w = [rand_fraction(rng) for _ in range(n)]
            v = [rand_fraction(rng) for _ in range(n)]
            ok = ok and leibniz_from_matrices(w, v) == leibniz_base_value(w, v)
    for n in (1, 2):
        w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
        v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
        ok = ok and leibniz_from_matrices(w, v) == leibniz_base(n)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 10.0, f"150 points + symbolic n <= 2, {elapsed:.3f}s")


def test_criterion_04_conjugation_origin():
    ok = all(conjugation_check(n).all_passed for n in (2, 3))
    _report(4, ok, "exp(L1) R_j exp(-L1) for n = 2, 3")


def test_criterion_05_hat_realization():
    t0 = time.perf_counter()
    ok = all(verify_hat_relations(n, 6).all_passed for n in (1, 2, 3))
    ok = ok and all(verify_adjointness(n, 5).all_passed for n in (1, 2))
    ok = ok and all(bessel_form_check(n, 5).all_passed for n in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 30.0, f"relations D=6, pairing D=5, {elapsed:.3f}s")


def test_criterion_06_pde_system():
    ok = all(verify_pde_system(n).all_passed for n in (1, 2, 3, 4))
    _report(6, ok, "polynomial identities n = 1..4")


def test_criterion_07_coordinate_duality():
    ok = all(verify_coordinate_duality(n).all_passed for n in (1, 2, 3))
    ok = ok and all(roundtrip_check(n, 20, seed=0).all_passed for n in (1, 2, 3))
    _report(7, ok, "symbolic duality n <= 3 and 20 exact round trips")


def test_criterion_08_laguerre_reduction():
    kmax = 10
    x = MultiPoly.var("x1")
    lag = [MultiPoly.const(1), TAU - x]
    for k in range(1, kmax):
        nxt = ((2 * k + TAU - x) * lag[k] - (k + TAU - 1) * lag[k - 1]) * Fraction(
            1, k + 1
        )
        lag.append(nxt)
    polys = {bp.index: bp.poly for bp in basis_polynomials(1, kmax)}
    ok = all(
        polys[(k,)] == factorial(k) * (-1) ** k * lag[k] for k in range(kmax + 1)
    )
    _report(8, ok, "k <= 10 against the three-term recurrence")


def test_criterion_09_moments_and_orthogonality():
    table = moments(1, 8)
    ok = True
    for k in range(9):
        value = table.moment((k,))
        expected = MultiPoly.const(1)
        for i in range(k):
            expected = expected * (TAU + i)
        ok = ok and value == expected
        ok = ok and all(
            value.subs({"t": tau}).as_gaussian() == poch(tau, k)
            for tau in (Fraction(1), Fraction(3), Fraction(-5, 2))
        )
    ok = ok and orthogonality_check(Fraction(3), 5).all_passed
    try:
        moments(2, 4, check_hat=True)
    except AssertionError:
        ok = False
    _report(9, ok, "gamma moments, three routes, n=2 consistency")


def test_criterion_10_positivity_probes():
    p1 = positivity_probe(1, 5, Fraction(3))
    p2 = positivity_probe(2, 3, Fraction(3))
    p0 = positivity_probe(1, 2, Fraction(0))
    ok = p1.positive_definite and p2.positive_definite
    ok = ok and not p0.positive_definite
    ok = ok and any(d == 1 and piv == 0 for d, piv in p0.pivots)
    # float view is display only, at tolerance 1e-10; verdicts above are exact
    ok = ok and p1.float_min_eigenvalue > -1e-10
    ok = ok and p2.float_min_eigenvalue > -1e-10
    _report(10, ok, "exact LDL verdicts with display-only float view")
