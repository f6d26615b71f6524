"""Source mutants applied by monkeypatch: each must turn report rows into
FAIL rows, not abort the suite with an exception, or, where no report row
can see it, fail a tier-1 oracle."""

from types import MappingProxyType

import pytest

from socone import algebra, berezin, fock, spectral, states
from socone.algebra import SoAlgebra, build_rho
from socone.berezin import wick_recipe_check
from socone.cli import main
from socone.fock import FockMatrix, verify_hat_relations
from socone.scalars import gr
from socone.spectral import roundtrip_check, vacuum_orthogonality_check
from socone.states import StateVector, coherent_suite

from conftest import first_order_basis


def test_a_wrong_inverse_coordinate_change_fails_the_round_trip_rows(monkeypatch):
    z_to_v = spectral.z_to_v

    def perturbed(z):
        v, h2 = z_to_v(z)
        return (v[0] + 1,) + v[1:], h2

    monkeypatch.setattr(spectral, "z_to_v", perturbed)
    report = roundtrip_check(2, 5, seed=0)
    assert [c.name for c in report.checks] == [
        f"round trip at point {i}" for i in range(1, 6)
    ]
    assert not any(c.passed for c in report.checks)
    assert {c.detail for c in report.checks} == {
        "round trip through the coordinate change fails"
    }


def test_a_wrong_pairing_base_at_w_zero_fails_the_closed_form_row(monkeypatch):
    base = states.leibniz_base_value

    def off_by_one_at_zero(w, v):
        value = base(w, v)
        return value + 1 if all(c == 0 for c in w) else value

    monkeypatch.setattr(states, "leibniz_base_value", off_by_one_at_zero)
    report = coherent_suite(2, 5)
    # the first point's w = 0 pairing raises: its symmetry was compared,
    # but no point's w = 0 row was
    assert {c.name: c.detail for c in report.failed()} == {
        "matrix pairing equals closed form (5 points)": (
            "matrix pipeline disagrees with the closed form"
        ),
        "pairing at w = 0 is 1": "no point compared",
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_flipped_i_in_the_basis_generating_function_fails_the_closed_forms(
    monkeypatch, n
):
    # basis_polynomials is the one reader of spectral's i that runs here, so
    # this is the numerator x1 (v1 + v.v) - i (x.v - x1 v1); the vacuum
    # orthogonality row, which reads the basis at n >= 2, still passes
    monkeypatch.setattr(spectral, "_I", -spectral._I)
    assert vacuum_orthogonality_check(n, 2).all_passed
    got, want = first_order_basis(n)
    assert got[0] == want[0]
    assert got[1:] == [-p for p in want[1:]]


def test_an_off_orbit_coherent_closed_form_fails_rows_without_aborting(
    monkeypatch, capsys
):
    closed_form = states.coherent_closed_form

    def last_slot_off(v):
        # i (1 - 2 v.v) in the last slot in place of i (1 - v.v)
        s = closed_form(v)
        return StateVector(s.entries[:-1] + (s.b - gr(0, 1) * (s.a - 1),))

    monkeypatch.setattr(states, "coherent_closed_form", last_slot_off)
    report = coherent_suite(2, 5)
    assert {c.name: c.detail for c in report.failed()} == {
        "matrix pairing equals closed form (5 points)": (
            "vector is not a scaled coherent state"
        ),
        "pairing is symmetric under swapping w, v": "no point compared",
        "pairing at w = 0 is 1": "no point compared",
        "scaled-state recovery": "exponential and closed-form coherent states differ",
    }
    assert main(["verify", "--all", "--n", "2", "--degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  scaled-state recovery" in out
    assert "FAIL  round trip at point 1  (vector is not a scaled coherent state)" in out
    assert err == "FAILED: matrix pairing equals closed form (50 points)\n"


@pytest.fixture
def doubled_i(monkeypatch):
    """R_j = rho_{j,n+2} + 2i rho_{j,n+1} in place of i rho_{j,n+1}, seen by
    the observables and by the coherent-state pipeline. z.X and v.R are then
    not nilpotent."""
    built = algebra.build_algebra

    def mutant(n):
        alg = built(n)
        generators = dict(alg.generators)
        for j in range(1, n + 1):
            generators[f"R{j}"] = build_rho(n, j, n + 2) + gr(0, 2) * build_rho(
                n, j, n + 1
            )
        return SoAlgebra(n, MappingProxyType(generators), alg.identity)

    algebra._observables.cache_clear()
    states.vacuum.cache_clear()
    monkeypatch.setattr(algebra, "build_algebra", mutant)
    monkeypatch.setattr(states, "build_algebra", mutant)
    yield
    monkeypatch.undo()
    algebra._observables.cache_clear()
    states.vacuum.cache_clear()


def test_a_doubled_i_part_in_the_raising_generators_fails_the_observable_rows(
    doubled_i, capsys
):
    code = main(["verify", "--lie", "--n", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "FAIL  [X1, X2] = 0" in out.splitlines()
    assert "FAIL  X1^3 = 0" in out.splitlines()
    assert err.startswith("FAILED: ")


def test_a_doubled_i_part_fails_rows_of_every_suite_of_verify_all(doubled_i, capsys):
    code = main(["verify", "--all", "--n", "2", "--degree", "4"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1
    # the full report: every report of the five suites, the last one included
    titles = [line for line in lines if line.startswith("== ")]
    assert len(titles) == 18
    assert titles[-1] == "== coordinate duality (n=2)"
    failed = "  (matrix is not nilpotent)"
    for row in [
        "FAIL  [X1, X2] = 0",
        "FAIL  matrix pairing equals closed form (50 points)" + failed,
        "FAIL  pairing is symmetric under swapping w, v  (no point compared)",
        "FAIL  pairing at w = 0 is 1  (no point compared)",
        "FAIL  scaled-state recovery" + failed,
        "FAIL  symbolic pairing identity" + failed,
        "FAIL  round trip at point 1" + failed,
        "FAIL  exp(z.X) vacuum equals its closed form" + failed,
    ]:
        assert row in lines
    assert err.startswith("FAILED: ")


def test_an_empty_compared_block_fails_the_ordering_recipe_row(monkeypatch, capsys):
    # no component of the coherent vector is compared, so no word is checked
    monkeypatch.setattr(berezin, "multi_indices", lambda n, degree_bound: [])
    report = wick_recipe_check(2, 5)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("all 85 words of length <= 3 agree", False, "no component compared")
    ]
    assert main(["verify", "--berezin", "--n", "2", "--degree", "4"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL  all 85 words of length <= 3 agree  (no component compared)" in out


@pytest.mark.parametrize("n", [2, 3])
def test_an_empty_interior_block_fails_every_bracket_row(monkeypatch, capsys, n):
    restrict = FockMatrix.restrict

    def nothing_at_the_interior(self, max_degree):
        if max_degree == self.degree_bound - 2:
            return self._like({})
        return restrict(self, max_degree)

    monkeypatch.setattr(FockMatrix, "restrict", nothing_at_the_interior)
    report = verify_hat_relations(n, 4)
    # the bracket rows come first; the shift commutators and the vacuum
    # axioms compare other blocks and still pass
    brackets = report.checks[: len(algebra.brackets(n))]
    assert report.failed() == brackets
    assert {c.detail for c in brackets} == {"no basis state compared"}
    assert main(["verify", "--fock", "--n", str(n), "--degree", "4"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL  [L1^, R1^] = rho0^  (no basis state compared)" in out.splitlines()


def test_an_empty_degree_block_fails_the_shift_commutator_rows(monkeypatch):
    restrict = FockMatrix.restrict

    def nothing_below_the_boundary(self, max_degree):
        if max_degree == self.degree_bound - 1:
            return self._like({})
        return restrict(self, max_degree)

    monkeypatch.setattr(FockMatrix, "restrict", nothing_below_the_boundary)
    failed = {c.name: c.detail for c in verify_hat_relations(2, 4).failed()}
    for j in (1, 2):
        assert failed[f"[V{j}, R{j}] = 1 (interior)"] == "no basis state compared"


def test_empty_restricted_generators_fail_the_bracket_and_adjointness_rows(
    monkeypatch, capsys
):
    # every generator of the restricted family is empty, so each bracket and
    # each adjointness row would compare zero with zero
    restricted = fock.restricted_family
    monkeypatch.setattr(fock, "restricted_family", lambda hat, d: restricted(hat, -1))
    relations = verify_hat_relations(2, 4)
    brackets = relations.checks[: len(algebra.brackets(2))]
    assert relations.failed() == brackets
    adjointness = fock.verify_adjointness(2, 4)
    assert len(adjointness.checks) == 4
    assert adjointness.failed() == adjointness.checks
    assert {c.detail for c in brackets + adjointness.checks} == {
        "a generator it reads is zero"
    }
    assert main(["verify", "--fock", "--n", "2", "--degree", "4"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL  [L1^, R1^] = rho0^  (a generator it reads is zero)" in out
    assert "FAIL  L1^* pairs as R1^  (a generator it reads is zero)" in out
