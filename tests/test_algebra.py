from fractions import Fraction

import pytest

from socone.algebra import (
    OperatorWord,
    SoAlgebra,
    _observables,
    build_algebra,
    build_observables,
    build_rho,
    conjugation_check,
    formal_adjoint,
    generator_table,
    reference_check_n3,
    rotation_label,
    verify_relations,
    word_to_matrix,
)
from socone.matrices import DenseMatrix, commutator, numerator_stack
from socone.scalars import gr

from conftest import c, mat_comm, mat_from_dense, mat_scale, mat_add, pairs_equal

# the five tabulated 5x5 matrices, frozen here as oracle pairs
R1_TAB = [
    [c(0), c(0), c(0), c(0, 1), c(1)],
    [c(0)] * 5,
    [c(0)] * 5,
    [c(0, -1), c(0), c(0), c(0), c(0)],
    [c(-1), c(0), c(0), c(0), c(0)],
]
L1_TAB = [
    [c(0), c(0), c(0), c(0, -1), c(1)],
    [c(0)] * 5,
    [c(0)] * 5,
    [c(0, 1), c(0), c(0), c(0), c(0)],
    [c(-1), c(0), c(0), c(0), c(0)],
]
X1_TAB = [
    [c(0), c(0), c(0), c(0), c(2)],
    [c(0)] * 5,
    [c(0)] * 5,
    [c(0), c(0), c(0), c(0), c(0, 2)],
    [c(-2), c(0), c(0), c(0, -2), c(0)],
]
X2_TAB = [
    [c(0), c(0, 2), c(0), c(0), c(0)],
    [c(0, -2), c(0), c(0), c(2), c(0)],
    [c(0)] * 5,
    [c(0), c(-2), c(0), c(0), c(0)],
    [c(0)] * 5,
]
X3_TAB = [
    [c(0), c(0), c(0, 2), c(0), c(0)],
    [c(0)] * 5,
    [c(0, -2), c(0), c(0), c(2), c(0)],
    [c(0), c(0), c(-2), c(0), c(0)],
    [c(0)] * 5,
]


def test_build_rho_definition():
    m = build_rho(1, 1, 2)
    assert m.data[0][1] == 1 and m.data[1][0] == -1
    assert m.rows == 3
    assert (build_rho(2, 1, 3) + build_rho(2, 3, 1)).is_zero
    with pytest.raises(ValueError):
        build_rho(2, 1, 1)
    with pytest.raises(ValueError):
        build_rho(2, 0, 1)
    with pytest.raises(ValueError):
        build_rho(2, 1, 5)


def test_tabulated_n3_matrices_reproduced():
    alg = build_algebra(3)
    obs = {e.label: e.matrix for e in build_observables(3)}
    assert pairs_equal(mat_from_dense(alg.R(1)), R1_TAB)
    assert pairs_equal(mat_from_dense(alg.L(1)), L1_TAB)
    assert pairs_equal(mat_from_dense(obs["X1"]), X1_TAB)
    assert pairs_equal(mat_from_dense(obs["X2"]), X2_TAB)
    assert pairs_equal(mat_from_dense(obs["X3"]), X3_TAB)
    assert reference_check_n3().all_passed


def test_rho0_from_tabulated_x1():
    # 2i rho_45 must equal X1 minus its R1 + L1 part, on the tabulated data
    alg = build_algebra(3)
    rl = mat_add(R1_TAB, L1_TAB)
    rho0_tab = mat_add(X1_TAB, mat_scale(rl, -1))
    assert pairs_equal(mat_from_dense(alg.rho0), rho0_tab)


def test_commutator_of_tabulated_matrices_is_rho0():
    # oracle route: multiply the frozen tables directly
    got = mat_comm(L1_TAB, R1_TAB)
    alg = build_algebra(3)
    assert pairs_equal(got, mat_from_dense(alg.rho0))
    # and the package route agrees
    assert commutator(alg.L(1), alg.R(1)) == alg.rho0


def test_basis_inventory():
    alg = build_algebra(1)
    assert alg.labels() == ["R1", "L1", "rho0"]
    alg4 = build_algebra(4)
    assert len(alg4.labels()) == 2 * 4 + 1 + 6
    # the canonical order R, L, rho0, rho_jk
    assert build_algebra(3).labels() == [
        "R1", "R2", "R3", "L1", "L2", "L3", "rho0", "rho12", "rho13", "rho23"
    ]
    with pytest.raises(ValueError):
        build_algebra(0)


def test_cross_ladder_bracket_gives_rotation():
    alg = build_algebra(2)
    assert commutator(alg.L(2), alg.R(1)) == 2 * alg.rho(1, 2)
    assert commutator(alg.L(1), alg.R(2)) == 2 * alg.rho(2, 1)
    assert alg.rho(2, 1) == -alg.rho(1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_suite_all_pass(n):
    report = verify_relations(build_algebra(n))
    assert report.all_passed, [ch.name for ch in report.failed()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_observables_commute_and_cube_to_zero(n):
    obs = build_observables(n)
    zero = DenseMatrix.zeros(n + 2)
    for a in range(n):
        for b in range(n):
            assert commutator(obs[a].matrix, obs[b].matrix) == zero
    for e in obs:
        assert (e.matrix * e.matrix * e.matrix).is_zero


def test_build_algebra_is_built_once_per_n():
    assert build_algebra(2) is build_algebra(2)


def test_generator_stacks_are_cleared_once_per_algebra():
    alg = build_algebra(3)
    families = {
        "raising_stack": [alg.R(j) for j in (1, 2, 3)],
        "lowering_stack": [alg.L(j) for j in (1, 2, 3)],
    }
    for name, family in families.items():
        stack = getattr(alg, name)
        assert getattr(build_algebra(3), name) is stack
        assert stack == numerator_stack(family)
        assert type(stack[1]) is tuple and all(type(row) is tuple for row in stack[1])
    observables, stack = _observables(3)
    assert _observables(3)[1] is stack
    assert stack == numerator_stack(e.matrix for e in observables)


def test_build_observables_returns_a_fresh_list():
    first = build_observables(2)
    snapshot = list(first)
    first[0] = None
    first.append(None)
    assert build_observables(2) == snapshot


@pytest.mark.parametrize("n", [2, 3])
def test_conjugation_recovers_observables(n):
    assert conjugation_check(n).all_passed


def test_conjugation_against_bracket_expansion_oracle():
    # exp(L1) R_j exp(-L1) = R_j + [L1, R_j] + (1/2)[L1, [L1, R_j]]
    alg = build_algebra(2)
    obs = {e.label: e.matrix for e in build_observables(2)}
    l1 = mat_from_dense(alg.L(1))
    for j, expected in ((1, obs["X1"]), (2, gr(0, 1) * obs["X2"])):
        rj = mat_from_dense(alg.R(j))
        once = mat_comm(l1, rj)
        twice = mat_comm(l1, once)
        series = mat_add(mat_add(rj, once), mat_scale(twice, Fraction(1, 2)))
        assert pairs_equal(series, mat_from_dense(expected))


def test_formal_adjoint_mapping():
    assert formal_adjoint(OperatorWord.of("R1")) == OperatorWord.of("L1")
    assert formal_adjoint(OperatorWord.of("rho0")) == OperatorWord.of("rho0")
    # i rho_12 is fixed: the conjugated coefficient cancels the sign flip
    w = OperatorWord.of("rho12", coeff=gr(0, 1))
    assert formal_adjoint(w) == w
    # (L1 R1)^* = L1 R1, matching the fixed point rho0 = [L1, R1]
    prod = OperatorWord.of("L1", "R1")
    assert formal_adjoint(prod) == prod
    comm_words = [OperatorWord.of("L1", "R1"), OperatorWord.of("R1", "L1", coeff=-1)]
    adj = [formal_adjoint(w) for w in comm_words]
    alg = build_algebra(1)
    total = word_to_matrix(alg, adj[0]) + word_to_matrix(alg, adj[1])
    assert total == alg.rho0


def test_formal_adjoint_is_involution(rng):
    labels = ["R1", "R2", "L1", "L2", "rho0", "rho12"]
    for _ in range(25):
        length = rng.randint(0, 4)
        word = OperatorWord.of(
            *[rng.choice(labels) for _ in range(length)],
            coeff=gr(rng.randint(-3, 3), rng.randint(-3, 3)) + gr(1),
        )
        assert formal_adjoint(formal_adjoint(word)) == word


def test_formal_adjoint_rejects_unknown_labels():
    with pytest.raises(ValueError):
        OperatorWord.of("Q1")
    with pytest.raises(ValueError):
        formal_adjoint(OperatorWord(gr(1), ("bogus",)))


def test_naive_hermitian_adjoint_is_wrong_for_the_ladder():
    # conjugate transpose sends R1 to -L1, so it cannot realize the pairing
    alg = build_algebra(2)
    transposed = alg.R(1).transpose().data
    hermitian = DenseMatrix([[e.conj() for e in row] for row in transposed])
    assert hermitian == -alg.L(1)


def test_conjugation_check_requires_two_dimensions():
    with pytest.raises(ValueError):
        conjugation_check(1)


def test_exp_inverse_on_nilpotent_orbit_elements(rng):
    # every combination drawn from one abelian wing is nilpotent, and its
    # exponential inverts exactly
    from socone.matrices import exp_nilpotent

    n = 3
    alg = build_algebra(n)
    obs = build_observables(n)
    wings = (
        [alg.R(j) for j in range(1, n + 1)],
        [alg.L(j) for j in range(1, n + 1)],
        [e.matrix for e in obs],
    )
    for wing in wings:
        for _ in range(5):
            m = DenseMatrix.zeros(n + 2)
            for g in wing:
                m = m + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * g
            assert exp_nilpotent(m) * exp_nilpotent(-m) == DenseMatrix.identity(n + 2)


def test_two_digit_rotation_labels_are_distinct_and_resolve():
    alg = build_algebra(12)
    labels = alg.labels()
    assert len(set(labels)) == len(labels) == 2 * 12 + 1 + 12 * 11 // 2
    assert all(alg.generator(label) is alg.generators[label] for label in labels)
    assert "rho89" in labels and "rho1_12" in labels and "rho11_12" in labels
    assert alg.generator("rho12_1") == -alg.rho(1, 12) == alg.rho(12, 1)
    assert alg.generator("rho11_2") == alg.rho(11, 2) != alg.generator("rho1_12")


def test_bracket_rows_at_n_12_name_two_different_rotations():
    names = [ch.name for ch in verify_relations(build_algebra(12)).checks]
    assert "[L12, R1] = 2 rho1_12" in names
    assert "[L2, R11] = 2 rho11_2" in names


def test_operator_words_accept_two_digit_rotations_only_in_canonical_form():
    word = OperatorWord.of("rho1_12", "rho12_1", "R12")
    assert formal_adjoint(word) == OperatorWord.of("L12", "rho12_1", "rho1_12")
    for bad in ("rho112", "rho1_2", "rho01_12", "rho1_", "rho_12"):
        with pytest.raises(ValueError):
            OperatorWord.of(bad)


def test_rotation_labels_stay_distinct_where_run_together_labels_collide():
    # "rho1112" would be both rho_1,112 and rho_11,12; stand-in values
    # instead of 114 x 114 matrices
    n = 112
    table = generator_table(n, lambda j: j, lambda j: -j, 0, lambda j, k: 1000 * j + k)
    assert len(table) == 2 * n + 1 + n * (n - 1) // 2
    assert table["rho1_112"] == 1112 and table["rho11_12"] == 11012
    family = SoAlgebra(n, table, None)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            assert family.generator(rotation_label(j, k)) == 1000 * j + k
            assert family.generator(rotation_label(k, j)) == -(1000 * j + k)
