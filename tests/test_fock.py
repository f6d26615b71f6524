import hashlib
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from types import MappingProxyType

import pytest

from socone import algebra, fock, matrices
from socone.algebra import OperatorWord, brackets, build_algebra, verify_relations
from socone.berezin import fock_pairing_series
from socone.fock import (
    FockMatrix,
    build_combinatorial,
    build_hat,
    coherent_vector,
    gram_matrix,
    mi_degree,
    multi_indices,
    number_grading_check,
    pair,
    positivity_probe,
    restricted_family,
    series_duality_check,
    vacuum_vector,
    verify_adjointness,
    verify_hat_relations,
)
from socone.matrices import commutator
from socone.spectral import moment_positivity_probe, moments, orthogonality_check
from socone.poly import MultiPoly, TAU
from socone.report import CheckResult
from socone.scalars import gr
from socone.states import leibniz_closed_form

from conftest import dense_table, gram_entry, leading_minors_positive, poch


def test_multi_index_enumeration():
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert multi_indices(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 6)) == 84


def test_multi_indices_is_a_fresh_list_of_the_cached_basis():
    first = multi_indices(2, 3)
    first.clear()
    again = multi_indices(2, 3)
    assert again is not first
    assert again == list(fock._space(2, 3)[0]) and len(again) == 10


def test_combinatorial_actions():
    lower = build_combinatorial(2, 4, "lower", 1)
    assert lower.apply(vacuum_vector(2)) == {}
    assert lower.apply({(2, 0): gr(1)}) == {(1, 0): gr(2)}
    raiser = build_combinatorial(2, 4, "raise", 2)
    assert raiser.apply({(1, 0): gr(1)}) == {(1, 1): gr(1)}
    # raising the top state leaves the truncated space: the write is dropped
    assert raiser.apply({(4, 0): gr(1)}) == {}


def test_shift_commutator_is_identity_on_interior():
    for n, d in ((1, 4), (2, 4)):
        for j in range(1, n + 1):
            lower = build_combinatorial(n, d, "lower", j)
            raiser = build_combinatorial(n, d, "raise", j)
            comm = commutator(lower, raiser)
            ident = FockMatrix.identity(n, d)
            assert comm.restrict(d - 1) == ident.restrict(d - 1)
            # and it genuinely fails at the boundary, which is the point
            assert comm != ident


def test_hat_actions_by_hand():
    hat = build_hat(2, 4)
    e1 = {(1, 0): gr(1)}
    assert hat.L(1).apply(e1) == {(0, 0): TAU}
    assert hat.rho0.apply(vacuum_vector(2)) == {(0, 0): TAU}
    assert hat.rho(1, 2).apply({(0, 1): gr(1)}) == {(1, 0): gr(1)}
    assert hat.rho(2, 1).apply({(0, 1): gr(1)}) == {(1, 0): gr(-1)}
    # classical lowering value: L|k> = k (t + k - 1) |k-1> for n=1
    hat1 = build_hat(1, 5)
    got = hat1.L(1).apply({(3,): gr(1)})
    assert got == {(2,): 3 * (TAU + 2)}


@pytest.mark.parametrize("n,d", [(1, 4), (2, 5), (3, 4)])
def test_hat_relations(n, d):
    report = verify_hat_relations(n, d)
    assert report.all_passed, [ch.name for ch in report.failed()]


def test_gram_diagonal_n1():
    gram = gram_matrix(1, 4)
    for k in range(5):
        expected = MultiPoly.const(factorial(k))
        for i in range(k):
            expected = expected * (TAU + i)
        assert gram_entry(gram, (k,), (k,)) == expected
        for tau in (Fraction(3), Fraction(-1, 2)):
            assert gram_entry(gram, (k,), (k,)).subs(
                {"t": tau}
            ).as_gaussian() == factorial(k) * poch(tau, k)
    # off-diagonal vanishes for n=1
    assert gram_entry(gram, (0,), (1,)) == 0
    assert gram_entry(gram, (1,), (3,)) == 0


def test_gram_structure_n2():
    gram = gram_matrix(2, 3)
    assert gram_entry(gram, (0, 0), (0, 0)) == 1
    assert gram_entry(gram, (2, 0), (0, 2)) == -2 * TAU
    assert gram_entry(gram, (2, 0), (1, 1)) == 0
    assert gram_entry(gram, (1, 1), (1, 1)) == TAU * TAU + 2 * TAU
    assert gram_entry(gram, (1, 0), (1, 0)) == TAU
    assert gram_entry(gram, (1, 0), (0, 1)) == 0
    # block diagonality by degree
    for k in gram.basis:
        for m in gram.basis:
            if mi_degree(k) != mi_degree(m):
                assert gram_entry(gram, k, m) == 0
    # symmetry
    for k in gram.basis:
        for m in gram.basis:
            assert gram_entry(gram, k, m) == gram_entry(gram, m, k)


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (2, 5)])
def test_adjointness(n, d):
    report = verify_adjointness(n, d)
    assert report.all_passed, [ch.name for ch in report.failed()]


def test_adjointness_hand_case():
    # <L|2>, |1>> = <|2>, R|1>> reduces to 2(t+1) * t = G[2][2]
    hat = build_hat(1, 3)
    gram = gram_matrix(1, 3)
    lowered = hat.L(1).apply({(2,): gr(1)})
    lhs = pair(gram, lowered, {(1,): gr(1)})
    raised = hat.R(1).apply({(1,): gr(1)})
    rhs = pair(gram, {(2,): gr(1)}, raised)
    assert lhs == rhs == gram_entry(gram, (2,), (2,))


def test_positivity_probe_cases():
    probe = positivity_probe(1, 5, Fraction(3))
    assert probe.positive_definite is True
    assert [p for _, p in probe.pivots] == [
        factorial(k) * poch(3, k) for k in range(6)
    ]
    assert probe.float_min_eigenvalue > -1e-10

    probe = positivity_probe(1, 2, Fraction(0))
    assert probe.positive_definite is False
    assert (1, Fraction(0)) in probe.pivots

    probe = positivity_probe(2, 3, Fraction(3))
    assert probe.positive_definite is True


# sha256 (first 16 hex digits) of repr((positive_definite, pivots, blocks))
# for positivity_probe(n, PROBE_GRAM_DEGREE[n], t) and
# moment_positivity_probe(n, t, PROBE_MOMENT_DEGREE[n]), recorded from the
# dense evaluation of each table. The weights straddle the Wallach boundary
# max(n - 2, 0) and include it; the repr spells the type of every entry, so
# an int 0 where a Fraction(0) stood changes the digest.
PROBE_GRAM_DEGREE = {1: 8, 2: 6, 3: 5, 4: 4, 5: 3}
PROBE_MOMENT_DEGREE = {1: 5, 2: 4, 3: 3, 4: 2, 5: 2}
PROBE_RECORD = {
    (1, -1): ("cf8af7ddadb44aee", "8de08616fed14639"),
    (1, Fraction(-1, 3)): ("f679bc82366ce6cb", "83bbc02c70777806"),
    (1, 0): ("acaec6b7a9349e10", "fc298b4864394949"),
    (1, Fraction(1, 5)): ("719c36a3405ee461", "9e420e7ec9b486ac"),
    (1, 1): ("979e695e03adf9d9", "409bc1ef8d454329"),
    (2, -1): ("bb3823103ef0b754", "e8a64eb094590fa7"),
    (2, Fraction(-1, 3)): ("6e570b1d8a0c516e", "cbcbf7fe1e61f253"),
    (2, 0): ("d61b29b892c47b29", "d71d3fd014e65b26"),
    (2, Fraction(1, 5)): ("7f42073b8693db02", "a31c9b22efd9a455"),
    (2, 1): ("3898990b3cd442c4", "0da807f82f6551e8"),
    (3, 0): ("1f2f1b3fabecb73d", "a549ec7c570c6b2d"),
    (3, Fraction(2, 3)): ("2123316ee24dcea4", "b78584bd7e31b8bd"),
    (3, 1): ("c3f7c42455402cef", "87d1d3c47327e72f"),
    (3, Fraction(6, 5)): ("3b193eb2720d028f", "7ec647681b1a63d2"),
    (3, 2): ("a1d16c541f8eb4c6", "a90a5b4e3293df6e"),
    (4, 1): ("d797e1676b9e0ee4", "266ee144a823b793"),
    (4, Fraction(5, 3)): ("90281adda389d13e", "a51b13254c8ccd06"),
    (4, 2): ("6725d6f67b57942d", "00bdbe529ecd3e02"),
    (4, Fraction(11, 5)): ("15c0027340874a48", "9d59db07a01887a9"),
    (4, 3): ("971b9b5225c660fe", "7cb786b684ba6964"),
    (5, 2): ("318d0837ceb4dfce", "bd37de6c4de6c8a6"),
    (5, Fraction(8, 3)): ("3740582f3a86e77b", "c86285a19dc81392"),
    (5, 3): ("18ff875a762f047d", "b227735a51e8db62"),
    (5, Fraction(16, 5)): ("811c9ccffb0e5e8a", "bf26cf18c0689075"),
    (5, 4): ("d7e1e0a5dbbd98f1", "b150f60c2734a954"),
}


@pytest.mark.parametrize("n, tau", sorted(PROBE_RECORD))
def test_probes_match_their_recorded_verdicts_pivots_and_blocks(n, tau):
    def digest(probe):
        record = repr((probe.positive_definite, probe.pivots, probe.blocks))
        return hashlib.sha256(record.encode()).hexdigest()[:16]

    gram = positivity_probe(n, PROBE_GRAM_DEGREE[n], tau)
    moment = moment_positivity_probe(n, tau, PROBE_MOMENT_DEGREE[n])
    assert (digest(gram), digest(moment)) == PROBE_RECORD[n, tau]
    for probe in (gram, moment):
        assert all(type(p) is Fraction for _, p in probe.pivots)
        assert all(type(x) is Fraction for b in probe.blocks for row in b for x in row)


def test_probes_compute_the_float_view_only_when_it_is_read(monkeypatch):
    # a probe runs one exact LDL per block; the bisection behind the float
    # view runs only on the first read, and once
    calls = []
    ldl = matrices.exact_ldl
    monkeypatch.setattr(matrices, "exact_ldl", lambda m: calls.append(m) or ldl(m))
    for make, args in (
        (positivity_probe, (3, 5, Fraction(1, 3))),
        (moment_positivity_probe, (2, Fraction(3), 2)),
    ):
        probe = make(*args)
        assert len(calls) == len(probe.blocks)
        value = probe.float_min_eigenvalue
        read = len(calls)
        assert read > len(probe.blocks)
        assert probe.float_min_eigenvalue == value and len(calls) == read
        calls.clear()


def test_positivity_probe_matches_minor_oracle():
    gram = gram_matrix(2, 2)
    dense = dense_table(gram.eval_at(Fraction(3)), len(gram.basis))
    assert leading_minors_positive(dense)
    assert positivity_probe(2, 2, Fraction(3)).positive_definite


def degree_blocks(n, d, tau):
    gram = gram_matrix(n, d)
    dense = dense_table(gram.eval_at(tau), len(gram.basis))
    ends = fock._space(n, d)[2]
    return [[row[a:b] for row in dense[a:b]] for a, b in zip(ends, ends[1:])]


def moment_matrix(n, d, tau):
    table = moments(n, 2 * d, tau=tau, check_hat=False)
    basis = multi_indices(n, d)
    return [
        [
            table.moment(tuple(a + b for a, b in zip(k, m))).as_gaussian().as_fraction()
            for m in basis
        ]
        for k in basis
    ]


def submatrices(matrix, components):
    """The square submatrix on each component's rows, as nested tuples."""
    return tuple(tuple(tuple(matrix[i][j] for j in rows) for i in rows) for rows in components)


def as_values(matrix):
    """The nonzero entries of a square nested list, keyed by position."""
    return {(i, j): x for i, row in enumerate(matrix) for j, x in enumerate(row) if x}


def classes(states, slots):
    """Positions of the states grouped by the parity of the given slots."""
    out = {}
    for i, k in enumerate(states):
        out.setdefault(tuple(k[s] % 2 for s in slots), []).append(i)
    return sorted(out.values())


def pivots_in_basis_order(block):
    """Gaussian elimination without pivoting: the pivots when no leading
    minor vanishes, otherwise None."""
    a = [list(row) for row in block]
    pivots = []
    for k in range(len(a)):
        p = a[k][k]
        if not p:
            return None
        pivots.append(p)
        for i in range(k + 1, len(a)):
            f = a[i][k] / p
            if f:
                for j in range(k + 1, len(a)):
                    a[i][j] -= f * a[k][j]
    return pivots


@pytest.mark.parametrize("n, d, m", [(2, 6, 4), (3, 5, 3), (4, 4, 2)])
def test_splitting_each_block_changes_no_verdict_and_no_pivot(n, d, m):
    # the weights straddle the Wallach boundary max(n - 2, 0)
    boundary = max(n - 2, 0)
    compared = 0
    for offset in (-1, Fraction(-1, 3), 0, Fraction(1, 5), 1):
        tau = boundary + offset
        for probe, blocks in (
            (positivity_probe(n, d, tau), degree_blocks(n, d, tau)),
            (moment_positivity_probe(n, tau, m), [moment_matrix(n, m, tau)]),
        ):
            verdicts = [matrices.is_positive_definite(b)[0] for b in blocks]
            assert probe.positive_definite == all(verdicts)
            for b, block in enumerate(blocks):
                pivots = pivots_in_basis_order(block)
                if pivots is not None:
                    assert [p for c, p in probe.pivots if c == b] == pivots
                    assert matrices.is_positive_definite(block)[1] == pivots
                    compared += 1
    assert compared > 0


def test_the_float_view_reads_the_same_from_the_components():
    for tau in (Fraction(-1, 2), Fraction(7, 3)):
        probe = positivity_probe(2, 6, tau)
        blocks = tuple(tuple(map(tuple, b)) for b in degree_blocks(2, 6, tau))
        unsplit = fock.PositivityProbe(probe.positive_definite, probe.pivots, blocks)
        assert len(probe.blocks) > len(blocks)
        assert probe.float_min_eigenvalue == unsplit.float_min_eigenvalue


@pytest.mark.parametrize("n, d", [(2, 8), (3, 6), (4, 5), (5, 4)])
def test_gram_components_are_the_parity_classes_of_every_slot(n, d):
    # the probe's components, listed by their first row, are the parity
    # classes of each degree block
    tau = Fraction(7, 3)
    gram = gram_matrix(n, d)
    dense = dense_table(gram.eval_at(tau), len(gram.basis))
    ends = fock._space(n, d)[2]
    expected = [
        [a + i for i in rows]
        for a, b in zip(ends, ends[1:])
        for rows in classes(gram.basis[a:b], range(n))
    ]
    assert positivity_probe(n, d, tau).blocks == submatrices(dense, expected)


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 2)])
def test_moment_components_are_the_parity_classes_of_slots_2_to_n(n, m):
    block = moment_matrix(n, m, Fraction(7, 3))
    expected = classes(multi_indices(n, m), range(1, n))
    probe = moment_positivity_probe(n, Fraction(7, 3), m)
    assert probe.blocks == submatrices(block, expected)


def test_the_split_reads_the_zeros_and_assumes_no_symmetry():
    # the degree-2 block at n = 3 has the parity classes {x1^2, x2^2, x3^2}
    # and one class for each of x1 x2, x1 x3, x2 x3
    block = [list(row) for row in degree_blocks(3, 2, Fraction(7, 3))[2]]
    labels = [0] * len(block)
    assert len(fock.probe_components(as_values(block), labels).blocks) == 4
    # an entry planted between x1^2 and x1 x2 joins their classes
    for planted, verdict in ((Fraction(1, 2), True), (Fraction(100), False)):
        joined = [row[:] for row in block]
        joined[0][1] = joined[1][0] = planted
        probe = fock.probe_components(as_values(joined), labels)
        assert len(probe.blocks) == 3
        pivots = [p for _, p in probe.pivots]
        assert matrices.is_positive_definite(joined) == (verdict, pivots)
        assert probe.positive_definite == verdict
    one_sided = [row[:] for row in block]
    one_sided[0][1] = Fraction(1)
    with pytest.raises(ValueError, match="symmetric"):
        fock.probe_components(as_values(one_sided), labels)
    # a component whose diagonal is zero but whose remainder is not
    probe = fock.probe_components(as_values([[1, 0, 0], [0, 0, 1], [0, 1, 0]]), [0] * 3)
    assert probe.blocks == (((1,),), ((0, 1), (1, 0)))
    assert probe.positive_definite is False
    # an absent cell of a component is Fraction(0), whatever the stored type
    assert type(probe.blocks[1][0][0]) is Fraction


def test_series_duality():
    for n, d in ((1, 5), (2, 4)):
        assert series_duality_check(n, d).all_passed


def test_duality_at_rational_points(rng):
    # pairing of truncated coherent vectors at exact points, weight symbolic
    n, d = 2, 4
    gram = gram_matrix(n, d)
    left = coherent_vector(n, d, "w")
    right = coherent_vector(n, d, "v")
    from socone.states import leibniz_closed_form

    series = leibniz_closed_form(n, d)
    for _ in range(5):
        point = {}
        for j in range(1, n + 1):
            point[f"w{j}"] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            point[f"v{j}"] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = pair(
            gram,
            {k: MultiPoly.coerce(p).subs(point) for k, p in left.items()},
            {k: MultiPoly.coerce(p).subs(point) for k, p in right.items()},
        )
        assert lhs == series.subs(point)


def at_weight(matrix, tau):
    # the matrix with the weight t set to tau in every polynomial entry
    entries = {
        pos: v.subs({"t": tau}) if isinstance(v, MultiPoly) else v
        for pos, v in matrix.entries.items()
    }
    return FockMatrix(matrix.n, matrix.degree_bound, entries)


def test_number_grading():
    assert number_grading_check(2, 4).all_passed
    hat = build_hat(1, 4)
    specialized = at_weight(hat.rho0, Fraction(-2))
    assert specialized.apply(vacuum_vector(1)) == {(0,): gr(-2)}


def test_hat_matches_matrix_realization_at_weight_minus_two():
    # the matrix bracket relations hold and rho0 acts as -2 there; the hat
    # family reproduces that weight under t -> -2
    from socone.algebra import build_algebra, verify_relations

    assert verify_relations(build_algebra(2)).all_passed
    hat = build_hat(2, 4)
    rho0 = at_weight(hat.rho0, Fraction(-2))
    assert rho0.apply(vacuum_vector(2)) == {(0, 0): gr(-2)}


def test_build_hat_validates_bound():
    with pytest.raises(ValueError):
        build_hat(1, 1)
    with pytest.raises(ValueError):
        verify_hat_relations(1, 2)


@pytest.mark.parametrize("n, d", [(1, 6), (2, 5), (3, 4)])
def test_gram_at_a_weight_matches_entrywise_substitution(n, d):
    gram = gram_matrix(n, d)
    for tau in (Fraction(-5, 2), Fraction(0), Fraction(1, 3), Fraction(4)):
        values = gram.eval_at(tau)
        point = {"t": tau}
        # an absent cell is zero at every weight
        want = {
            pos: x
            for pos, entry in gram.entries.items()
            if (x := entry.subs(point).as_gaussian().as_fraction())
        }
        assert values == want
        assert all(type(x) is Fraction and x for x in values.values())



def test_weights_are_exact_ints_or_fractions():
    # a float is refused, not probed at its binary expansion
    gram = gram_matrix(2, 3)
    for weight in (0.1, 2.0, "1/2", gr(1), None, Decimal(3)):
        for call in (
            lambda: gram.eval_at(weight),
            lambda: positivity_probe(2, 3, weight),
            lambda: moment_positivity_probe(2, weight, 2),
            lambda: orthogonality_check(weight, 2),
        ):
            with pytest.raises(TypeError):
                call()
    for weight in (3, Fraction(3)):
        assert gram.eval_at(weight) == gram.eval_at(Fraction(3))
    assert positivity_probe(2, 3, 3) == positivity_probe(2, 3, Fraction(3))
    assert moment_positivity_probe(2, 3, 2) == moment_positivity_probe(2, Fraction(3), 2)


def test_shared_matrices_apply_like_fresh_copies():
    hat = build_hat(2, 4)
    vectors = [
        vacuum_vector(2),
        {(1, 0): gr(2), (0, 2): gr(0, 1)},
        coherent_vector(2, 4, "v"),
    ]
    for shared in (hat.L(1), hat.rho0, hat.rho(1, 2), hat.shift_lower(2)):
        for _ in range(2):
            for vector in vectors:
                fresh = FockMatrix(shared.n, shared.degree_bound, dict(shared.entries))
                assert shared.apply(vector) == fresh.apply(vector)


def test_hat_and_gram_are_built_once_per_key():
    assert build_hat(2, 3) is build_hat(2, 3)
    assert gram_matrix(2, 3) is gram_matrix(2, 3)


def test_shared_tables_are_read_only():
    with pytest.raises(TypeError):
        gram_matrix(2, 3).entries[0, 0] = MultiPoly.zero()
    with pytest.raises(TypeError):
        build_hat(2, 3).generators["rho12"] = None


@pytest.mark.parametrize("builder, args", [(build_hat, (1, 1)), (gram_matrix, (1, -1))])
def test_failed_builds_are_not_cached(builder, args):
    for _ in range(2):
        with pytest.raises(ValueError):
            builder(*args)


@pytest.mark.parametrize(
    "call, as_in_matrices",
    [
        (lambda family: family.R(0), True),
        (lambda family: family.L(0), True),
        (lambda family: family.R(3), True),
        (lambda family: family.L(3), True),
        (lambda family: family.rho(1, 3), True),
        (lambda family: family.rho(3, 1), True),
        (lambda family: family.rho(2, 2), True),
        (lambda family: family.shift_lower(0), False),
        (lambda family: family.shift_lower(3), False),
        (lambda family: fock_pairing_series(OperatorWord.of("R0"), 2, 4), False),
        (lambda family: OperatorWord.of("X1"), False),
    ],
    ids=["R0", "L0", "R3", "L3", "rho13", "rho31", "rho22", "V0", "V3", "word R0", "X1"],
)
def test_fock_realization_rejects_labels_out_of_range(call, as_in_matrices):
    with pytest.raises(ValueError) as got:
        call(build_hat(2, 4))
    if as_in_matrices:
        with pytest.raises(ValueError) as want:
            call(build_algebra(2))
        assert str(got.value) == str(want.value)


def test_both_realizations_share_labels_and_the_rotation_sign():
    for n in (1, 2, 3):
        alg, hat = build_algebra(n), build_hat(n, 3)
        assert hat.labels() == alg.labels() == list(alg.generators)
        for family in (alg, hat):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    assert family.rho(k, j) == -family.generator(f"rho{j}{k}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hat_report_opens_with_the_matrix_bracket_rows(n):
    rows = verify_relations(build_algebra(n)).checks
    hat_rows = verify_hat_relations(n, 3).checks[: len(brackets(n))]
    marked = [
        CheckResult(re.sub(r"(R\d|L\d|rho\d+)", r"\1^", ch.name), ch.passed, ch.detail)
        for ch in rows
    ]
    assert len(rows) == len(brackets(n))
    assert hat_rows == marked
    assert all(ch.passed for ch in rows)


def test_a_wrong_bracket_coefficient_fails_the_same_row_in_both(monkeypatch):
    table = brackets(2)
    names = [ch.name for ch in verify_relations(build_algebra(2)).checks]
    hat_names = [ch.name for ch in verify_hat_relations(2, 3).checks]
    for i, (a, b, (coeff, c)) in enumerate(table):
        if not coeff:
            continue
        wrong = table[:i] + [(a, b, (coeff + 1, c))] + table[i + 1 :]
        monkeypatch.setattr(algebra, "brackets", lambda n, rows=wrong: rows)
        lie = [ch.name for ch in verify_relations(build_algebra(2)).failed()]
        hat = [ch.name for ch in verify_hat_relations(2, 3).failed()]
        for got, name in ((lie, names[i]), (hat, hat_names[i])):
            lhs, rhs = name.split(" = ")
            assert got == [f"{lhs} = {coeff + 1} {rhs.split()[-1]}"]


def test_rotations_are_read_by_index_where_labels_run_together():
    # two-digit indices: rho_11,2 and rho_1,12 are different generators
    alg, hat = build_algebra(12), build_hat(12, 2)
    for family in (alg, hat):
        assert family.rho(11, 2) == -family.rho(2, 11)
        assert family.rho(11, 2) != -family.rho(1, 12)
    assert verify_relations(alg).all_passed


def test_gram_matrix_leaves_the_leibniz_cache_alone():
    before = leibniz_closed_form.cache_info()
    built = gram_matrix.__wrapped__(2, 3)
    assert leibniz_closed_form.cache_info() == before
    assert dict(built.entries) == dict(gram_matrix(2, 3).entries)


# -- the compared-block restrictions against the full products -------------------


def drop_above(matrix, max_degree):
    # FockMatrix.restrict by the degree of each row and column state
    basis = matrix.basis
    return FockMatrix(
        matrix.n,
        matrix.degree_bound,
        {
            (r, c): v
            for (r, c), v in matrix.entries.items()
            if mi_degree(basis[r]) <= max_degree and mi_degree(basis[c]) <= max_degree
        },
    )


SIZES = [(n, d) for n in (1, 2, 3) for d in (3, 4, 5, 6)]


@pytest.mark.parametrize("n, d", SIZES)
def test_restricted_brackets_equal_the_full_ones_on_the_interior(n, d):
    hat = build_hat(n, d)
    small = restricted_family(hat, d - 1)
    for a, b in combinations(hat.labels(), 2):
        full = commutator(hat.generator(a), hat.generator(b))
        got = commutator(small.generator(a), small.generator(b))
        assert drop_above(got, d - 2) == drop_above(full, d - 2), (a, b)


@pytest.mark.parametrize("n, d", SIZES)
def test_restricted_adjointness_products_equal_the_full_ones(n, d):
    hat = build_hat(n, d)
    small = restricted_family(hat, d - 1)
    g = gram_matrix(n, d)
    g_small = drop_above(g, d - 1)
    for label in hat.labels():
        full, got = hat.generator(label), small.generator(label)
        assert got.transpose() * g_small == drop_above(full.transpose() * g, d - 1)
        assert g_small * got == drop_above(g * full, d - 1)


def test_a_generator_that_jumps_two_degrees_fails_the_grading_assertion(monkeypatch):
    build = fock.generator_table

    def with_a_jump(n, *args):
        table = dict(build(n, *args))
        index = FockMatrix(n, 4).index
        jump = {(index[(2, 0)], index[(0, 0)]): gr(1)}
        table["R1"] = table["R1"] + FockMatrix(n, 4, jump)
        return MappingProxyType(table)

    monkeypatch.setattr(fock, "generator_table", with_a_jump)
    with pytest.raises(AssertionError, match="R1\\^ does not move the degree by 1"):
        build_hat.__wrapped__(2, 4)


@pytest.mark.parametrize("k", [(1, 0), (3, 0)])
def test_a_wrong_gram_entry_fails_an_adjointness_row(monkeypatch, k):
    good = gram_matrix(2, 4)
    entries = dict(good.entries)
    i = good.index[k]
    entries[i, i] = entries[i, i] + 1
    bad = FockMatrix(2, 4, entries)
    monkeypatch.setattr(fock, "gram_matrix", lambda n, d: bad)
    failed = [ch.name for ch in verify_adjointness(2, 4).failed()]
    assert "L1^* pairs as R1^" in failed


# -- one basis, index and block layout per truncated space ----------------------


def test_every_operator_on_a_space_shares_one_basis_and_index():
    hat = build_hat(2, 4)
    r, lo = hat.R(1), hat.L(2)
    identity = FockMatrix.identity(2, 4)
    results = [
        *hat.generators.values(),
        *hat.lowering,
        hat.identity,
        identity,
        r + lo,
        r * lo,
        r - lo,
        -r,
        TAU * r,
        r.transpose(),
        r.restrict(2),
        gram_matrix(2, 4),
    ]
    for m in results:
        assert m.basis is identity.basis and m.index is identity.index
        assert all(m.entries.values())
    assert gram_matrix(2, 4).basis is identity.basis
    assert list(identity.basis) == multi_indices(2, 4)
    assert all(identity.index[k] == i for i, k in enumerate(identity.basis))


def test_a_zero_scalar_product_stores_nothing():
    dense = matrices.DenseMatrix([[1, MultiPoly.var("v1")], [0, gr(0, 2)]])
    for m in (dense, build_hat(2, 3).R(1), gram_matrix(1, 3)):
        for zero in (0, Fraction(0), gr(0), MultiPoly.zero()):
            assert (zero * m).entries == {} and (m * zero).entries == {}
            assert (zero * m).shape == m.shape


def test_operators_on_different_spaces_do_not_mix():
    a, b = build_hat(2, 3).R(1), build_hat(2, 4).R(1)
    for op in (lambda: a * b, lambda: a + b, lambda: a == b):
        with pytest.raises(ValueError, match="different truncated spaces"):
            op()


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in range(6)])
def test_restrict_drops_by_degree_at_every_cut(n, d):
    size = len(multi_indices(n, d))
    dense = {(r, c): gr(r, c + 1) for r in range(size) for c in range(size)}
    full = FockMatrix(n, d, dense)
    matrices = [full] + (list(build_hat(n, d).generators.values()) if d >= 2 else [])
    for m in matrices:
        for cut in range(-2, d + 3):
            assert m.restrict(cut).entries == drop_above(m, cut).entries, cut


# -- the Gram table is a FockMatrix on the shared space ---------------------------


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 3)])
def test_gram_table_is_a_fock_matrix_on_the_shared_space(n, d):
    gram, hat = gram_matrix(n, d), build_hat(n, d)
    assert type(gram) is FockMatrix
    assert gram.basis is hat.identity.basis and gram.index is hat.identity.index
    # keyed by basis positions, read-only
    assert all(isinstance(r, int) and isinstance(c, int) for r, c in gram.entries)
    assert gram.entries[0, 0] == 1
    with pytest.raises(TypeError):
        gram.entries[0, 0] = MultiPoly.const(2)
    for k in gram.basis:
        for m in gram.basis:
            if mi_degree(k) != mi_degree(m):
                assert (gram.index[k], gram.index[m]) not in gram.entries


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 3)])
def test_pair_is_the_double_sum_over_multi_indices(n, d):
    gram = gram_matrix(n, d)
    series = leibniz_closed_form(n, d)
    # the pairing table read off the series, keyed by multi-indices
    table = {}
    for k, cofactor in series.split_index("w", n).items():
        for m, poly in cofactor.split_index("v", n).items():
            table[k, m] = prod(map(factorial, k + m)) * poly
    left = {k: gr(i + 1, i % 3 - 1) for i, k in enumerate(gram.basis)}
    right = coherent_vector(n, d, "v")
    want = MultiPoly.zero()
    for k, a in left.items():
        for m, b in right.items():
            if (k, m) in table:
                want = want + a * table[k, m] * b
    assert pair(gram, left, right) == want
    assert pair(gram, right, left) == want
