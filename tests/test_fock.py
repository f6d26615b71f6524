import hashlib
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod
from types import MappingProxyType

import pytest

from socone import algebra, berezin, fock, matrices, spectral, states
from socone.algebra import OperatorWord, brackets, build_algebra, verify_relations
from socone.berezin import fock_pairing_series
from socone.fock import (
    FockMatrix,
    build_combinatorial,
    build_hat,
    gram_at,
    gram_matrix,
    mi_degree,
    multi_indices,
    number_grading_check,
    pairing_series,
    positivity_probe,
    restricted_family,
    series_duality_check,
    verify_adjointness,
    verify_hat_relations,
)
from socone.matrices import commutator
from socone.spectral import (
    moment_positivity_probe,
    moments,
    orthogonality_check,
    spectral_transform,
)
from socone.poly import MultiPoly, TAU, series_power, weight_exponent
from socone.report import CheckResult
from socone.scalars import gr
from socone.states import leibniz_base, leibniz_closed_form

from conftest import changed_hat, dense_table, gram_entry, leading_minors_positive, poch


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


@pytest.mark.parametrize("n", range(1, 7))
def test_space_is_the_sorted_enumeration_of_each_degree_block(n):
    # reference: every tuple of a block, sorted with the first slot largest first
    for d in range(7):
        want = []
        for total in range(d + 1):
            block = [k for k in product(range(total + 1), repeat=n) if sum(k) == total]
            want.extend(sorted(block, key=lambda k: tuple(-x for x in k)))
        basis, index, ends = fock._space(n, d)
        assert basis == tuple(want)
        assert all(index[k] == i for i, k in enumerate(want))
        assert ends == tuple(sum(1 for k in want if sum(k) < e) for e in range(d + 2))


def column(n, d, vector):
    # the vector {multi-index: value} as column 0 of an operator on (n, d)
    index = FockMatrix(n, d).index
    return FockMatrix(n, d, {(index[k], 0): value for k, value in vector.items()})


def coherent_column(n, d, point, prefix):
    # the truncated coherent vector sum_k x^k / k! |k> at an exact point
    return column(n, d, {
        k: prod(Fraction(point[f"{prefix}{j}"]) ** x / factorial(x) for j, x in enumerate(k, 1))
        for k in multi_indices(n, d)
    })


def test_combinatorial_actions():
    lower = build_combinatorial(2, 4, "lower", 1)
    assert (lower * column(2, 4, {(0, 0): 1})).is_zero
    assert lower * column(2, 4, {(2, 0): 1}) == column(2, 4, {(1, 0): 2})
    raiser = build_combinatorial(2, 4, "raise", 2)
    assert raiser * column(2, 4, {(1, 0): 1}) == column(2, 4, {(1, 1): 1})
    # raising the top state leaves the truncated space: the write is dropped
    assert (raiser * column(2, 4, {(4, 0): 1})).is_zero


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
    e1, e2, vacuum = (column(2, 4, {k: 1}) for k in ((1, 0), (0, 1), (0, 0)))
    assert hat.L(1) * e1 == TAU * vacuum
    assert hat.rho0 * vacuum == TAU * vacuum
    assert hat.rho(1, 2) * e2 == e1
    assert hat.rho(2, 1) * e2 == -e1
    # classical lowering value: L|k> = k (t + k - 1) |k-1> for n=1
    hat1 = build_hat(1, 5)
    got = hat1.L(1) * column(1, 5, {(3,): 1})
    assert got == column(1, 5, {(2,): 3 * (TAU + 2)})


@pytest.mark.parametrize("n,d", [(1, 4), (2, 5), (3, 4)])
def test_hat_relations(n, d):
    report = verify_hat_relations(n, d)
    assert report.all_passed, [ch.name for ch in report.failed()]


VACUUM_ROWS = (
    "L^ annihilates the vacuum",
    "rho0^ vacuum eigenvalue is t",
    "rotations annihilate the vacuum",
)


@pytest.mark.parametrize(
    "labels, failing",
    [
        (dict(L1=lambda hat: hat.R(1), R1=lambda hat: hat.L(1)), "L^ annihilates the vacuum"),
        (dict(rho0=lambda hat: hat.rho0 + hat.identity), "rho0^ vacuum eigenvalue is t"),
        (dict(rho12=lambda hat: hat.rho(1, 2) + hat.R(1)), "rotations annihilate the vacuum"),
    ],
    ids=["L1 swapped with R1", "rho0 plus one", "rho12 plus R1"],
)
def test_a_wrong_generator_fails_its_vacuum_row(monkeypatch, labels, failing):
    monkeypatch.setattr(fock, "build_hat", changed_hat(**labels))
    rows = {c.name: c.passed for c in verify_hat_relations(2, 4).checks}
    assert {name: rows[name] for name in VACUUM_ROWS} == {
        name: name != failing for name in VACUUM_ROWS
    }


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
    one, two = column(1, 3, {(1,): 1}), column(1, 3, {(2,): 1})
    lhs = (hat.L(1) * two).transpose() * gram * one
    rhs = two.transpose() * gram * (hat.R(1) * one)
    assert lhs == rhs == FockMatrix(1, 3, {(0, 0): gram_entry(gram, (2,), (2,))})


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
    dense = dense_table(gram_at(2, 2, Fraction(3)), len(gram.basis))
    assert leading_minors_positive(dense)
    assert positivity_probe(2, 2, Fraction(3)).positive_definite


def degree_blocks(n, d, tau):
    gram = gram_matrix(n, d)
    dense = dense_table(gram_at(n, d, tau), len(gram.basis))
    ends = fock._space(n, d)[2]
    return [[row[a:b] for row in dense[a:b]] for a, b in zip(ends, ends[1:])]


def moment_matrix(n, d, tau):
    table = moments(n, 2 * d, tau=tau, check_hat=False)
    basis = multi_indices(n, d)
    return [
        [
            Fraction(
                *table.moment(tuple(a + b for a, b in zip(k, m)))
                .as_gaussian()
                .as_integer_ratio()
            )
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
    dense = dense_table(gram_at(n, d, tau), len(gram.basis))
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
    # pairing of truncated coherent vectors at exact points, weight symbolic:
    # the columns psi_w and psi_v, and the 1 x 1 product psi_w^T G psi_v
    n, d = 2, 4
    gram = gram_matrix(n, d)
    series = leibniz_closed_form(n, d)
    for _ in range(5):
        point = {}
        for j in range(1, n + 1):
            point[f"w{j}"] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            point[f"v{j}"] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        left, right = (coherent_column(n, d, point, g) for g in "wv")
        lhs = left.transpose() * gram * right
        assert lhs == FockMatrix(n, d, {(0, 0): series.subs(point)})


def entries_of(matrix):
    # the operator's entries {(row, col): sum_e c_e t^e}, from its slices
    out = {}
    for e, part in matrix.slices.items():
        for pos, c in part.items():
            out[pos] = out.get(pos, 0) + c * TAU**e
    return out


def at_weight(matrix, tau):
    # the matrix with the weight t set to tau in every polynomial entry
    entries = {pos: v.subs({"t": tau}) for pos, v in entries_of(matrix).items()}
    return FockMatrix(matrix.n, matrix.degree_bound, entries)


def test_number_grading():
    assert number_grading_check(2, 4).all_passed
    hat = build_hat(1, 4)
    specialized = at_weight(hat.rho0, Fraction(-2))
    vacuum = column(1, 4, {(0,): 1})
    assert specialized * vacuum == -2 * vacuum


def test_hat_matches_matrix_realization_at_weight_minus_two():
    # the matrix bracket relations hold and rho0 acts as -2 there; the hat
    # family reproduces that weight under t -> -2
    from socone.algebra import build_algebra, verify_relations

    assert verify_relations(build_algebra(2)).all_passed
    hat = build_hat(2, 4)
    rho0 = at_weight(hat.rho0, Fraction(-2))
    vacuum = column(2, 4, {(0, 0): 1})
    assert rho0 * vacuum == column(2, 4, {(0, 0): gr(-2)})


def test_build_hat_validates_bound():
    with pytest.raises(ValueError):
        build_hat(1, 1)
    with pytest.raises(ValueError):
        verify_hat_relations(1, 2)


@pytest.mark.parametrize("n, d", [(1, 6), (2, 5), (3, 4), (4, 4)])
def test_gram_at_a_weight_matches_entrywise_substitution(n, d):
    # rational, negative and integer weights; at t = 0 the Leibniz series
    # is 1, so every cell but the vacuum vanishes
    symbolic = gram_at(n, d, None)
    assert gram_at(n, d, 0) == {(0, 0): 1}
    weights = [
        0, -1, -3, 7, Fraction(2, 3), Fraction(-5, 2), Fraction(96, 97),
        Fraction(-200, 101), Fraction(1, 997), Fraction(1, 3), Fraction(4),
    ]
    for tau in weights:
        values = gram_at(n, d, tau)
        point = {"t": tau}
        # an absent cell is zero at every weight
        want = {
            pos: x
            for pos, entry in symbolic.items()
            if (x := Fraction(*entry.subs(point).as_gaussian().as_integer_ratio()))
        }
        assert values == want
        assert all(type(x) is Fraction and x for x in values.values())
        # a repeated call reads the same cached cells to the same values
        assert gram_at(n, d, tau) == values
    # positions that share a polynomial share its value
    holders = {}
    for pos, x in gram_at(n, d, Fraction(2, 3)).items():
        holders.setdefault(id(symbolic[pos]), set()).add(id(x))
    assert all(len(ids) == 1 for ids in holders.values())


def components_of(matrix):
    """The connected components of the nonzero pattern of a square nested
    list, each as its sorted rows, listed by first row."""
    seen, out = set(), []
    for start in range(len(matrix)):
        if start in seen:
            continue
        rows, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j, x in enumerate(matrix[i]):
                if (x or matrix[j][i]) and j not in rows:
                    rows.add(j)
                    todo.append(j)
        seen |= rows
        out.append(sorted(rows))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moment_probe_blocks_match_the_moment_table(n):
    # the probe reads its moments off the transform's terms; the table route
    # goes through moments() and its multi-index split
    d = PROBE_MOMENT_DEGREE[n]
    boundary = max(n - 2, 0)
    offsets = (-3, -1, Fraction(-1, 997), 0, Fraction(1, 101), Fraction(350, 113))
    for tau in [boundary + x for x in offsets] + [Fraction(-250, 997)]:
        matrix = moment_matrix(n, d, tau)
        probe = moment_positivity_probe(n, tau, d)
        assert probe.blocks == submatrices(matrix, components_of(matrix))
        unsplit = fock.probe_components(as_values(matrix), [0] * len(matrix))
        assert probe == unsplit


def test_entry_points_refuse_a_dimension_below_one():
    calls = [
        lambda: positivity_probe(0, 3, 1),
        lambda: positivity_probe(-1, 3, 1),
        lambda: moment_positivity_probe(0, 1, 2),
        lambda: moments(0, 2),
        lambda: spectral_transform(0, 2),
        lambda: build_hat(0, 3),
        lambda: gram_matrix(0, 3),
        lambda: gram_at(0, 3, 1),
        lambda: gram_at(-1, 3, Fraction(1, 2)),
        lambda: multi_indices(-2, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^spatial dimension must be at least 1$"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectral.basis_polynomials(0, 3),
        lambda: berezin.verify_raising_identity(0),
        lambda: berezin.verify_pde_system(0),
        lambda: spectral.z_to_v([]),
        lambda: spectral.v_to_z([]),
        lambda: spectral.roundtrip_check(0, 2, 1),
        lambda: spectral.verify_coordinate_duality(0),
        lambda: leibniz_closed_form(0, 3),
        lambda: leibniz_base(0),
        lambda: leibniz_base(-1),
        lambda: states.coherent_closed_form([]),
        lambda: spectral.zeta2_value([]),
        lambda: spectral.h2_value([]),
        lambda: states.leibniz_base_value([], []),
    ],
    ids=[
        "basis_polynomials",
        "verify_raising_identity",
        "verify_pde_system",
        "z_to_v",
        "v_to_z",
        "roundtrip_check",
        "verify_coordinate_duality",
        "leibniz_closed_form",
        "leibniz_base",
        "leibniz_base_negative",
        "coherent_closed_form",
        "zeta2_value",
        "h2_value",
        "leibniz_base_value",
    ],
)
def test_series_and_coordinate_entry_points_refuse_a_dimension_below_one(call):
    # twice: a refused build caches nothing
    for _ in range(2):
        with pytest.raises(ValueError, match="^spatial dimension must be at least 1$"):
            call()


def test_weights_are_exact_ints_or_fractions():
    # a float is refused, not probed at its binary expansion
    for weight in (0.1, 2.0, "1/2", gr(1), None, Decimal(3)):
        calls = [
            lambda: positivity_probe(2, 3, weight),
            lambda: moment_positivity_probe(2, weight, 2),
            lambda: orthogonality_check(weight, 2),
        ]
        # gram_at reads None as the table in t
        if weight is not None:
            calls.append(lambda: gram_at(2, 3, weight))
        for call in calls:
            with pytest.raises(TypeError):
                call()
    for weight in (3, Fraction(3)):
        assert gram_at(2, 3, weight) == gram_at(2, 3, Fraction(3))
    assert positivity_probe(2, 3, 3) == positivity_probe(2, 3, Fraction(3))
    assert moment_positivity_probe(2, 3, 2) == moment_positivity_probe(2, Fraction(3), 2)


def test_shared_matrices_apply_like_fresh_copies():
    # the read-only operators build_hat shares, on either side of a product,
    # give what a fresh copy gives, and reading them leaves them as they were
    hat = build_hat(2, 4)
    vectors = [
        column(2, 4, {(0, 0): 1}),
        column(2, 4, {(1, 0): gr(2), (0, 2): gr(0, 1)}),
        coherent_column(2, 4, {"v1": Fraction(1, 2), "v2": -3}, "v"),
    ]
    for shared in (hat.L(1), hat.rho0, hat.rho(1, 2), hat.shift_lower(2)):
        fresh = FockMatrix(shared.n, shared.degree_bound, entries_of(shared))
        for _ in range(2):
            for vector in vectors:
                assert shared * vector == fresh * vector
                assert vector.transpose() * shared == vector.transpose() * fresh
        assert shared == fresh


def test_hat_and_gram_are_built_once_per_key():
    assert build_hat(2, 3) is build_hat(2, 3)
    assert gram_matrix(2, 3) is gram_matrix(2, 3)


def test_shared_tables_are_read_only():
    with pytest.raises(TypeError):
        gram_at(2, 3, None)[0, 0] = MultiPoly.zero()
    with pytest.raises(TypeError):
        build_hat(2, 3).generators["rho12"] = None
    # the operators build_hat and gram_matrix cache: each part and the map of parts
    for shared, fresh in (
        (build_hat(2, 3).R(1), build_hat.__wrapped__(2, 3).R(1)),
        (gram_matrix(2, 3), gram_matrix.__wrapped__(2, 3)),
    ):
        with pytest.raises(TypeError):
            shared.slices[0][(1, 0)] = 5
        with pytest.raises(TypeError):
            shared.slices[7] = {}
        assert shared == fresh
    with pytest.raises(TypeError):
        build_algebra(2).R(1).entries[0, 0] = 5
    assert build_algebra(2).R(1) == build_algebra.__wrapped__(2).R(1)
    assert (0, 0) not in build_algebra(2).R(1).entries


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
    assert built == gram_matrix(2, 3)


# -- the compared-block restrictions against the full products -------------------


def drop_above(matrix, max_degree):
    # FockMatrix.restrict by the degree of each row and column state
    basis = matrix.basis
    return FockMatrix(
        matrix.n,
        matrix.degree_bound,
        {
            (r, c): v
            for (r, c), v in entries_of(matrix).items()
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
    entries = dict(gram_at(2, 4, None))
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
        assert all(m.slices.values())
        assert all(v for part in m.slices.values() for v in part.values())
    assert gram_matrix(2, 4).basis is identity.basis
    assert list(identity.basis) == multi_indices(2, 4)
    assert all(identity.index[k] == i for i, k in enumerate(identity.basis))


def test_a_zero_scalar_product_stores_nothing():
    dense = matrices.DenseMatrix([[1, MultiPoly.var("v1")], [0, gr(0, 2)]])
    for m in (dense, build_hat(2, 3).R(1), gram_matrix(1, 3)):
        for zero in (0, Fraction(0), gr(0), MultiPoly.zero()):
            assert (zero * m).slices == {} and (m * zero).slices == {}
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
            assert m.restrict(cut) == drop_above(m, cut), cut


# -- the Gram table is a FockMatrix on the shared space ---------------------------


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 3)])
def test_gram_table_is_a_fock_matrix_on_the_shared_space(n, d):
    gram, hat = gram_matrix(n, d), build_hat(n, d)
    assert type(gram) is FockMatrix
    assert gram.basis is hat.identity.basis and gram.index is hat.identity.index
    # keyed by basis positions; the cells in t read-only
    positions = {pos for part in gram.slices.values() for pos in part}
    assert all(isinstance(r, int) and isinstance(c, int) for r, c in positions)
    assert entries_of(gram)[0, 0] == 1
    cells = gram_at(n, d, None)
    assert cells.keys() == positions and cells[0, 0] == 1
    with pytest.raises(TypeError):
        cells[0, 0] = MultiPoly.const(2)
    for k in gram.basis:
        for m in gram.basis:
            if mi_degree(k) != mi_degree(m):
                assert (gram.index[k], gram.index[m]) not in positions


def monomial(prefix, k):
    # x^k / k! in the variables prefix1..prefixn
    word = tuple((f"{prefix}{j}", x) for j, x in enumerate(k, 1))
    return MultiPoly({word: Fraction(1, prod(map(factorial, k)))})


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 3)])
def test_pair_is_the_double_sum_over_multi_indices(n, d):
    gram = gram_matrix(n, d)
    series = leibniz_closed_form(n, d)
    # the pairing table read off the series, keyed by multi-indices
    table = {}
    for k, cofactor in series.split_index("w", n).items():
        for m, poly in cofactor.split_index("v", n).items():
            table[k, m] = prod(map(factorial, k + m)) * poly
    # Q with Gaussian entries, some linear in t, in every cell but one
    basis, index, size = gram.basis, gram.index, len(gram.basis)
    q = {
        (i, c): gr(i + 1, (i + c) % 3 - 1) + (c - i) * TAU
        for i in range(size)
        for c in range(size)
        if (i, c) != (size - 1, 0)
    }
    want = MultiPoly.zero()
    for (k, l), cell in table.items():
        for c, m in enumerate(basis):
            if (x := q.get((index[l], c))) is not None:
                want = want + monomial("w", k) * cell * x * monomial("v", m)
    op = FockMatrix(n, d, q)
    assert pairing_series(gram * op) == want
    # the identity gives the pairing series itself
    assert pairing_series(gram) == series


@pytest.mark.parametrize("n, d", [(1, 4), (2, 4), (3, 3)])
def test_hat_generators_on_the_coherent_vector_store_no_zero(n, d):
    # the coherent vector's v^m coefficient |m> / m! is column m of a
    # diagonal operator, so Q psi_v is the product with it, column by column
    hat = build_hat(n, d)
    basis = hat.identity.basis
    psi = FockMatrix(n, d, {(i, i): Fraction(1, prod(map(factorial, k))) for i, k in enumerate(basis)})
    for label, matrix in hat.generators.items():
        moved = matrix * psi
        assert not moved.is_zero, label
        assert all(v for part in moved.slices.values() for v in part.values()), label


# -- the table from the integer series against the split polynomial series ------


def reference_gram_entries(n, d):
    # the series as one MultiPoly, split by w and then by v, scaled by k! m!
    index = {k: i for i, k in enumerate(multi_indices(n, d))}
    series = series_power(leibniz_base(n), weight_exponent(None), d)
    return {
        (index[k], index[m]): prod(map(factorial, k + m)) * poly
        for k, cofactor in series.split_index("w", n).items()
        for m, poly in cofactor.split_index("v", n).items()
    }


@pytest.mark.parametrize(
    "n, d",
    [(1, 12), (2, 6), (2, 10), (3, 5), (3, 6), (4, 4), (1, 0), (3, 0), (2, 1), (4, 1)],
)
def test_gram_table_matches_the_split_polynomial_series(n, d):
    entries = gram_at(n, d, None)
    assert dict(entries) == reference_gram_entries(n, d)
    assert FockMatrix(n, d, entries) == gram_matrix(n, d)
    holders = {}
    for value in entries.values():
        holders.setdefault(tuple(value.canonical_items()), set()).add(id(value))
    # positions with equal values hold one object
    assert all(len(ids) == 1 for ids in holders.values())


@pytest.mark.parametrize(
    "extra, message",
    [
        (("w1", "v1", "v1"), "pairing connects different degrees"),
        (("w1", "w2", "v1", "v1"), "pairing table is not symmetric"),
        (("w1", "v1"), "a pairing cell is not an integer polynomial in t"),
    ],
    ids=["degree", "symmetry", "integrality"],
)
def test_gram_build_asserts_on_a_wrong_series(monkeypatch, extra, message):
    want = gram_matrix(2, 3)
    want_cells = dict(gram_at(2, 3, None))
    term = prod(map(MultiPoly.var, extra), start=MultiPoly.const(1))
    monkeypatch.setattr(fock, "leibniz_base", lambda n: leibniz_base(n) + term)
    gram_matrix.cache_clear()
    fock._gram_cells.cache_clear()
    fock._gram_polynomials.cache_clear()
    builds = (gram_matrix, lambda n, d: gram_at(n, d, 1), lambda n, d: gram_at(n, d, None))
    for _ in range(2):
        for build in builds:
            with pytest.raises(AssertionError, match=message):
                build(2, 3)
    # a failed build is not cached
    assert gram_matrix.cache_info().currsize == 0
    assert fock._gram_cells.cache_info().currsize == 0
    assert fock._gram_polynomials.cache_info().currsize == 0
    monkeypatch.undo()
    assert gram_matrix(2, 3) == want
    assert gram_at(2, 3, None) == want_cells


# -- the integer t-slices against the MultiPoly route -----------------------------


def mp_add(a, b, scale=1):
    # a + scale b for {(row, col): MultiPoly or scalar} maps, storing no zero
    out = dict(a)
    for pos, v in b.items():
        s = out.get(pos, 0) + scale * v
        if s:
            out[pos] = s
        else:
            out.pop(pos, None)
    return out


def mp_mul(a, b):
    # the product of two such maps, each entry summed from its products
    products = {}
    for (i, j), x in a.items():
        for (k, c), y in b.items():
            if j == k:
                products.setdefault((i, c), []).append(x * y)
    return mp_add({}, {pos: sum(ps[1:], ps[0]) for pos, ps in products.items()})


def reference_hat(n, d):
    # the reference route: the generators with MultiPoly entries, formed
    # entry by entry from the shift operators
    basis = multi_indices(n, d)
    index = {k: i for i, k in enumerate(basis)}

    def step(k, j, delta):
        return k[: j - 1] + (k[j - 1] + delta,) + k[j:]

    raising = [
        {(index[step(k, j, 1)], i): gr(1) for i, k in enumerate(basis) if sum(k) < d}
        for j in range(1, n + 1)
    ]
    lowering = [
        {(index[step(k, j, -1)], i): gr(k[j - 1]) for i, k in enumerate(basis) if k[j - 1]}
        for j in range(1, n + 1)
    ]
    number, vsq = {}, {}
    for r, v in zip(raising, lowering):
        number, vsq = mp_add(number, mp_mul(r, v)), mp_add(vsq, mp_mul(v, v))
    table = {f"R{j}": raising[j - 1] for j in range(1, n + 1)}
    for j in range(1, n + 1):
        v = lowering[j - 1]
        ladder = mp_add({p: TAU * x for p, x in v.items()}, mp_mul(number, v), 2)
        table[f"L{j}"] = mp_add(ladder, mp_mul(raising[j - 1], vsq), -1)
    identity = {(i, i): TAU for i in range(len(basis))}
    table["rho0"] = mp_add(identity, number, 2)
    for j, k in combinations(range(1, n + 1), 2):
        rot = mp_mul(raising[j - 1], lowering[k - 1])
        rot = mp_add(rot, mp_mul(raising[k - 1], lowering[j - 1]), -1)
        table[algebra.rotation_label(j, k)] = rot
    return table


def t_coefficients(entries):
    # {e: {position: coefficient of t^e}} of a map of polynomials in t
    out = {}
    for pos, value in entries.items():
        for mono, c in MultiPoly.coerce(value).decoded_terms().items():
            out.setdefault(dict(mono).get("t", 0), {})[pos] = c
    return out


def slice_values(matrix):
    # the slices, as exact values
    return {e: {pos: gr(c) for pos, c in part.items()} for e, part in matrix.slices.items()}


@pytest.mark.parametrize("n, d", [(1, 6), (2, 5), (3, 5), (4, 4)])
def test_slices_equal_the_multipoly_tables_entry_for_entry(n, d):
    hat = build_hat(n, d)
    reference = reference_hat(n, d)
    assert list(reference) == hat.labels()
    for label, matrix in hat.generators.items():
        # every generator is A + t B with integer A and B
        assert set(matrix.slices) <= {0, 1}
        assert all(type(c) is int for p in matrix.slices.values() for c in p.values())
        assert slice_values(matrix) == t_coefficients(reference[label]), label
    gram = gram_matrix(n, d)
    assert all(type(c) is int for p in gram.slices.values() for c in p.values())
    assert slice_values(gram) == t_coefficients(reference_gram_entries(n, d))


def test_a_changed_integer_coefficient_fails_exactly_its_rows(monkeypatch):
    # 3 (N V_1) in place of 2 (N V_1) in the lowering generator L_1
    hat = build_hat(2, 4)
    number = hat.R(1) * hat.shift_lower(1) + hat.R(2) * hat.shift_lower(2)
    generators = dict(hat.generators)
    generators["L1"] = hat.L(1) + number * hat.shift_lower(1)
    mutant = fock.HatFamily(2, MappingProxyType(generators), hat.identity, 4, hat.lowering)
    monkeypatch.setattr(fock, "build_hat", lambda n, d: mutant)
    monkeypatch.setattr(berezin, "build_hat", lambda n, d: mutant)
    failed = {
        check.__name__: [c.name for c in check(2, 4).failed()]
        for check in (
            verify_adjointness,
            verify_hat_relations,
            berezin.bessel_form_check,
            berezin.hat_from_pde_check,
        )
    }
    # [L1^, rho0^] = 2 L1^ still holds: N V_1 lowers the degree by one too
    assert failed == {
        "verify_adjointness": ["L1^* pairs as R1^"],
        "verify_hat_relations": [
            "[L1^, R1^] = rho0^",
            "[rho12^, L2^] = L1^",
            "[L1^, R2^] = 2 rho21^",
            "[rho21^, L1^] = L2^",
            "[L1^, L2^] = 0",
        ],
        "bessel_form_check": ["lowering form for j=1"],
        "hat_from_pde_check": ["lowering operator read off the system, j=1"],
    }


def test_the_slice_ring_keeps_rational_and_complex_values_exact():
    hat = build_hat(2, 4)
    r, lo = hat.R(1), hat.L(2)
    half, third = r * Fraction(1, 2), r * Fraction(1, 3)
    assert set(half.slices[0].values()) == {gr(Fraction(1, 2))}
    assert half * 2 == r and half != r and half + third == r * Fraction(5, 6)
    assert half - half == 0 * r and (half - half).is_zero
    assert lo * half == (lo * r) * Fraction(1, 2) != lo * r
    # a complex or polynomial scalar multiplies every slice
    assert (r * gr(0, 1)) * gr(0, 1) == -r
    assert TAU * r == FockMatrix(2, 4, {p: TAU * v for p, v in entries_of(r).items()})
    assert set((TAU * lo + gr(1, 2) * lo).slices) == {0, 1, 2}
    # a polynomial in t splits into its powers: t shifts every slice up one
    for m in (r, lo, hat.rho0, gram_matrix(2, 4)):
        shifted = {e + 1: part for e, part in m.slices.items()}
        assert (TAU * m).slices == (m * TAU).slices == shifted
        assert (1 + TAU) * m == m + TAU * m
    # the entries read back to the same operator, and a product's entries
    # are the products of the MultiPoly entries
    for m in (lo, hat.rho0, gram_matrix(2, 4), half * lo, r * gr(2, -3)):
        assert FockMatrix(2, 4, entries_of(m)) == m
    assert entries_of(half * lo) == mp_mul(entries_of(half), entries_of(lo))
    with pytest.raises(ValueError, match="polynomial in t alone"):
        FockMatrix(2, 4, {(0, 0): MultiPoly.var("v1")})
    with pytest.raises(ValueError, match="polynomial in t alone"):
        MultiPoly.var("v1") * r
