import re
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
from socone.spectral import moment_positivity_probe, moments
from socone.poly import MultiPoly, TAU
from socone.report import CheckResult
from socone.scalars import gr
from socone.states import leibniz_closed_form

from conftest import leading_minors_positive, poch


def test_multi_index_enumeration():
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert multi_indices(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 6)) == 84


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
        assert gram.entry((k,), (k,)) == expected
        for tau in (Fraction(3), Fraction(-1, 2)):
            assert gram.entry((k,), (k,)).subs({"t": tau}).as_gaussian() == factorial(
                k
            ) * poch(tau, k)
    # off-diagonal vanishes for n=1
    assert gram.entry((0,), (1,)).is_zero
    assert gram.entry((1,), (3,)).is_zero


def test_gram_structure_n2():
    gram = gram_matrix(2, 3)
    assert gram.entry((0, 0), (0, 0)) == 1
    assert gram.entry((2, 0), (0, 2)) == -2 * TAU
    assert gram.entry((2, 0), (1, 1)).is_zero
    assert gram.entry((1, 1), (1, 1)) == TAU * TAU + 2 * TAU
    assert gram.entry((1, 0), (1, 0)) == TAU
    assert gram.entry((1, 0), (0, 1)).is_zero
    # block diagonality by degree
    for k in gram.basis:
        for m in gram.basis:
            if mi_degree(k) != mi_degree(m):
                assert gram.entry(k, m).is_zero
    # symmetry
    for k in gram.basis:
        for m in gram.basis:
            assert gram.entry(k, m) == gram.entry(m, k)


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
    assert lhs == rhs == gram.entry((2,), (2,))


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
    dense = gram.eval_at(Fraction(3))
    assert leading_minors_positive(dense)
    assert positivity_probe(2, 2, Fraction(3)).positive_definite


def degree_blocks(n, d, tau):
    dense = gram_matrix(n, d).eval_at(tau)
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
    basis = gram_matrix(n, d).basis
    ends = fock._space(n, d)[2]
    for a, block in zip(ends, degree_blocks(n, d, Fraction(7, 3))):
        states = basis[a : a + len(block)]
        assert sorted(fock._pattern_components(block)) == classes(states, range(n))


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 2)])
def test_moment_components_are_the_parity_classes_of_slots_2_to_n(n, m):
    block = moment_matrix(n, m, Fraction(7, 3))
    expected = classes(multi_indices(n, m), range(1, n))
    assert sorted(fock._pattern_components(block)) == expected


def test_the_split_reads_the_zeros_and_assumes_no_symmetry():
    # the degree-2 block at n = 3 has the parity classes {x1^2, x2^2, x3^2}
    # and one class for each of x1 x2, x1 x3, x2 x3
    block = [list(row) for row in degree_blocks(3, 2, Fraction(7, 3))[2]]
    assert len(fock._pattern_components(block)) == 4
    # an entry planted between x1^2 and x1 x2 joins their classes
    for planted, verdict in ((Fraction(1, 2), True), (Fraction(100), False)):
        joined = [row[:] for row in block]
        joined[0][1] = joined[1][0] = planted
        probe = fock.probe_blocks([joined])
        assert len(probe.blocks) == 3
        pivots = [p for _, p in probe.pivots]
        assert matrices.is_positive_definite(joined) == (verdict, pivots)
        assert probe.positive_definite == verdict
    one_sided = [row[:] for row in block]
    one_sided[0][1] = Fraction(1)
    with pytest.raises(ValueError, match="symmetric"):
        fock.probe_blocks([one_sided])
    # a component whose diagonal is zero but whose remainder is not
    probe = fock.probe_blocks([[[1, 0, 0], [0, 0, 1], [0, 1, 0]]])
    assert probe.blocks == (((1,),), ((0, 1), (1, 0)))
    assert probe.positive_definite is False


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
        dense = gram.eval_at(tau)
        point = {"t": tau}
        want = [
            [gram.entry(k, m).subs(point).as_gaussian().as_fraction() for m in gram.basis]
            for k in gram.basis
        ]
        assert dense == want
        assert all(type(x) is Fraction for row in dense for x in row)


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
            i, j = gram.index[k], gram.index[m]
            assert gram.entry(k, m) == gram.entries.get((i, j), 0)
            if mi_degree(k) != mi_degree(m):
                assert gram.entry(k, m) == MultiPoly.zero()
                assert type(gram.entry(k, m)) is MultiPoly


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
