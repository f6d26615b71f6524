"""Degree-truncated Fock space, shift operators, the hat realization, Gram
matrices, and exact positivity probes.

The hat realization is the so(n,2) generator interface of algebra.SoAlgebra
on truncated Fock operators: HatFamily reads labels, brackets, words and
observables through it and adds only the truncation degree and the
lowering shifts V_j.

Basis states are multi-indices (k_1..k_n) of total degree at most D in
graded lexicographic order; one basis, index and block layout serves every
operator on a truncated space (n, D). A raise out of the truncated space is
dropped, and every relation check compares interior blocks, where the
truncation cannot leak, so each reported identity is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, gcd, inf, nextafter
from types import MappingProxyType

from .algebra import SoAlgebra, bracket_checks, generator_table, rotation_label
from .matrices import SparseMatrix, _sum_into, commutator, dot, is_positive_definite
from .poly import MultiPoly, TAU, TAU_NAME, series_power, weight_exponent
from .report import CheckResult, Report
from .scalars import gr
from .states import leibniz_base, leibniz_closed_form


def multi_indices(n: int, max_degree: int) -> list:
    """All multi-indices of length n with total degree <= max_degree, in
    graded lexicographic order: a fresh list of the cached basis of (n, D)."""
    return list(_space(n, max_degree)[0])


def mi_degree(k) -> int:
    return sum(k)


def mi_factorial(k) -> int:
    p = 1
    for x in k:
        p *= factorial(x)
    return p


def _shift(k, j, delta):
    out = list(k)
    out[j - 1] += delta
    return tuple(out)


@cache
def _space(n: int, degree_bound: int) -> tuple:
    """(basis, index, ends) of the truncated space (n, D): the graded basis,
    the position of each state, and ends[d], the offset of the degree-d
    block for d = 0..D+1 (ends[D+1] is the size). Built once per (n, D)
    and shared by every operator on the space and by multi_indices."""
    basis = []
    for total in range(degree_bound + 1):
        block = []

        def fill(prefix, left, slots):
            if slots == 0:
                if left == 0:
                    block.append(prefix)
                return
            for d in range(left + 1):
                fill(prefix + (d,), left - d, slots - 1)

        fill((), total, n)
        block.sort(key=lambda k: tuple(-x for x in k))
        basis.extend(block)
    basis = tuple(basis)
    index = MappingProxyType({k: i for i, k in enumerate(basis)})
    degrees = [mi_degree(k) for k in basis]
    ends = tuple(bisect_left(degrees, d) for d in range(degree_bound + 2))
    return basis, index, ends


class FockMatrix(SparseMatrix):
    """Sparse operator matrix on the truncated Fock basis.

    Entries are exact scalars or polynomials in t, keyed by (row, column)
    positions in the shared basis of the space.
    """

    __slots__ = ("n", "degree_bound", "basis", "index", "entries", "_columns")

    def __init__(self, n, degree_bound, entries=None):
        basis, index, _ = _space(n, degree_bound)
        cleaned = {pos: v for pos, v in (entries or {}).items() if v}
        self._fill(n, degree_bound, basis, index, cleaned, None)

    @classmethod
    def identity(cls, n, degree_bound):
        size = len(_space(n, degree_bound)[0])
        return cls(n, degree_bound, {(i, i): gr(1) for i in range(size)})

    @property
    def shape(self):
        return len(self.basis), len(self.basis)

    def _like(self, entries, shape=None):
        """A matrix on this space from entries that hold no zero, wrapped as
        they are: the space is not looked up and nothing is re-filtered. Every
        operator on the space is square, so the shape adds nothing."""
        out = object.__new__(FockMatrix)
        out._fill(self.n, self.degree_bound, self.basis, self.index, entries, None)
        return out

    def _check(self, other, op):
        if (self.n, self.degree_bound) != (other.n, other.degree_bound):
            raise ValueError("operators live on different truncated spaces")
        return True

    def restrict(self, max_degree: int) -> "FockMatrix":
        """Drop every entry whose row or column exceeds the given degree."""
        # the basis is graded, so the states of degree <= max_degree are a prefix
        ends = _space(self.n, self.degree_bound)[2]
        size = ends[min(max(max_degree + 1, 0), self.degree_bound + 1)]
        entries = {
            (r, c): v for (r, c), v in self.entries.items() if r < size and c < size
        }
        return self._like(entries)

    def apply(self, vector: dict) -> dict:
        """Apply to a sparse vector keyed by multi-index."""
        cols = self._columns
        if cols is None:
            # built on first use and kept: the matrix is immutable
            cols = {}
            for (r, c), value in self.entries.items():
                cols.setdefault(c, []).append((self.basis[r], value))
            object.__setattr__(self, "_columns", cols)
        index = self.index
        return _sum_into(
            {},
            (
                (mi, value * coeff)
                for k, coeff in vector.items()
                for mi, value in cols.get(index[k], ())
            ),
        )

    def eval_at(self, tau) -> dict:
        """The nonzero values of the entries at an exact weight, an int or a
        Fraction (anything else raises TypeError), as {(row, col): Fraction}.

        Each entry is a polynomial in t alone; its t-coefficients are summed
        against the powers of the weight, computed once per matrix, in
        integers over a common denominator that is reduced once per entry.
        """
        # the two-argument form takes exact rationals only, not a float
        tau = Fraction(tau, 1)
        out = {}
        # (numerator, denominator) of tau^e
        powers = [(1, 1)]
        for pos, poly in self.entries.items():
            num, den = 0, 1
            for e, coeff in poly.powers_of(TAU_NAME):
                while len(powers) <= e:
                    p, q = powers[-1]
                    powers.append((p * tau.numerator, q * tau.denominator))
                a, d = coeff.as_integer_ratio()
                p, q = powers[e]
                a, d = a * p, d * q
                g = gcd(den, d)
                num, den = num * (d // g) + a * (den // g), den // g * d
            if num:
                out[pos] = Fraction(num, den)
        return out


def build_combinatorial(n: int, degree_bound: int, kind: str, j: int) -> FockMatrix:
    """The shift operators: kind "raise" appends to slot j with coefficient 1,
    kind "lower" removes one from slot j with coefficient k_j."""
    if degree_bound < 1:
        raise ValueError("the truncation degree must be at least 1")
    if not 1 <= j <= n:
        raise ValueError("slot index out of range")
    basis, index, _ = _space(n, degree_bound)
    entries = {}
    for col, k in enumerate(basis):
        if kind == "raise":
            if mi_degree(k) < degree_bound:
                entries[(index[_shift(k, j, 1)], col)] = gr(1)
        elif kind == "lower":
            if k[j - 1] > 0:
                entries[(index[_shift(k, j, -1)], col)] = gr(k[j - 1])
        else:
            raise ValueError(f"unknown shift kind {kind!r}")
    return FockMatrix(n, degree_bound, entries)


@dataclass(frozen=True)
class HatFamily(SoAlgebra):
    """The so(n,2) generators on the truncated Fock space, weight symbolic,
    with the shift operators V_j they are built from. R_j is the raising
    shift itself."""

    degree_bound: int
    lowering: tuple

    def shift_lower(self, j: int) -> FockMatrix:
        if not 1 <= j <= self.n:
            raise ValueError(f"shift index {j} out of range 1..{self.n}")
        return self.lowering[j - 1]


@cache
def build_hat(n: int, degree_bound: int) -> HatFamily:
    """Ladder and rotation operators as polynomials in the shift operators.

    L_j is t V_j + 2 (R_l V_l) V_j - R_j V.V; berezin.bessel_form_check
    reports whether it equals rho0 V_j - R_j V.V. Only the grading is
    asserted: every entry of R_j raises the degree by exactly 1, of L_j
    lowers it by exactly 1, and of rho0 and rho_jk keeps it.
    Built and checked once per (n, D) and shared: the family is immutable.
    """
    if degree_bound < 2:
        raise ValueError("need truncation degree at least 2")
    raising = tuple(
        build_combinatorial(n, degree_bound, "raise", j) for j in range(1, n + 1)
    )
    lowering = tuple(
        build_combinatorial(n, degree_bound, "lower", j) for j in range(1, n + 1)
    )
    number = dot(raising, lowering)
    vsq = dot(lowering, lowering)
    identity = FockMatrix.identity(n, degree_bound)
    rho0 = TAU * identity + 2 * number

    def ladder(j):
        vj = lowering[j - 1]
        return TAU * vj + 2 * (number * vj) - raising[j - 1] * vsq

    generators = generator_table(
        n,
        lambda j: raising[j - 1],
        ladder,
        rho0,
        lambda j, k: raising[j - 1] * lowering[k - 1] - raising[k - 1] * lowering[j - 1],
    )
    degree = [mi_degree(k) for k in identity.basis]
    for label, matrix in generators.items():
        grade = {"R": 1, "L": -1}.get(label[0], 0)
        if any(degree[r] - degree[c] != grade for r, c in matrix.entries):
            raise AssertionError(f"{label}^ does not move the degree by {grade}")
    return HatFamily(n, generators, identity, degree_bound, lowering)


def restricted_family(hat: HatFamily, max_degree: int) -> SoAlgebra:
    """The generators and identity of the family with every entry whose row
    or column exceeds max_degree dropped.

    Every generator moves the degree by exactly its grade (asserted by
    build_hat), so an entry of a product of generators between states of
    degree <= max_degree - 1 sums only over intermediate states of degree
    <= max_degree: there the restricted product equals the full one.
    """
    generators = {
        label: matrix.restrict(max_degree) for label, matrix in hat.generators.items()
    }
    return SoAlgebra(
        hat.n, MappingProxyType(generators), hat.identity.restrict(max_degree)
    )


def vacuum_vector(n: int) -> dict:
    return {(0,) * n: gr(1)}


def verify_hat_relations(n: int, degree_bound: int) -> Report:
    """Every bracket identity of the realization, exactly, on interior blocks.

    Interior means rows and columns of degree at most D-2, where a single
    raising step can never have touched the truncation boundary. The
    brackets are formed from the generators restricted to degree <= D-1:
    each generator moves the degree by exactly its grade, so a product's
    entry on the interior block only sums over states of degree <= D-1,
    and there the restricted brackets equal the full ones.
    """
    if degree_bound < 3:
        raise ValueError("need truncation degree at least 3")
    hat = build_hat(n, degree_bound)
    interior = degree_bound - 2
    checks = bracket_checks(
        restricted_family(hat, degree_bound - 1),
        "^",
        lambda a, b: a.restrict(interior) == b.restrict(interior),
    )
    # a row whose block holds no basis state has shown nothing, so it fails;
    # the block is read through the restrict call its comparison makes
    empty = "no basis state compared"
    if not hat.identity.restrict(interior).entries:
        checks = [CheckResult(c.name, False, empty) for c in checks]
    # interior shift-operator commutator
    one = hat.identity.restrict(degree_bound - 1)
    for j in range(1, n + 1):
        comm = commutator(hat.shift_lower(j), hat.R(j))
        same = bool(one.entries) and comm.restrict(degree_bound - 1) == one
        name = f"[V{j}, R{j}] = 1 (interior)"
        checks.append(CheckResult(name, same, "" if one.entries else empty))
    # vacuum axioms
    omega = vacuum_vector(n)
    ok = all(not hat.L(j).apply(omega) for j in range(1, n + 1))
    checks.append(CheckResult("L^ annihilates the vacuum", ok))
    rho0_omega = hat.rho0.apply(omega)
    checks.append(
        CheckResult(
            "rho0^ vacuum eigenvalue is t",
            rho0_omega == {(0,) * n: TAU},
        )
    )
    ok = all(
        not hat.rho(j, k).apply(omega)
        for j in range(1, n + 1)
        for k in range(j + 1, n + 1)
    )
    checks.append(CheckResult("rotations annihilate the vacuum", ok))
    return Report(f"hat realization relations (n={n}, D={degree_bound})", checks)


@cache
def gram_matrix(n: int, degree_bound: int) -> FockMatrix:
    """Pairings of basis states of degree <= D, entries polynomial in t.

    G[k][m] = k! m! [w^k v^m] of the Leibniz series, held as a FockMatrix
    on the shared space whose entries are a read-only mapping. The entries
    vanish between different degrees, the vacuum entry is 1, and the table
    is symmetric: all three are asserted on build. Built once per (n, D)
    and shared: the table is immutable.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    # uncached: the table is kept per key, its generating series is not
    series = series_power(leibniz_base(n), weight_exponent(None), degree_bound)
    basis, index, _ = _space(n, degree_bound)
    entries = {}
    for k, cofactor in series.split_index("w", n).items():
        for m, poly in cofactor.split_index("v", n).items():
            if mi_degree(k) <= degree_bound and mi_degree(m) <= degree_bound:
                entries[(index[k], index[m])] = mi_factorial(k) * mi_factorial(m) * poly
    # the vacuum is the first basis state
    if entries.get((0, 0)) != 1:
        raise AssertionError("vacuum pairing is not 1")
    for (r, c), poly in entries.items():
        if mi_degree(basis[r]) != mi_degree(basis[c]):
            raise AssertionError("pairing connects different degrees")
        if entries.get((c, r)) != poly:
            raise AssertionError("pairing table is not symmetric")
    # every entry is nonzero, so the table is wrapped as built, read-only
    return FockMatrix(n, degree_bound)._like(MappingProxyType(entries))


def pair(gram: FockMatrix, left: dict, right: dict):
    """Bilinear pairing sum_{k,m} left_k G[k][m] right_m (no conjugation)."""
    index, entries = gram.index, gram.entries
    right_at = [(index[m], b) for m, b in right.items()]
    acc = MultiPoly.zero()
    for k, a in left.items():
        i = index[k]
        for j, b in right_at:
            g = entries.get((i, j))
            if g is not None:
                acc = acc + a * g * b
    return acc


def verify_adjointness(n: int, degree_bound: int) -> Report:
    """transpose(L^) G = G R^, and the symmetric/skew statements for the
    rotations, as polynomial identities on degrees <= D-1.

    Both sides are computed from the generators and the Gram table
    restricted to degree <= D-1. The table is block-diagonal by degree
    (asserted by gram_matrix), so an entry of either product between states
    of degree <= D-1 sums only over states of degree <= D-1: there the
    restricted products equal the full ones.
    """
    if degree_bound < 2:
        raise ValueError("need truncation degree at least 2")
    cut = degree_bound - 1
    hat = restricted_family(build_hat(n, degree_bound), cut)
    g = gram_matrix(n, degree_bound).restrict(cut)
    checks = []
    for j in range(1, n + 1):
        lhs, rhs = hat.L(j).transpose() * g, g * hat.R(j)
        checks.append(CheckResult(f"L{j}^* pairs as R{j}^", lhs == rhs))
    lhs, rhs = hat.rho0.transpose() * g, g * hat.rho0
    checks.append(CheckResult("rho0^ is symmetric for the pairing", lhs == rhs))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lhs, rhs = hat.rho(j, k).transpose() * g, -(g * hat.rho(j, k))
            name = f"{rotation_label(j, k)}^ is skew for the pairing"
            checks.append(CheckResult(name, lhs == rhs))
    return Report(f"pairing adjointness (n={n}, D={degree_bound})", checks)


@dataclass(frozen=True)
class PositivityProbe:
    """Exact verdict with (label, pivot) pairs, and the Fraction matrices it
    was read from: `blocks` holds the components of the table's nonzero
    pattern at the weight (see probe_components). A Gram probe labels each
    pivot with its row's degree; a moment probe labels every pivot 0.
    The float view is display only: a certified lower bound computed on read.
    """

    positive_definite: bool
    pivots: tuple
    blocks: tuple = field(repr=False)

    @cached_property
    def float_min_eigenvalue(self) -> float:
        """A float f with f <= lam <= f + 2**-39 * r, where lam is the least
        eigenvalue of the blocks and r their largest absolute row sum.

        lam > x exactly when each block - x I is positive definite (Sylvester's
        law of inertia), so 40 halvings of a bracket at most r wide, [0, least
        diagonal entry] for a positive-definite verdict and [Gershgorin bound,
        min(0, least diagonal entry)] otherwise, close in on lam from below.
        """
        rows = [(i, row) for b in self.blocks for i, row in enumerate(b)]
        hi = min(row[i] for i, row in rows)
        gershgorin = min(row[i] + abs(row[i]) - sum(map(abs, row)) for i, row in rows)
        lo, hi = (Fraction(0), hi) if self.positive_definite else (gershgorin, min(hi, 0))
        for _ in range(40):
            mid = (lo + hi) / 2
            shifted = (
                [row[:i] + (row[i] - mid,) + row[i + 1 :] for i, row in enumerate(b)]
                for b in self.blocks
            )
            positive = all(is_positive_definite(m)[0] for m in shifted)
            lo, hi = (mid, hi) if positive else (lo, mid)
        value = float(lo)
        return value if Fraction(value) <= lo else nextafter(value, -inf)


def probe_components(values: dict, labels) -> PositivityProbe:
    """Exact verdict of a symmetric Fraction matrix given by its nonzero
    entries {(row, col): value}, each pivot paired with its row's label.

    Every stored entry joins its row and column; each connected component,
    listed by its first row, gets its own exact LDL on its rows, with
    Fraction(0) in every absent cell, and the matrix is positive definite
    exactly when every component is. The r-th pivot of a component stands
    at the position of its r-th row. Where the elimination of a block of
    rows would take them in order (no leading minor vanishes), these are the
    block's pivots, since the leading minors factor over the components.
    """
    parent = list(range(len(labels)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, c in values:
        a, b = root(r), root(c)
        if a != b:
            parent[max(a, b)] = min(a, b)
    # a root is its component's first row
    components = {}
    for i in range(len(parent)):
        components.setdefault(root(i), []).append(i)
    zero = Fraction(0)
    verdict = True
    placed = []
    kept = []
    for rows in components.values():
        part = tuple(tuple(values.get((i, j), zero) for j in rows) for i in rows)
        ok, piv = is_positive_definite(part)
        verdict = verdict and ok
        placed.extend(zip(rows, piv))
        kept.append(part)
    # rows are distinct, so the sort never compares pivots
    pivots = tuple((labels[i], p) for i, p in sorted(placed))
    return PositivityProbe(verdict, pivots, tuple(kept))


def positivity_probe(n: int, degree_bound: int, tau) -> PositivityProbe:
    """Exact LDL of the pairing table's nonzero values at an exact weight
    (eval_at), one per component (probe_components), each pivot labeled
    with its row's degree.

    This is an empirical probe of the given weight only; it makes no claim
    about the set of weights with a positive pairing.
    """
    gram = gram_matrix(n, degree_bound)
    labels = [mi_degree(k) for k in gram.basis]
    return probe_components(gram.eval_at(tau), labels)


def coherent_vector(n: int, degree_bound: int, prefix: str) -> dict:
    """Truncated coherent state sum_k prefix^k / k! |k>, symbolic components."""
    names = [f"{prefix}{j}" for j in range(1, n + 1)]
    return {
        k: MultiPoly({tuple(zip(names, k)): Fraction(1, mi_factorial(k))})
        for k in multi_indices(n, degree_bound)
    }


def series_duality_check(n: int, degree_bound: int) -> Report:
    """Pairing of two truncated coherent vectors reproduces the Leibniz series."""
    gram = gram_matrix(n, degree_bound)
    left = coherent_vector(n, degree_bound, "w")
    right = coherent_vector(n, degree_bound, "v")
    got = pair(gram, left, right)
    expected = leibniz_closed_form(n, degree_bound)
    passed = got == expected
    return Report(
        f"series/operator duality (n={n}, D={degree_bound})",
        [CheckResult("coherent pairing equals the Leibniz series", passed)],
    )


def number_grading_check(n: int, degree_bound: int) -> Report:
    """rho0^ is t plus twice the degree, exactly, on every basis state."""
    rho0 = build_hat(n, degree_bound).rho0
    diagonal = {(i, i): TAU + 2 * mi_degree(k) for i, k in enumerate(rho0.basis)}
    ok = rho0 == FockMatrix(n, degree_bound, diagonal)
    return Report(
        f"number grading (n={n}, D={degree_bound})",
        [CheckResult("rho0^ eigenvalue on degree d is t + 2d", ok)],
    )
