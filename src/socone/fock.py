"""Degree-truncated Fock space, shift operators, the hat realization, the
Gram table (integer cells built once per (n, D), held as t-slices by
gram_matrix and read by gram_at, in t or at an exact weight), and exact
positivity probes.

The hat realization is the so(n,2) generator interface of algebra.SoAlgebra
on truncated Fock operators: HatFamily reads labels, brackets, words and
observables through it and adds only the truncation degree and the
lowering shifts V_j.

A Fock operator is held only as t-slices, sum_e t^e S_e, the graded parts
of the ring matrices.SparseMatrix shares with DenseMatrix: a hat generator
is A + t B in integers, and the Gram table the slices of its integer
cells. A Fock vector is an operator column: the vacuum is the projector
onto the vacuum state, and X^k vacuum a product. The bracket, adjointness,
lowering-form and vacuum rows compare products of slices, and
pairing_series reads the coherent pairing <psi_w, Q psi_v> off the slices
of G Q. The one polynomial table is the printed Gram table,
gram_at(n, D, None).

Basis states are multi-indices (k_1..k_n) of total degree at most D in
graded lexicographic order; one basis, index and block layout serves every
operator on a truncated space (n, D). A raise out of the truncated space is
dropped, and every relation check compares interior blocks, where the
truncation cannot leak, so each reported identity is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from math import factorial, inf, nextafter
from types import MappingProxyType

from .algebra import SoAlgebra, bracket_checks, generator_table, rotation_label
from .matrices import SparseMatrix, _numerators, commutator, dot
from .matrices import is_positive_definite
from .poly import MultiPoly, TAU, _group_mask, _make, _pack
from .poly import series_power_numerators, weight_exponent
from .report import CheckResult, Report, reading_check
from .scalars import _reduced, gr
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
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    blocks = [_block(total, n) for total in range(degree_bound + 1)]
    basis = tuple(k for block in blocks for k in block)
    index = MappingProxyType({k: i for i, k in enumerate(basis)})
    return basis, index, tuple(accumulate(map(len, blocks), initial=0))


def _block(total: int, slots: int) -> list:
    """The multi-indices of length slots >= 1 and degree total, first slot
    largest first, then the next, and so on."""
    if slots == 1:
        return [(total,)]
    return [
        (d,) + rest for d in range(total, -1, -1) for rest in _block(total - d, slots - 1)
    ]


class FockMatrix(SparseMatrix):
    """Sparse operator on the truncated Fock basis, held as t-slices.

    The parts of matrices.SparseMatrix are the powers of t: slices[e] maps
    (row, column) positions in the shared basis to the nonzero coefficient
    of t^e, an int (a GaussianRational only where a rational or complex
    scalar entered). The ring is SparseMatrix's; this class adds the space,
    a scalar split into its powers of t, and restrict.
    """

    __slots__ = ("n", "degree_bound", "basis", "index", "slices")

    def __init__(self, n, degree_bound, entries=None):
        """The operator of entries {(row, col): exact scalar or polynomial in t}."""
        basis, index, _ = _space(n, degree_bound)
        self._fill(n, degree_bound, basis, index, _slices(entries or {}))

    @classmethod
    def identity(cls, n, degree_bound):
        size = len(_space(n, degree_bound)[0])
        return cls(n, degree_bound)._like({0: {(i, i): 1 for i in range(size)}})

    @property
    def shape(self):
        return len(self.basis), len(self.basis)

    def _like(self, slices, shape=None):
        """The operator sum_e t^e slices[e] on this space, wrapped as given:
        no slice may be empty and no value zero. Every operator on the space
        is square, so shape is ignored."""
        out = object.__new__(FockMatrix)
        out._fill(self.n, self.degree_bound, self.basis, self.index, slices)
        return out

    def _check(self, other, op):
        if (self.n, self.degree_bound) != (other.n, other.degree_bound):
            raise ValueError("operators live on different truncated spaces")
        return True

    @staticmethod
    def _scalar_parts(scalar):
        # a polynomial in t splits into its powers of t
        return {f: part[()] for f, part in _slices({(): scalar}).items()}

    def restrict(self, max_degree: int) -> "FockMatrix":
        """Drop every entry whose row or column exceeds the given degree."""
        # the basis is graded, so the states of degree <= max_degree are a prefix
        ends = _space(self.n, self.degree_bound)[2]
        size = ends[min(max(max_degree + 1, 0), self.degree_bound + 1)]
        return self._like({
            e: kept
            for e, part in self.slices.items()
            if (kept := {(r, c): v for (r, c), v in part.items() if r < size and c < size})
        })


def _slices(cells: dict) -> dict:
    """cells {key: exact scalar or polynomial in t alone} as the slices
    {e: {key: coefficient of t^e}}, an integral coefficient as an int; any
    other value raises."""
    (unit,), others = TAU.terms, ~_group_mask({"t"})
    slices = {}
    for key, value in cells.items():
        for word, c in MultiPoly.coerce(value).terms.items():
            if word & others:
                raise ValueError("a Fock operator entry is a polynomial in t alone")
            slices.setdefault(word // unit, {})[key] = c if c._b or c._d != 1 else c._a
    return slices


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
                entries[(index[_shift(k, j, 1)], col)] = 1
        elif kind == "lower":
            if k[j - 1] > 0:
                entries[(index[_shift(k, j, -1)], col)] = k[j - 1]
        else:
            raise ValueError(f"unknown shift kind {kind!r}")
    # D >= 1: the vacuum raises, and its raise lowers
    return FockMatrix(n, degree_bound)._like({0: entries})


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
    reports whether it equals rho0 V_j - R_j V.V. Each generator is A + t B
    in integer t-slices, formed from the integer shift matrices. Only the
    grading is asserted: every entry of R_j raises the degree by exactly 1,
    of L_j lowers it by exactly 1, and of rho0 and rho_jk keeps it.
    Built and checked once per (n, D) and shared: every operator of the
    family is read-only.
    """
    if degree_bound < 2:
        raise ValueError("need truncation degree at least 2")
    identity = FockMatrix.identity(n, degree_bound)
    raising = tuple(
        build_combinatorial(n, degree_bound, "raise", j) for j in range(1, n + 1)
    )
    lowering = tuple(
        build_combinatorial(n, degree_bound, "lower", j) for j in range(1, n + 1)
    )
    number = dot(raising, lowering)
    vsq = dot(lowering, lowering)
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
        if any(degree[r] - degree[c] != grade for p in matrix.slices.values() for r, c in p):
            raise AssertionError(f"{label}^ does not move the degree by {grade}")
    generators = MappingProxyType({label: _read_only(m) for label, m in generators.items()})
    lowering = tuple(map(_read_only, lowering))
    return HatFamily(n, generators, _read_only(identity), degree_bound, lowering)


def _read_only(matrix: FockMatrix) -> FockMatrix:
    """The operator with read-only slices, the outer map and each part: the
    form of every operator build_hat and gram_matrix cache and share."""
    slices = {e: MappingProxyType(part) for e, part in matrix.slices.items()}
    return matrix._like(MappingProxyType(slices))


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
    if hat.identity.restrict(interior).is_zero:
        checks = [CheckResult(c.name, False, empty) for c in checks]
    # interior shift-operator commutator
    one = hat.identity.restrict(degree_bound - 1)
    for j in range(1, n + 1):
        comm = commutator(hat.shift_lower(j), hat.R(j))
        same = not one.is_zero and comm.restrict(degree_bound - 1) == one
        name = f"[V{j}, R{j}] = 1 (interior)"
        checks.append(CheckResult(name, same, empty if one.is_zero else ""))
    # vacuum axioms, on the projector onto the vacuum state
    omega = FockMatrix(n, degree_bound, {(0, 0): 1})
    ok = all((hat.L(j) * omega).is_zero for j in range(1, n + 1))
    checks.append(CheckResult("L^ annihilates the vacuum", ok))
    ok = hat.rho0 * omega == TAU * omega
    checks.append(CheckResult("rho0^ vacuum eigenvalue is t", ok))
    ok = all(
        (hat.rho(j, k) * omega).is_zero for j in range(1, n + 1) for k in range(j + 1, n + 1)
    )
    checks.append(CheckResult("rotations annihilate the vacuum", ok))
    return Report(f"hat realization relations (n={n}, D={degree_bound})", checks)


@cache
def _gram_cells(n: int, degree_bound: int) -> tuple:
    """(rows, positions): the pairing table's cells in integers.

    G[k][m] = k! m! [w^k v^m] of the Leibniz series, truncated at w- and
    v-degree D: each integer numerator c t^e w^k v^m over den that
    series_power_numerators makes is scaled by k! m! into its cell, and the
    cells are divided by den. The cells are asserted to be 1 at the vacuum,
    0 between different degrees, symmetric, and integer polynomials in t.
    rows holds each distinct nonzero cell once as (c_top, ..., c_0), the
    cell being sum_e c_e t^e; positions pairs each position, in entry
    order, with its row: at (4, 4), 292 positions share 23 rows.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    basis = _space(n, degree_bound)[0]
    base, exponent = leibniz_base(n), weight_exponent(None)
    (series, _), den = series_power_numerators(base, exponent, degree_bound)
    groups = ([f"{g}{j}" for j in range(1, n + 1)] for g in "wv")
    row_of, col_of = ({_pack(zip(names, k)): i for i, k in enumerate(basis)} for names in groups)
    w_mask, v_mask = _group_mask({"w"}), _group_mask({"v"})
    (unit,) = TAU.terms
    scale = [mi_factorial(k) for k in basis]
    cells = {}
    for word, c in series.items():
        if c:
            # a word's w and v parts name the cell; the rest is t^e, e units
            w, v = word & w_mask, word & v_mask
            r, col = row_of[w], col_of[v]
            cells.setdefault((r, col), {})[(word - w - v) // unit] = c * scale[r] * scale[col]
    # the vacuum is the first basis state
    if cells.get((0, 0)) != {0: den}:
        raise AssertionError("vacuum pairing is not 1")
    for (r, c), cell in cells.items():
        if mi_degree(basis[r]) != mi_degree(basis[c]):
            raise AssertionError("pairing connects different degrees")
        if cells.get((c, r)) != cell:
            raise AssertionError("pairing table is not symmetric")
    rows, positions = {}, []
    for pos, cell in cells.items():
        coeffs = tuple(cell.get(e, 0) for e in range(max(cell), -1, -1))
        positions.append((pos, rows.setdefault(coeffs, len(rows))))
    # each cell is <vacuum, L^k R^m vacuum>, and L^ and R^ are integer
    if any(c % den for row in rows for c in row):
        raise AssertionError("a pairing cell is not an integer polynomial in t")
    return tuple(tuple(c // den for c in row) for row in rows), tuple(positions)


@cache
def gram_matrix(n: int, degree_bound: int) -> FockMatrix:
    """Pairings of basis states of degree <= D, polynomial in t: the integer
    t-slices of _gram_cells. Built once per (n, D) and shared: the table is
    read-only.
    """
    rows, positions = _gram_cells(n, degree_bound)
    slices = {}
    for pos, k in positions:
        for e, c in enumerate(reversed(rows[k])):
            if c:
                slices.setdefault(e, {})[pos] = c
    return _read_only(FockMatrix(n, degree_bound)._like(slices))


def gram_at(n: int, degree_bound: int, tau) -> MappingProxyType | dict:
    """The nonzero values of the pairing table, as {(row, col): value}: in
    t when tau is None, else at an exact weight, an int or a Fraction
    (anything else raises TypeError).

    In t the values are one MultiPoly per distinct cell of _gram_cells,
    shared by the positions that hold it, made once per (n, D) and kept in
    a read-only mapping. At tau = p/q a cell is sum_e c_e p^e q^(top - e) /
    q^top: one integer Horner pass per distinct cell, and one Fraction for
    each that does not vanish, shared by the positions that hold it.
    """
    if tau is None:
        return _gram_polynomials(n, degree_bound)
    rows, positions = _gram_cells(n, degree_bound)
    # the two-argument form takes exact rationals only, not a float
    tau = Fraction(tau, 1)
    p, q = tau.numerator, tau.denominator
    q_powers = [q**e for e in range(max(map(len, rows)))]
    values = []
    for coeffs in rows:
        acc = 0
        for c, qe in zip(coeffs, q_powers):
            acc = acc * p + c * qe
        values.append(Fraction(acc, q_powers[len(coeffs) - 1]) if acc else None)
    return {pos: v for pos, k in positions if (v := values[k]) is not None}


@cache
def _gram_polynomials(n: int, degree_bound: int) -> MappingProxyType:
    """gram_at(n, D, None): each distinct cell as one MultiPoly in t."""
    rows, positions = _gram_cells(n, degree_bound)
    (unit,) = TAU.terms
    polys = [_make({e * unit: gr(c) for e, c in enumerate(reversed(r)) if c}) for r in rows]
    return MappingProxyType({pos: polys[k] for pos, k in positions})


def pairing_series(op: FockMatrix) -> MultiPoly:
    """sum_e sum_(k,m) S_e[k, m] t^e w^k v^m / (k! m!) over the t-slices S_e
    of op, one term per stored entry. With psi_v = sum_k v^k/k! |k>, for
    op = G Q this is the coherent pairing <psi_w, Q psi_v>."""
    (unit,), basis = TAU.terms, op.basis
    names = [[f"{g}{j}" for j in range(1, op.n + 1)] for g in "wv"]
    cells, terms = {}, {}
    for e, part in op.slices.items():
        for pos, x in part.items():
            if (cell := cells.get(pos)) is None:
                k, m = basis[pos[0]], basis[pos[1]]
                word = _pack(zip(names[0], k)) + _pack(zip(names[1], m))
                cell = cells[pos] = word, mi_factorial(k) * mi_factorial(m)
            re, im, d = _numerators(x)
            terms[e * unit + cell[0]] = _reduced(re, im, d * cell[1])
    return _make(terms)


def verify_adjointness(n: int, degree_bound: int) -> Report:
    """transpose(L^) G = G R^, and the symmetric/skew statements for the
    rotations, as polynomial identities on degrees <= D-1, compared per
    power of t: with L^ = A + t B, A^T G_e + B^T G_(e-1) against G_e R^, in
    integer t-slices.

    Both sides are computed from the generators and the Gram table
    restricted to degree <= D-1. The table is block-diagonal by degree
    (asserted by _gram_cells), so an entry of either product between states
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
        lower, raising = hat.L(j), hat.R(j)
        same = lower.transpose() * g == g * raising
        checks.append(reading_check(f"L{j}^* pairs as R{j}^", same, [lower, raising]))
    same = hat.rho0.transpose() * g == g * hat.rho0
    checks.append(reading_check("rho0^ is symmetric for the pairing", same, [hat.rho0]))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            rho = hat.rho(j, k)
            name = f"{rotation_label(j, k)}^ is skew for the pairing"
            checks.append(reading_check(name, rho.transpose() * g == -(g * rho), [rho]))
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

    Every stored off-diagonal entry joins its row and column; each
    connected component, listed by its first row, gets its own exact LDL on
    its rows, with Fraction(0) in every absent cell, and the matrix is
    positive definite exactly when every component is. The r-th pivot of a
    component stands at the position of its r-th row. Where the elimination
    of a block of rows would take them in order (no leading minor vanishes),
    these are the block's pivots, since the leading minors factor over the
    components.
    """
    parent = list(range(len(labels)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, c in values:
        if r != c:
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
    (gram_at, read from the integer cells: no polynomial table is made),
    one per component (probe_components), each pivot labeled with its
    row's degree.

    This is an empirical probe of the given weight only; it makes no claim
    about the set of weights with a positive pairing.
    """
    labels = [mi_degree(k) for k in _space(n, degree_bound)[0]]
    values = gram_at(n, degree_bound, Fraction(tau, 1))
    return probe_components(values, labels)


def series_duality_check(n: int, degree_bound: int) -> Report:
    """The coherent pairing of the truncated space, read off the Gram
    table's slices, reproduces the Leibniz series."""
    got = pairing_series(gram_matrix(n, degree_bound))
    passed = got == leibniz_closed_form(n, degree_bound)
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
