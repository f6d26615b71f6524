"""Exact matrices that keep only their nonzero entries, plus the exact helpers
built on them.

SparseMatrix is the one ring of both matrix kinds: DenseMatrix, the
(n+2) x (n+2) matrices, and fock.FockMatrix, the truncated Fock operators.
A matrix is held as graded parts, sum_e t^e slices[e], each part a map
{(row, column): nonzero value}; a DenseMatrix is the single part 0, whose
GaussianRational and MultiPoly values mix freely. The values lie in an
integral domain, so a product of nonzero values is nonzero. An absent
entry is an exact zero, and no operation stores a zero or an empty part.
A product is one Gustavson product per pair of parts, the right part
indexed by row (Gustavson, ACM TOMS 4 (1978)); the kinds differ only in
the parts a scalar factor contributes. Matrices are immutable after
construction. numerator_stack clears a family of square matrices once into
integer rows; exp_combination_cleared forms exp(A) x for a combination A of
the family from those rows, clearing only the coefficients per call and
never forming A.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import add, mul
from types import MappingProxyType

from .poly import MultiPoly, _sum_into
from .scalars import ZERO, GaussianRational, I, _cleared, _reduced

_SCALARS = (int, Fraction, GaussianRational, MultiPoly)
_EMPTY = MappingProxyType({})
_STACK_MISMATCH = "need a coefficient per matrix, each K x K for a K-vector"


class NotNilpotentError(ValueError):
    pass


def _coerce_entry(value):
    if isinstance(value, (GaussianRational, MultiPoly)):
        return value
    return GaussianRational.coerce(value)


class SparseMatrix:
    """The one ring of DenseMatrix and fock.FockMatrix: a matrix held as its
    graded parts, `slices` {e: {(row, column): nonzero value}}, no part
    empty, standing for sum_e t^e slices[e].

    A subclass supplies its space: `shape` as (rows, cols), `_like(slices,
    shape)` to wrap parts that hold no zero on that space (shape None keeps
    its own), `_check(other, op)`, which is True when the operands fit and
    otherwise raises ValueError or, for an equality it can answer, is False,
    and `_scalar_parts(scalar)`, the parts {f: c} of a scalar factor.
    """

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other, "addition")
        out = {e: part.copy() for e, part in self.slices.items()}
        for e, part in other.slices.items():
            if not _sum_into(out.setdefault(e, {}), part.items()):
                del out[e]
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({e: {p: -v for p, v in part.items()} for e, part in self.slices.items()})

    def __mul__(self, other):
        out, shape = {}, None
        if isinstance(other, type(self)):
            self._check(other, "product")
            shape = self.shape[0], other.shape[1]
            # the right parts indexed by row, for one Gustavson loop per pair
            right = []
            for f, part in other.slices.items():
                rows = {}
                for (r, c), b in part.items():
                    rows.setdefault(r, []).append((c, b))
                right.append((f, rows))
            for e, part in self.slices.items():
                for f, rows in right:
                    acc = out.setdefault(e + f, {})
                    for (i, j), a in part.items():
                        for c, b in rows.get(j, ()):
                            key = (i, c)
                            old = acc.get(key)
                            s = a * b if old is None else old + a * b
                            if s:
                                acc[key] = s
                            elif old is not None:
                                del acc[key]
        elif isinstance(other, _SCALARS):
            # the values lie in an integral domain: no product vanishes
            for f, c in self._scalar_parts(other).items():
                for e, part in self.slices.items():
                    _sum_into(out.setdefault(e + f, {}), ((p, v * c) for p, v in part.items()))
        else:
            return NotImplemented
        return self._like({e: p for e, p in out.items() if p}, shape)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # neither side stores a zero or an empty part, so equal matrices
        # have equal parts
        return self._check(other, "equality") and self.slices == other.slices

    __hash__ = None

    @property
    def is_zero(self):
        return not self.slices

    def transpose(self):
        swapped = {e: {(c, r): v for (r, c), v in p.items()} for e, p in self.slices.items()}
        return self._like(swapped, self.shape[::-1])


class DenseMatrix(SparseMatrix):
    """A rows x cols matrix, built from and read as dense rows: the part 0, read-only."""

    __slots__ = ("rows", "cols", "slices")

    def __init__(self, data):
        data = [[_coerce_entry(e) for e in row] for row in data]
        if not data or not data[0]:
            raise ValueError("matrices must have at least one row and column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        entries = {
            (i, j): e for i, row in enumerate(data) for j, e in enumerate(row) if e
        }
        self._fill(len(data), len(data[0]), {0: MappingProxyType(entries)} if entries else {})

    def _like(self, slices, shape=None):
        out = object.__new__(DenseMatrix)
        out._fill(*(shape or self.shape), {e: MappingProxyType(p) for e, p in slices.items()})
        return out

    @staticmethod
    def _scalar_parts(scalar):
        # a scalar multiplies each value as it is, a polynomial in t too
        return {0: scalar} if scalar else {}

    @property
    def entries(self) -> MappingProxyType:
        """{(row, col): nonzero value}: the part 0, read-only."""
        return self.slices.get(0, _EMPTY)

    def _check(self, other, op):
        if op == "product":
            fits = self.cols == other.rows
        else:
            fits = self.shape == other.shape
        if not fits and op != "equality":
            raise ValueError(f"dimension mismatch in matrix {op}")
        return fits

    @classmethod
    def zeros(cls, rows, cols=None):
        return cls([[0] * (rows if cols is None else cols)] * rows)

    @classmethod
    def identity(cls, size):
        return cls([[1 if i == j else 0 for j in range(size)] for i in range(size)])

    @property
    def shape(self):
        return self.rows, self.cols

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def data(self):
        """The rows as tuples, with the exact ZERO at every absent entry."""
        get = self.entries.get
        return tuple(
            tuple(get((i, j), ZERO) for j in range(self.cols)) for i in range(self.rows)
        )

    def apply(self, vector):
        """Matrix times a column vector given as a sequence; returns a tuple."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = _sum_into(
            {}, ((i, a * b) for (i, j), a in self.entries.items() if (b := vector[j]))
        )
        return tuple(out.get(i, ZERO) for i in range(self.rows))

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def dot(a, b):
    """a[0] b[0] + a[1] b[1] + ..., summed left to right, for two nonempty
    sequences whose items multiply and add: exact scalars, polynomials or
    matrices of one kind. The sum starts from the first product, not from a
    zero, so it stays in the products' own type."""
    return reduce(add, map(mul, a, b))


def commutator(a, b):
    """[a, b] = a b - b a for two matrices of one kind, dense or Fock; the
    products and the difference raise ValueError when the operands do not fit."""
    return a * b - b * a


def exp_nilpotent(m: DenseMatrix) -> DenseMatrix:
    """Exact exponential of a nilpotent matrix.

    Sums m**k / k! while the powers are nonzero and raises
    NotNilpotentError if m**rows is not exactly zero, so no truncation can
    ever happen silently.
    """
    if not m.is_square:
        raise ValueError("exp_nilpotent needs a square matrix")
    acc = DenseMatrix.identity(m.rows)
    power = acc
    for k in range(1, m.rows + 1):
        power = power * m
        if power.is_zero:
            return acc
        if k == m.rows:
            raise NotNilpotentError("matrix is not nilpotent")
        acc = acc + power * Fraction(1, factorial(k))
    return acc


def _numerators(value) -> tuple:
    """(re, im, d) with value = (re + i im) / d: the Gaussian-integer
    numerators of an exact number, and (value, 0, 1) for a polynomial."""
    if type(value) is GaussianRational:
        return value._a, value._b, value._d
    if isinstance(value, MultiPoly):
        return value, 0, 1
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    value = GaussianRational.coerce(value)
    return value._a, value._b, value._d


def pair_product(x, y) -> tuple:
    """(a + i b)(c + i e) as the pair (ac - be, ae + bc), forming no product
    with a zero factor and adding no zero."""
    (a, b), (c, e) = x, y
    re = a * c if a and c else 0
    im = a * e if a and e else 0
    if b and e:
        re = re - b * e if re else -(b * e)
    if b and c:
        im = im + b * c if im else b * c
    return re, im


def pair_dot(xs, ys) -> tuple:
    """sum_k xs[k] ys[k] over numerator pairs, adding no zero."""
    re = im = 0
    for p, q in map(pair_product, xs, ys):
        if p:
            re = re + p if re else p
        if q:
            im = im + q if im else q
    return re, im


def _divided(numerators, g) -> tuple:
    """x / g for each pair x and a nonzero Gaussian integer g: x times the
    conjugate of g, one exact value over the norm of g each."""
    conj, norm = (g[0], -g[1]), g[0] * g[0] + g[1] * g[1]
    return tuple(exact_value(*pair_product(x, conj), norm) for x in numerators)


def numerator_pairs(vector) -> tuple:
    """(pairs, d) with vector[k] = (re_k + i im_k) / d over the lcm d of the
    entries' denominators; a polynomial p is (p, 0) over 1."""
    return _cleared(map(_numerators, vector))


def exact_value(re, im, d):
    """(re + i im) / d: one reduced GaussianRational for integer numerators,
    a polynomial for polynomial ones."""
    if type(re) is type(im) is int:
        return _reduced(re, im, d)
    value = re + im * I if im else MultiPoly.coerce(re)
    return value if d == 1 else value * Fraction(1, d)


def exact_vector(pairs, d) -> tuple:
    """One exact_value per numerator pair over d."""
    return tuple(exact_value(re, im, d) for re, im in pairs)


def numerator_stack(matrices) -> tuple:
    """(size, rows, dens) for square matrices M_k of one size, each cleared
    once: row i lists (column, k, re, im) per nonzero entry (i, column) of
    M_k, whose value is (re + i im) / dens[k]."""
    matrices = tuple(matrices)
    if len({m.shape for m in matrices}) != 1 or not matrices[0].is_square:
        raise ValueError(_STACK_MISMATCH)
    rows, dens = [[] for _ in range(matrices[0].rows)], []
    for k, m in enumerate(matrices):
        pairs, d = _cleared(map(_numerators, m.entries.values()))
        for (i, j), (re, im) in zip(m.entries, pairs):
            rows[i].append((j, k, re, im))
        dens.append(d)
    return len(rows), tuple(map(tuple, rows)), tuple(dens)


def _rows_times(rows, term) -> list:
    """Cleared rows times a vector of numerator pairs, skipping zero parts."""
    out = []
    for row in rows:
        re = im = 0
        for j, a, b in row:
            c, e = term[j]
            if c:
                re, im = (re + a * c if a else re), (im + b * c if b else im)
            if e:
                re, im = (re - b * e if b else re), (im + a * e if a else im)
        out.append((re, im))
    return out


def exp_combination_cleared(coeffs, stack, pairs, d) -> tuple:
    """exp(A) x for A = sum_k coeffs[k] M_k, the M_k given as one
    numerator_stack of size K, and x = pairs / d, returned as (pairs,
    denominator); raises NotNilpotentError if A^K x is not exactly zero.
    Only the coefficients are cleared per call. With s the common
    denominator of A, A^m x / m! is (s A)^m x weighed by (K!/m!) s^(K-m)
    over K! s^K, so the loop makes integer multiply-adds that skip zero
    parts. A polynomial p is (p, 0) over 1: the loop uses only +, * and
    truth tests, so symbolic inputs run it unchanged.
    """
    size, stacked, dens = stack
    if len(coeffs) != len(dens) or len(pairs) != size:
        raise ValueError(_STACK_MISMATCH)
    cleared = [(a, b, f * g) for (a, b, f), g in zip(map(_numerators, coeffs), dens)]
    s = lcm(1, *(f for a, b, f in cleared if a or b))
    # coefficient k times s over its entries' denominator, None when it is 0:
    # a pair when it is complex, else its real numerator alone
    scaled = [
        (a * (s // f), b * (s // f)) if b else a * (s // f) if a else None
        for a, b, f in cleared
    ]
    rows = [
        [
            (j, *pair_product(c, (re, im)))
            if type(c) is tuple
            else (j, c * re if re else 0, c * im if im else 0)
            for j, k, re, im in row
            if (c := scaled[k])
        ]
        for row in stacked
    ]
    term = pairs
    weight = denominator = factorial(size) * s**size
    acc = [(a * weight, b * weight) for a, b in term]
    for m in range(1, size + 1):
        term = _rows_times(rows, term)
        if not any(x or y for x, y in term):
            break
        if m == size:
            raise NotNilpotentError("matrix is not nilpotent")
        weight //= m * s
        acc = [
            (p + x * weight if x else p, q + y * weight if y else q)
            for (p, q), (x, y) in zip(acc, term)
        ]
    return acc, denominator * d


def exact_ldl(matrix):
    """Exact LDL pivots of a symmetric matrix of ints or Fractions.

    Uses symmetric pivoting on the diagonal: each step takes the first
    nonzero diagonal entry of the remainder. Returns (pivots, completed):
    completed is False when a nonzero remainder has an all-zero diagonal,
    which already rules out positive definiteness. Pivots are Fractions,
    reported in elimination order; the verdict helpers below interpret them.

    The elimination is fraction-free (Bareiss, Math. Comp. 22 (1968)): the
    matrix is scaled to integers by the lcm L of its denominators, and after
    each step an entry of the remainder is the minor bordering the pivots
    eliminated so far, so the update divides exactly by the previous pivot
    minor prev. The Schur complement entry is that minor over prev * L.
    Entries are read through their numerator and denominator, never
    re-wrapped, and symmetry is checked on the scaled integers.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    scale = lcm(*(x.denominator for row in matrix for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]
    for i in range(size):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ValueError("matrix must be symmetric")
    remaining = list(range(size))
    pivots = []
    prev = 1
    while remaining:
        k = next((i for i in remaining if b[i][i]), None)
        if k is None:
            if any(b[i][j] for i in remaining for j in remaining):
                return pivots, False
            pivots.extend(Fraction(0) for _ in remaining)
            return pivots, True
        remaining.remove(k)
        p = b[k][k]
        pivots.append(Fraction(p, prev * scale))
        row_k = b[k]
        for x, i in enumerate(remaining):
            row_i, f = b[i], b[i][k]
            # the remainder stays symmetric: fill the upper triangle and
            # mirror it
            for j in remaining[x:]:
                v = (p * row_i[j] - f * row_k[j]) // prev
                row_i[j] = b[j][i] = v
        prev = p
    return pivots, True


def is_positive_definite(matrix) -> tuple:
    """Exact positive-definiteness verdict and pivot list for ints or Fractions."""
    pivots, completed = exact_ldl(matrix)
    verdict = completed and len(pivots) == len(matrix) and all(p > 0 for p in pivots)
    return verdict, pivots
