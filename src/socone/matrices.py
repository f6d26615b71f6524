"""Exact matrices that keep only their nonzero entries, plus the exact helpers
built on them.

SparseMatrix is the ring both realizations share: DenseMatrix, the
(n+2) x (n+2) matrices, and fock.FockMatrix, the truncated Fock operators.
Entries are GaussianRational or MultiPoly; the two mix freely. Both lie
in an integral domain, so a product of nonzero values is nonzero. An
absent entry is an exact zero, and no operation stores a zero. Products
index the right operand by row (Gustavson, ACM TOMS 4 (1978)). Matrices
are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import add, mul

from .poly import MultiPoly
from .scalars import ZERO, GaussianRational

_SCALARS = (int, Fraction, GaussianRational, MultiPoly)


class NotNilpotentError(ValueError):
    pass


def _coerce_entry(value):
    if isinstance(value, (GaussianRational, MultiPoly)):
        return value
    return GaussianRational.coerce(value)


def _sum_into(acc: dict, items) -> dict:
    """Add each (key, value) of items into acc and return acc; a sum that
    vanishes is deleted, so acc never holds a zero."""
    for key, value in items:
        old = acc.get(key)
        s = value if old is None else old + value
        if s:
            acc[key] = s
        elif old is not None:
            del acc[key]
    return acc


class SparseMatrix:
    """The ring on matrices whose `entries` map (row, column) to a nonzero value.

    A subclass supplies its space: `shape` as (rows, cols), `_like(entries,
    shape)` to wrap entries that hold no zero on that space (shape None keeps
    its own), and `_check(other, op)`, which is True when the operands fit
    and otherwise raises ValueError or, for an equality it can answer, is
    False.
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
        return self._like(_sum_into(dict(self.entries), other.entries.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({p: -v for p, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other, "product")
            by_row = {}
            for (r, c), value in other.entries.items():
                by_row.setdefault(r, []).append((c, value))
            entries = _sum_into(
                {},
                (
                    ((i, c), a * b)
                    for (i, j), a in self.entries.items()
                    for c, b in by_row.get(j, ())
                ),
            )
            return self._like(entries, (self.shape[0], other.shape[1]))
        if isinstance(other, _SCALARS):
            # entries and scalars lie in an integral domain: only a zero
            # factor makes a product vanish
            if not other:
                return self._like({})
            return self._like({p: v * other for p, v in self.entries.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # neither side stores a zero, so equal matrices have equal keys
        return self._check(other, "equality") and self.entries == other.entries

    __hash__ = None

    @property
    def is_zero(self):
        return not self.entries

    def transpose(self):
        entries = {(c, r): v for (r, c), v in self.entries.items()}
        return self._like(entries, self.shape[::-1])


class DenseMatrix(SparseMatrix):
    """A rows x cols matrix, built from and read as dense rows."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data):
        data = [[_coerce_entry(e) for e in row] for row in data]
        if not data or not data[0]:
            raise ValueError("matrices must have at least one row and column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        entries = {
            (i, j): e for i, row in enumerate(data) for j, e in enumerate(row) if e
        }
        self._fill(len(data), len(data[0]), entries)

    def _like(self, entries, shape=None):
        out = object.__new__(DenseMatrix)
        out._fill(*(shape or self.shape), entries)
        return out

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


def linear_combination(coeffs, matrices) -> DenseMatrix:
    """sum_k coeffs[k] * matrices[k] for dense matrices of one shape, in one
    pass over their nonzero entries."""
    coeffs = [_coerce_entry(c) for c in coeffs]
    matrices = list(matrices)
    if not matrices or len(coeffs) != len(matrices):
        raise ValueError("need one coefficient per matrix, and at least one matrix")
    first = matrices[0]
    if any(m.shape != first.shape for m in matrices):
        raise ValueError("dimension mismatch in linear combination")
    terms = (
        (p, c * v) for c, m in zip(coeffs, matrices) if c for p, v in m.entries.items()
    )
    return first._like(_sum_into({}, terms))


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


def exp_nilpotent_apply(m: DenseMatrix, vector) -> tuple:
    """exp(m) applied to a column vector, by matrix-vector products only.

    Sums m**k v / k! while the iterates are nonzero and raises
    NotNilpotentError if m**rows v is not exactly zero, so no truncation can
    ever happen silently. Equals exp_nilpotent(m).apply(vector).
    """
    if not m.is_square:
        raise ValueError("exp_nilpotent_apply needs a square matrix")
    acc = tuple(_coerce_entry(e) for e in vector)
    term = acc
    for k in range(1, m.rows + 1):
        term = m.apply(term)
        if not any(term):
            return acc
        if k == m.rows:
            raise NotNilpotentError("matrix is not nilpotent")
        scale = Fraction(1, factorial(k))
        acc = tuple(a + t * scale if t else a for a, t in zip(acc, term))
    return acc


def exact_ldl(matrix):
    """Exact LDL pivots of a symmetric matrix of Fractions.

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
    """
    a = [list(map(Fraction, row)) for row in matrix]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("matrix must be square")
    for i in range(size):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    scale = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in a]
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
    """Exact positive-definiteness verdict and pivot list for Fractions."""
    pivots, completed = exact_ldl(matrix)
    verdict = completed and len(pivots) == len(matrix) and all(p > 0 for p in pivots)
    return verdict, pivots
