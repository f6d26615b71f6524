"""Small dense matrices over exact scalars, plus the exact helpers built on them.

Entries are GaussianRational or MultiPoly; the two mix freely. Matrices are
immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .poly import MultiPoly
from .scalars import ZERO, GaussianRational

_SCALARS = (int, Fraction, GaussianRational, MultiPoly)


class NotNilpotentError(ValueError):
    pass


def _coerce_entry(value):
    if isinstance(value, (GaussianRational, MultiPoly)):
        return value
    return GaussianRational.coerce(value)


class DenseMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(_coerce_entry(e) for e in row) for row in data)
        if not data or not data[0]:
            raise ValueError("matrices must have at least one row and column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))
        object.__setattr__(self, "data", data)

    @classmethod
    def _make(cls, data: tuple) -> "DenseMatrix":
        """Wrap a non-empty rectangular tuple of tuples of GaussianRational or
        MultiPoly entries, unchecked: the ring operations build every result
        through here, since their entries are already of those types."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))
        object.__setattr__(self, "data", data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise ValueError("matrices must have at least one row and column")
        return cls._make(((ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, size):
        return cls([[1 if i == j else 0 for j in range(size)] for i in range(size)])

    @property
    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix addition")
        return DenseMatrix._make(
            tuple(
                tuple(map(_add_entry, r1, r2)) for r1, r2 in zip(self.data, other.data)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DenseMatrix._make(tuple(tuple(-e for e in row) for row in self.data))

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch in matrix product")
            cols = list(zip(*other.data))
            return DenseMatrix._make(
                tuple(tuple(_dot(row, col) for col in cols) for row in self.data)
            )
        if isinstance(other, _SCALARS):
            return self._scale(other, lambda e: e * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other, lambda e: other * e)
        return NotImplemented

    def _scale(self, scalar, product):
        # A GaussianRational entry times a rational or GaussianRational scalar
        # is an exact zero when either factor is 0, so that product is
        # skipped. A MultiPoly factor is always multiplied: the product is a
        # MultiPoly that carries its truncation.
        skip = not isinstance(scalar, MultiPoly)
        zero = skip and not scalar
        return DenseMatrix._make(
            tuple(
                tuple(
                    (e if not e else ZERO if zero else product(e))
                    if skip and type(e) is GaussianRational
                    else product(e)
                    for e in row
                )
                for row in self.data
            )
        )

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2)
        )

    __hash__ = None

    @property
    def is_zero(self):
        return all(not e for row in self.data for e in row)

    def transpose(self):
        return DenseMatrix._make(tuple(zip(*self.data)))

    def apply(self, vector):
        """Matrix times a column vector given as a sequence; returns a tuple."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(_dot(row, vector) for row in self.data)

    def __str__(self):
        rendered = [[str(e) for e in row] for row in self.data]
        width = max(len(s) for row in rendered for s in row)
        return "\n".join(
            "[" + "  ".join(s.rjust(width) for s in row) + "]" for row in rendered
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def _add_entry(a, b):
    # Adding an exact-zero GaussianRational to a GaussianRational gives the
    # other operand. A MultiPoly operand is always added: its truncation
    # bounds merge into the sum.
    if type(a) is type(b) is GaussianRational and not (a and b):
        return b if not a else a
    return a + b


def _dot(row, col):
    # A product of two GaussianRationals with a zero factor adds nothing, so
    # it is skipped. A MultiPoly operand is always multiplied: its truncation
    # bounds merge into the sum even when its terms vanish.
    acc = None
    for a, b in zip(row, col):
        if type(a) is type(b) is GaussianRational and not (a and b):
            continue
        p = a * b
        acc = p if acc is None else acc + p
    return ZERO if acc is None else acc


def linear_combination(coeffs, matrices) -> DenseMatrix:
    """sum_k coeffs[k] * matrices[k] for matrices of one shape, in one pass.

    Each entry is _dot of the coefficients with the matrices' entries at
    that position, so it equals the entry of the running sum
    zeros + c_1 M_1 + ... + c_m M_m: a zero GaussianRational product is
    skipped and a MultiPoly coefficient is always multiplied, so its
    truncation reaches every entry.
    """
    coeffs = [_coerce_entry(c) for c in coeffs]
    matrices = list(matrices)
    if not matrices or len(coeffs) != len(matrices):
        raise ValueError("need one coefficient per matrix, and at least one matrix")
    shape = (matrices[0].rows, matrices[0].cols)
    if any((m.rows, m.cols) != shape for m in matrices):
        raise ValueError("dimension mismatch in linear combination")
    return DenseMatrix._make(
        tuple(
            tuple(_dot(coeffs, entries) for entries in zip(*rows))
            for rows in zip(*(m.data for m in matrices))
        )
    )


def commutator(a, b):
    """[a, b] = a b - b a for two dense or two Fock matrices; the products
    and the difference raise ValueError when the shapes disagree."""
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
        # as in _dot: a zero GaussianRational term adds nothing to a
        # GaussianRational, while a MultiPoly sum always merges truncations
        acc = tuple(
            a if type(a) is type(t) is GaussianRational and not t else a + t * scale
            for a, t in zip(acc, term)
        )
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
