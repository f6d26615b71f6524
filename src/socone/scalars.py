"""Exact complex scalars with rational real and imaginary parts.

Every other module computes over this field; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction

_RATIONAL = (int, Fraction)


class GaussianRational:
    """A complex number re + im*i whose parts are exact rationals.

    Both parts are held as fractions.Fraction, so they are always in
    lowest terms with a positive denominator. Instances are immutable
    and hashable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as GaussianRational")

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """Wrap two Fractions that are already in lowest terms, unchecked.

        The ring operations build every result through here: Fraction
        arithmetic already returns normalised values, so passing them
        through Fraction() again would only repeat the work.
        """
        self = _new(cls)
        _set_re(self, re)
        _set_im(self, im)
        return self

    # -- ring operations ---------------------------------------------------
    # Fast paths only skip Fraction operations whose operand is exactly
    # zero; every result is the same exact value as the textbook formula.

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            b, d = self.im, other.im
            return _make(self.re + other.re, (b + d) if b and d else (b or d))
        if isinstance(other, _RATIONAL):
            return _make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            b, d = self.im, other.im
            return _make(self.re - other.re, (b - d) if d else b)
        if isinstance(other, _RATIONAL):
            return _make(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return _make(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b = self.re, self.im
            c, d = other.re, other.im
            if not d:
                return _make(a * c, b * c if b else b)
            if not b:
                return _make(a * c, a * d)
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, _RATIONAL):
            b = self.im
            return _make(self.re * other, b * other if b else b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        n2 = other.norm2
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * _make(other.re / n2, -other.im / n2)

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            return GaussianRational(other) / self
        return NotImplemented

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __pos__(self):
        return self

    def conj(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    # -- structure ----------------------------------------------------------

    @property
    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display ------------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = imag.lstrip("-")
        return f"{self.re}{sign}{mag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
_make = GaussianRational._make


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
