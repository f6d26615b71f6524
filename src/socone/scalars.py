"""Exact complex scalars with rational real and imaginary parts.

Every other module computes over this field; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)


def _part(n: int, d: int):
    """The exact rational n/d: an int when integral, else a Fraction."""
    if d == 1 or not n:
        return n
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def _part_str(n: int, d: int) -> str:
    """str(Fraction(n, d)), without building the Fraction."""
    if d != 1:
        g = gcd(n, d)
        if g != d:
            return f"{n // g}/{d // g}"
        n //= g
    return str(n)


class GaussianRational:
    """A complex number (a + b*i)/d with integers a, b, d.

    The triple is reduced: d > 0 and gcd(a, b, d) = 1, so every value has
    exactly one representation and equality compares three integers. The
    read-only parts re and im are exact rationals: an int when integral, a
    fractions.Fraction in lowest terms otherwise. Instances are immutable
    and hashable, with the hash of an equal int or Fraction when real.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            q, s = re.denominator, im.denominator
            # both parts are in lowest terms, so over the lcm of their
            # denominators gcd(a, b, d) = 1 already
            d = q * s // gcd(q, s)
            a, b = re.numerator * (d // q), im.numerator * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as GaussianRational")

    @property
    def re(self):
        return _part(self._a, self._d)

    @property
    def im(self):
        return _part(self._b, self._d)

    # -- ring operations ---------------------------------------------------
    # Each operation is a few int products on the triples and at most one
    # gcd, skipped when the result's denominator is 1. Zero parts skip their
    # products; every result is the same exact value as the textbook formula.
    # Subtraction adds the negation: the canonical triple is the same.

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        elif isinstance(other, int):
            # adding a multiple of d keeps gcd(a, b, d) = 1
            return _make(a + other * d, b, d)
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        if d == f:
            if d == 1:
                return _make(a + c, b + e, 1)
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d if e else b * f, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
            if not e:
                re, im = a * c, b * c if b else 0
            elif not b:
                re, im = a * c, a * e
            else:
                re, im = a * c - b * e, a * e + b * c
            d *= f
            if d == 1:
                return _make(re, im, 1)
            return _reduced(re, im, d)
        if isinstance(other, int):
            if d == 1:
                return _make(a * other, b * other if b else 0, 1)
            # gcd(a k, b k, d) = gcd(k, d) because gcd(a, b, d) = 1
            g = gcd(other, d)
            k = other // g
            return _make(a * k, b * k if b else 0, d // g)
        if isinstance(other, Fraction):
            c = other.numerator
            return _reduced(a * c, b * c if b else 0, d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        elif isinstance(other, int):
            c, e, f = other, 0, 1
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # 1 / ((c + e i)/f) = f (c - e i) / (c^2 + e^2)
        return self * _reduced(c * f, -e * f, n2)

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            return GaussianRational(other) / self
        return NotImplemented

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conj(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- structure ----------------------------------------------------------

    def as_integer_ratio(self) -> tuple:
        """(numerator, denominator) of a real value, in lowest terms with a
        positive denominator, as for Fraction."""
        if self._b:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._a, self._d

    def __complex__(self):
        d = self._d
        return complex(self._a / d, self._b / d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._d == other.denominator
                and self._a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display ------------------------------------------------------------

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _part_str(a, d)
        if b == d:
            imag = "i"
        elif b == -d:
            imag = "-i"
        else:
            imag = _part_str(b, d) + "i"
        if not a:
            return imag
        sign = "+" if b > 0 else "-"
        mag = imag.lstrip("-")
        return f"{_part_str(a, d)}{sign}{mag}"

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already reduced, unchecked: d > 0 and
    gcd(a, b, d) = 1."""
    self = _new(GaussianRational)
    _set_a(self, a)
    _set_b(self, b)
    _set_d(self, d)
    return self


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _cleared(triples) -> tuple:
    """(pairs, d) with (a + b i)/f = (a' + b' i)/d for each triple (a, b, f)
    and its pair (a', b'), d the lcm of the denominators: the values over
    one denominator, the inverse of _reduced. The numerators a, b may be
    polynomials, which are only multiplied by ints."""
    triples = list(triples)
    d = lcm(1, *[f for _, _, f in triples])
    pairs = [(a, b) if f == d else (a * (k := d // f), b * k) for a, b, f in triples]
    return pairs, d


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
I = GaussianRational(0, 1)
