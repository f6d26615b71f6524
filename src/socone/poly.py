"""Sparse multivariate polynomials and their truncated series.

A variable name is an alphabetic group prefix plus an optional integer
index: "v1", "w2", "z3", "x1", "t". The group is the unit of truncation.
A MultiPoly is a polynomial and carries no bound. Truncation belongs to
two operations only: truncate, the projection onto the terms whose total
degree in each bounded group is at most its bound, and mul_truncated, the
product projected the same way, which never forms a dropped term. Group
degrees only add in a product, so every kept coefficient is exact: it
equals the coefficient in the untruncated result. The weight parameter
"t" is never truncated; series with symbolic exponents expand Pochhammer
factors into polynomials in t.

Coefficients are GaussianRational, so all arithmetic is exact. The
truncated products (mul_truncated, and the series series_power and
exp_series) compute on plain Python ints instead: they clear their
operands to integer numerators (_word_numerators, by the clearing rule
scalars._cleared that vectors of exact values share) and multiply by one
integer product, _product, that holds a polynomial as maps from words to
ints (a real map and an imaginary one, empty for real coefficients).
The series kernel, _series, keeps each power and the running sum in that
form over one common denominator fixed before its loop and returns the
integer sums: _from_numerators makes one GaussianRational per output term
of them, and fock._gram_cells reads them (series_power_numerators) as
they are. The plain product a * b stays a GaussianRational loop.

A monomial is one int, a packed exponent word (Monagan and Pearce, CASC
2007): a 16-bit field per variable holds its exponent, and a 16-bit field
per group holds the group's total degree. A name takes its field the first
time it is seen, above every field taken before, so words already built
stay valid. A product of monomials is one int add, and a truncation test
one more add and an AND. Words are decoded to (name, exponent) pairs in
var_key order only where monomials meet the outside: the constructor, subs,
split_index, the leading term of exact_divide, and the printed and JSON
forms, which sort in graded lexicographic order. So the order in which
names were first seen never reaches an output.

Every exact sparse map, here and in the modules above, adds through
_sum_into, so none stores a zero and equal values are equal dicts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import factorial
from operator import ge, itemgetter, or_
from sys import byteorder
from threading import Lock

from .scalars import GaussianRational, _cleared, _part_str, _reduced

_GROUP_ORDER = {"v": 0, "w": 1, "z": 2, "x": 3}

# the canonical symbolic weight parameter ("tau" in formulas)
TAU_NAME = "t"

# Field layout of a monomial word. A stored exponent or group degree is
# below _LIMIT, so the sum of two stays below the guard bit (the bit in
# between is headroom) and adding two words never carries between fields.
_BITS = 16  # the decoder reads the fields as a C unsigned short array
_FIELD = (1 << _BITS) - 1
_GUARD = 1 << (_BITS - 1)
_LIMIT = 1 << (_BITS - 2)
_OVERFLOW = f"a monomial exponent or group degree reached {_LIMIT}"

# The layout only grows. It changes under _LAYOUT_LOCK, and readers take
# one snapshot of the decoder, so threads may share it.
_LAYOUT_LOCK = Lock()
_INFO = {}  # name -> (group, index, var_key, unit word, shift of its field)
_GROUP_SHIFT = {}  # group -> shift of its degree field
_OFFSETS = {}  # truncation items -> (offset, guards, heads), see _offsets
_fields = 0  # fields taken so far


def _sum_into(acc: dict, items) -> dict:
    """Add each (key, value) of items into acc and return acc; a sum that
    vanishes is deleted, so acc never holds a zero. Only the product loops,
    __mul__ and the integer kernels, add inline: they are the hot
    loops, and a call per pair there slows the verify benchmark."""
    for key, value in items:
        old = acc.get(key)
        s = value if old is None else old + value
        if s:
            acc[key] = s
        elif old is not None:
            del acc[key]
    return acc


class _Decoder:
    """Reads words of one layout: the exponents of all registered names,
    in (var_key, name) order, as a tuple."""

    __slots__ = ("names", "size", "pick")

    def __init__(self):
        self.names = tuple(sorted(_INFO, key=lambda n: (_INFO[n][2], n)))
        self.size = _fields * _BITS // 8
        fields = [_INFO[n][4] // _BITS for n in self.names]
        if len(fields) == 1:
            self.pick = lambda array, i=fields[0]: (array[i],)
        else:
            self.pick = itemgetter(*fields)

    def exponents(self, word: int) -> tuple:
        return self.pick(memoryview(word.to_bytes(self.size, byteorder)).cast("H"))

    def monomial(self, exps: tuple) -> tuple:
        """The (name, exponent) pairs, in var_key order, of exponents()."""
        return tuple(zip(compress(self.names, exps), compress(exps, exps)))

    def grlex(self, word: int) -> tuple:
        """(degree, exponents(), word): graded lexicographic order, the
        larger key the leading term. Distinct words have distinct
        exponents, so the word, carried for a sort, is never compared."""
        exps = self.exponents(word)
        return sum(exps), exps, word


_decoder = None  # the _Decoder of the current layout


def _take_field() -> int:
    global _fields
    _fields += 1
    _OFFSETS.clear()  # the cached offsets lack the new field
    return (_fields - 1) * _BITS


def _group_field(group: str) -> int:
    """The shift of a group's degree field; call with _LAYOUT_LOCK held."""
    shift = _GROUP_SHIFT.get(group)
    if shift is None:
        shift = _GROUP_SHIFT[group] = _take_field()
    return shift


def _name_info(name: str) -> tuple:
    """(group, index, var_key, unit, shift) of a variable name, parsed once.

    The first call registers the name: its exponent field at shift and, for
    a new group, the group's degree field. unit is the word of the variable
    itself. A bad name raises ValueError on every call.
    """
    info = _INFO.get(name)
    if info is not None:
        return info
    i = 0
    while i < len(name) and name[i].isalpha():
        i += 1
    group, index = name[:i], name[i:]
    if not group or (index and not index.isdigit()):
        raise ValueError(f"bad variable name: {name!r}")
    index = int(index) if index else 0
    if group == TAU_NAME:
        rank = 1_000_000
    else:
        rank = _GROUP_ORDER.get(group, 500_000)
    global _decoder
    with _LAYOUT_LOCK:
        info = _INFO.get(name)
        if info is None:
            gshift = _group_field(group)
            shift = _take_field()
            unit = (1 << shift) | (1 << gshift)
            info = _INFO[name] = (group, index, (rank, group, index), unit, shift)
            _decoder = _Decoder()
    return info


def group_of(name: str) -> str:
    return _name_info(name)[0]


def var_key(name: str):
    """Canonical ordering key: v-group, w, z, x, then others, then t."""
    return _name_info(name)[2]


def _decode(word: int) -> tuple:
    """The monomial as (name, exponent) pairs in var_key order."""
    decoder = _decoder
    return decoder.monomial(decoder.exponents(word))


def _pack(items) -> int:
    """The word of (name, exponent) pairs in any order; the exponents of a
    repeated name add."""
    word = 0
    degrees = {}
    for name, e in _sum_into({}, items).items():
        if not 0 < e < _LIMIT:
            raise ValueError(f"exponent {e} of {name} is outside 0..{_LIMIT - 1}")
        group, _, _, _, shift = _name_info(name)
        word += e << shift
        degrees[group] = degrees.get(group, 0) + e
    for group, d in degrees.items():
        if d >= _LIMIT:
            raise ValueError(_OVERFLOW)
        word += d << _GROUP_SHIFT[group]
    return word


def _group_mask(groups) -> int:
    """Every field of the given groups: degree and exponent fields."""
    mask = 0
    for group, _, _, _, shift in tuple(_INFO.values()):
        if group in groups:
            mask |= (_FIELD << shift) | (_FIELD << _GROUP_SHIFT[group])
    return mask


def _offsets(bounds: dict) -> tuple:
    """(offset, guards, heads) of truncation bounds, cached per bound items.

    offset holds guard - 1 - bound in each bounded group's degree field and
    _LIMIT in every other one, so a word w lies within the bounds and its
    fields within range exactly when (w + offset) & guards is 0, where
    guards holds the guard bit of every degree field. For a sum of two
    words, which may reach past _LIMIT, w & heads tells an out-of-range
    unbounded degree from a bound exceeded.
    """
    key = tuple(bounds.items())
    hit = _OFFSETS.get(key)
    if hit is not None:
        return hit
    with _LAYOUT_LOCK:
        bounded = {
            _group_field(g): max(b, -1) for g, b in bounds.items() if b < _LIMIT
        }
        offset = guards = heads = 0
        for shift in _GROUP_SHIFT.values():
            guards |= _GUARD << shift
            b = bounded.get(shift)
            if b is None:
                offset |= _LIMIT << shift
                heads |= _LIMIT << shift
            else:
                offset |= (_GUARD - 1 - b) << shift
        if len(_OFFSETS) > 255:
            _OFFSETS.clear()
        hit = _OFFSETS[key] = (offset, guards, heads)
    return hit


class MultiPoly:
    """Immutable sparse polynomial over GaussianRational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """terms maps monomials, given as (name, exponent) pairs in any
        order, to coefficients; monomials equal after sorting, dropping
        zero exponents and summing repeated names are added together.
        A negative exponent, or an exponent or group degree of 2**14 or
        more, raises ValueError."""
        pairs = (
            (_pack(mono), GaussianRational.coerce(c)) for mono, c in (terms or {}).items()
        )
        _set_terms(self, _sum_into({}, pairs))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # field positions differ between processes, so monomials travel decoded
        return MultiPoly, (self.decoded_terms(),)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls):
        return _make({})

    @classmethod
    def const(cls, value):
        c = GaussianRational.coerce(value)
        return _make({0: c} if c else {})

    @classmethod
    def var(cls, name: str):
        return _make({_name_info(name)[3]: GaussianRational(1)})

    @staticmethod
    def coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented
            other = MultiPoly.const(other)
        return _make(_sum_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented
            c = GaussianRational.coerce(other)
            if not c:
                return MultiPoly.zero()
            return _make({m: k * c for m, k in self.terms.items()})
        # heads holds the bit _LIMIT of every degree field: a group degree of
        # a product is below 2 * _LIMIT, so it reaches _LIMIT when that bit is set
        heads = _offsets({})[2]
        right = list(other.terms.items())
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                # exponents and group degrees add with the words
                mono = m1 + m2
                if mono & heads:
                    raise ValueError(_OVERFLOW)
                c = c1 * c2
                acc = out.get(mono)
                if acc is None:
                    # both coefficients are nonzero, and so is their product
                    out[mono] = c
                else:
                    s = acc + c
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return _make(out)

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", bounds: dict) -> "MultiPoly":
        """(self * other).truncate(bounds), forming no term beyond a bound,
        by _product on the integer numerators of both factors. An exponent
        or unbounded group degree that reaches 2**14 raises ValueError, as
        in every product."""
        l_re, l_im, dl = _word_numerators(self)
        r_re, r_im, dr = _word_numerators(other)
        return _from_numerators(_product((l_re, l_im), (r_re, r_im), _offsets(bounds)), dl * dr)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = MultiPoly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, GaussianRational(0))

    def as_gaussian(self) -> GaussianRational:
        if not self.terms.keys() <= {0}:
            raise ValueError(f"{self} is not constant")
        return self.constant_term

    def variables(self) -> set:
        used = reduce(or_, self.terms, 0)
        return {n for n, info in tuple(_INFO.items()) if (used >> info[4]) & _FIELD}

    def degrees(self, group: str) -> set:
        """The total degrees within one group of the terms."""
        shift = _GROUP_SHIFT.get(group)
        if shift is None:
            return {0} if self.terms else set()
        return {(m >> shift) & _FIELD for m in self.terms}

    def decoded_terms(self) -> dict:
        """terms keyed by monomials as (name, exponent) pairs in var_key
        order, in the same order as terms."""
        return {_decode(m): c for m, c in self.terms.items()}

    # -- calculus and rewriting -------------------------------------------------

    def truncate(self, bounds: dict) -> "MultiPoly":
        """The terms whose total degree in each group named in bounds is at
        most the group's bound; a negative bound keeps no term."""
        offset, guards, _ = _offsets(bounds)
        return _make({m: c for m, c in self.terms.items() if not (m + offset) & guards})

    def diff(self, name: str) -> "MultiPoly":
        _, _, _, unit, shift = _name_info(name)
        out = {}
        for mono, coeff in self.terms.items():
            e = (mono >> shift) & _FIELD
            if e:
                out[mono - unit] = coeff * e
        return _make(out)

    def subs(self, assignments: dict) -> "MultiPoly":
        """Substitute exact scalars for variables; each value multiplies
        straight into the coefficient. A value that is not an exact scalar,
        a MultiPoly included, raises TypeError."""
        scalars = {n: GaussianRational.coerce(v) for n, v in assignments.items()}
        # the exponent fields of the assigned names; other terms pass through
        touched = 0
        for name in scalars:
            if name in _INFO:
                touched |= _FIELD << _INFO[name][4]
        moved = []
        for mono, coeff in self.terms.items():
            rest = mono
            if mono & touched:
                for name, e in _decode(mono):
                    if name in scalars:
                        for _ in range(e):
                            coeff = coeff * scalars[name]
                        rest -= e * _INFO[name][3]
            moved.append((rest, coeff))
        return _make(_sum_into({}, moved))

    def conj(self) -> "MultiPoly":
        """Conjugate the coefficients; the indeterminates are treated as real."""
        return _make({m: c.conj() for m, c in self.terms.items()})

    def split_index(self, group: str, n: int) -> dict:
        """Group terms by their monomial part in one variable group, keyed by
        multi-index: the cofactor of group1^k1 ... groupn^kn, a polynomial in
        the other variables, is stored under (k1, ..., kn). A variable of the
        group indexed outside 1..n raises ValueError."""
        mask = _group_mask({group})
        buckets = {}
        for mono, coeff in self.terms.items():
            key = mono & mask
            buckets.setdefault(key, {})[mono - key] = coeff
        out = {}
        for key, terms in buckets.items():
            k = [0] * n
            for name, e in _decode(key):
                index = _INFO[name][1]
                if not 0 < index <= n:
                    raise ValueError(f"{name} is outside {group}1..{group}{n}")
                k[index - 1] = e
            out[tuple(k)] = _make(terms)
        return out

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ValueError if it does not divide."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        decoder = _decoder
        lead = max(divisor.terms, key=decoder.grlex)
        lead_coeff = divisor.terms[lead]
        lead_exps = decoder.exponents(lead)
        remainder = self
        # each step cancels the leading term and adds only smaller ones, so
        # each quotient monomial is new and its coefficient nonzero
        quotient = {}
        while remainder.terms:
            rm = max(remainder.terms, key=decoder.grlex)
            if not all(map(ge, decoder.exponents(rm), lead_exps)):
                raise ValueError("not exactly divisible")
            q_mono = rm - lead
            q_coeff = remainder.terms[rm] / lead_coeff
            quotient[q_mono] = q_coeff
            remainder = remainder - _make({q_mono: q_coeff}) * divisor
        return _make(quotient)

    # -- display -------------------------------------------------------------------

    def canonical_items(self) -> Iterator:
        """(monomial, coefficient) pairs in graded lexicographic order,
        leading term first, each monomial as (name, exponent) pairs in
        var_key order. The terms are sorted on call, each word decoded once
        in its sort key, and each pair is made only as it is read."""
        decoder, terms = _decoder, self.terms
        rows = sorted(map(decoder.grlex, terms), reverse=True)
        monomial = decoder.monomial
        return ((monomial(exps), terms[m]) for _, exps, m in rows)

    def __str__(self):
        return render_items(self.canonical_items())

    def latex(self) -> str:
        return render_items(self.canonical_items(), latex=True)

    def __repr__(self):
        return f"MultiPoly({self})"


_new = object.__new__
_set_terms = MultiPoly.terms.__set__


def render_items(items: Iterable, latex: bool = False) -> str:
    """The printed form of a polynomial from its canonical_items(), any
    iterable of them, read once: terms in canonical order, a ±1 coefficient
    left out before variables, and a coefficient with nonzero real and
    imaginary parts in parentheses."""
    if latex:
        sep, power = r" \, ", "{}^{{{}}}"
    else:
        sep, power = "*", "{}^{}"
    pieces = {}  # (name, exponent) -> its rendered factor
    out = []
    for mono, c in items:
        factors = []
        for item in mono:
            piece = pieces.get(item)
            if piece is None:
                name, e = item
                piece = _latex_name(name) if latex else name
                if e != 1:
                    piece = power.format(piece, e)
                pieces[item] = piece
            factors.append(piece)
        a, b, d = c._a, c._b, c._d
        if a and b:
            negative, body = False, f"({c})"
        elif b:
            negative = b < 0
            body = "i" if b == d or b == -d else _part_str(abs(b), d) + "i"
        else:
            negative = a < 0
            one = factors and d == 1 and (a == 1 or a == -1)
            body = "" if one else _part_str(abs(a), d)
        if factors:
            vars_part = sep.join(factors)
            body = body + sep + vars_part if body else vars_part
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) if out else "0"


def _latex_name(name: str) -> str:
    group, index = _name_info(name)[:2]
    if group == TAU_NAME and not index:
        return r"\tau"
    return f"{group}_{{{index}}}" if index else group


def _make(terms: dict) -> MultiPoly:
    """Wrap terms that already have nonzero GaussianRational coefficients,
    unchecked. The dict may not be mutated later."""
    self = _new(MultiPoly)
    _set_terms(self, terms)
    return self


TAU = MultiPoly.var(TAU_NAME)


def weight_exponent(tau):
    """-tau/2: the pairing and transform exponent, in t when tau is None."""
    return TAU * Fraction(-1, 2) if tau is None else Fraction(-tau, 2)


def _exponent_poly(exponent) -> MultiPoly:
    if isinstance(exponent, (int, Fraction, GaussianRational)):
        return MultiPoly.const(exponent)
    if isinstance(exponent, MultiPoly):
        if not exponent.variables() <= {TAU_NAME}:
            raise TypeError("symbolic exponents may involve the weight t only")
        return exponent
    raise TypeError(f"unsupported series exponent {exponent!r}")


def series_power(base: MultiPoly, exponent, bound: int) -> MultiPoly:
    """Truncated binomial series for base**exponent.

    base must have constant term 1. exponent is an exact rational or a
    polynomial in t alone (for example -t/2); in the symbolic case the
    Pochhammer factors expand into polynomials in t. Every non-t variable
    group of base is truncated at total degree bound.

    With u = 1 - base this is the sum over m of (-exponent)_m / m! u^m,
    which _series adds up in Python ints: integer numerators over one
    common denominator, with one GaussianRational made per output term.
    """
    return _from_numerators(*series_power_numerators(base, exponent, bound))


def series_power_numerators(base: MultiPoly, exponent, bound: int) -> tuple:
    """series_power(base, exponent, bound), same checks, as ((re, im), d):
    integer numerators (zeros kept) by word over one denominator d."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    base = MultiPoly.coerce(base)
    if base.constant_term != 1:
        raise ValueError("series_power requires constant term 1")
    minus_e = -_exponent_poly(exponent)
    return _series(MultiPoly.const(1) - base, bound, minus_e, 1, "base")


def exp_series(argument: MultiPoly, bound: int) -> MultiPoly:
    """Truncated exponential series of a polynomial with zero constant term.

    Every non-t variable group of the argument is truncated at total degree
    bound; each term of the argument must involve a truncated group so the
    series terminates. The sum of argument^m / m! is added up by _series
    in integer numerators over one common denominator, as in series_power.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    argument = MultiPoly.coerce(argument)
    if argument.constant_term != 0:
        raise ValueError("exp_series requires zero constant term")
    return _from_numerators(*_series(argument, bound, MultiPoly.const(1), 0, "argument"))


# -- the integer series kernel ---------------------------------------------------
# A Gaussian-integer polynomial is a pair (re, im) of maps from monomial
# words to ints; im is empty when every coefficient is real, so real
# arithmetic runs the same loops over an empty map.


def _word_numerators(p: MultiPoly) -> tuple:
    """(re, im, d) with p = (re + i im) / d, where d is the lcm of the
    denominators of p's coefficients; the inverse of _from_numerators."""
    terms = p.terms
    pairs, d = _cleared([(c._a, c._b, c._d) for c in terms.values()])
    re = {m: a for m, (a, _) in zip(terms, pairs) if a}
    im = {m: b for m, (_, b) in zip(terms, pairs) if b}
    return re, im, d


def _add_product(out: tuple, left: tuple, right: tuple, offsets: tuple) -> None:
    """Add left * right into out, forming no product beyond the bounds of
    offsets (see _offsets); out may be left holding zeros. An exponent or
    unbounded group degree that reaches 2**14 raises ValueError, as in
    every product.

    The truncation test reads only the group degree fields of a product,
    and those are the sums of its factors' degree fields. So the terms of
    right are taken in classes of equal degree fields, and each term of
    left is tested once per class rather than once per pair.
    """
    offset, guards, heads = offsets
    # guards holds the top bit of every degree field
    degrees = (guards >> (_BITS - 1)) * _FIELD
    (out_re, out_im), (left_re, left_im), (right_re, right_im) = out, left, right
    for dest, a, b, sign in (
        (out_re, left_re, right_re, 1),
        (out_re, left_im, right_im, -1),
        (out_im, left_re, right_im, 1),
        (out_im, left_im, right_re, 1),
    ):
        if not (a and b):
            continue
        classes = {}
        for m, c in b.items():
            classes.setdefault(m & degrees, []).append((m, c * sign))
        classes = tuple(classes.items())
        get = dest.get
        for m1, c1 in a.items():
            shifted = m1 + offset
            for key, terms in classes:
                if (shifted + key) & guards:
                    if (m1 + key) & heads:
                        raise ValueError(_OVERFLOW)
                    continue
                for m2, c2 in terms:
                    mono = m1 + m2
                    dest[mono] = get(mono, 0) + c1 * c2


def _product(left: tuple, right: tuple, offsets: tuple) -> tuple:
    """left * right truncated by offsets, with no zero entries."""
    out = {}, {}
    _add_product(out, left, right, offsets)
    for part in out:
        for m in [m for m, c in part.items() if not c]:
            del part[m]
    return out


def _series(u: MultiPoly, bound: int, a: MultiPoly, step: int, role: str) -> tuple:
    """((re, im), L): the integer numerators of the sum over m >= 0 of
    (a)(a + step)...(a + (m - 1) step) / m! u^m over one denominator L,
    with every non-t variable group of u truncated at total degree bound;
    u has no constant term and a is a constant or a polynomial in t alone.
    A term of u in t alone, which never lets the series end, raises
    ValueError.

    With u = U / du and a = A / da in integer numerators, the m-th term is
    P_m U^m / (m! (da du)^m), where P_m = A (A + step da) ... (A + (m - 1)
    step da). A term of U^m has total degree at least m * least in the
    bounded groups, where least is the least such degree of a term of u,
    and at most the sum of the bounds (no degree reaches 2**14 without a
    ValueError). So no term survives past m = M, the quotient of the two,
    and every term is summed in integers over the one denominator
    L = M! (da du)^M: the m-th term's numerator is P_m U^m times
    M! / m! (da du)^(M - m). Each power U^m is formed from the last and
    added in at once, so only one is kept. The sums are returned
    unreduced, zeros included: _from_numerators reduces each once.
    """
    bounds = {_name_info(n)[0]: bound for n in u.variables()}
    bounds.pop(TAU_NAME, None)
    u = u.truncate(bounds)
    offsets = _offsets(bounds)
    shifts = [_GROUP_SHIFT[g] for g in bounds]
    least = min((sum((m >> s) & _FIELD for s in shifts) for m in u.terms), default=1)
    if not least:
        raise ValueError(f"series does not terminate: {role} has a pure-t term")
    top = len(bounds) * min(bound, _LIMIT - 1) // least
    u_re, u_im, du = _word_numerators(u)
    a_re, a_im, da = _word_numerators(a)
    unit = da * du
    weight = denominator = factorial(top) * unit**top
    acc = ({0: denominator}, {})
    power = poch = ({0: 1}, {})
    m = 0
    while True:
        m += 1
        power = _product(power, (u_re, u_im), offsets)
        if not (power[0] or power[1]):
            break
        factor = dict(a_re)
        factor[0] = factor.get(0, 0) + (m - 1) * step * da
        poch = _product(poch, (factor, a_im), offsets)
        weight //= m * unit
        scaled = tuple({w: c * weight for w, c in part.items()} for part in poch)
        _add_product(acc, scaled, power, offsets)
    return acc, denominator


def _from_numerators(parts: tuple, d: int) -> MultiPoly:
    """The MultiPoly (re + i im) / d of parts = (re, im), one reduced
    coefficient per nonzero term; im is emptied of the words of re."""
    re, im = parts
    terms = {}
    for w, c in re.items():
        b = im.pop(w, 0)
        if c or b:
            terms[w] = _reduced(c, b, d)
    for w, b in im.items():
        if b:
            terms[w] = _reduced(0, b, d)
    return _make(terms)
