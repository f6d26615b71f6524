"""Sparse multivariate polynomials and their truncated series.

A variable name is an alphabetic group prefix plus an optional integer
index: "v1", "w2", "z3", "x1", "t". The group is the unit of truncation.
A MultiPoly is a polynomial and carries no bound. Truncation belongs to
two operations only: truncate, the projection onto the terms whose total
degree in each bounded group is at most its bound, and mul_truncated, the
product projected the same way, which never forms a dropped term. Group
degrees only add in a product, so every kept coefficient is exact: it
equals the coefficient in the untruncated result. series_power and
exp_series run their loops on mul_truncated. The weight parameter "t" is
never truncated; series with symbolic exponents expand Pochhammer factors
into polynomials in t.

Coefficients are GaussianRational, so all arithmetic is exact.

A monomial is one int, a packed exponent word (Monagan and Pearce, CASC
2007): a 16-bit field per variable holds its exponent, and a 16-bit field
per group holds the group's total degree. A name takes its field the first
time it is seen, above every field taken before, so words already built
stay valid. A product of monomials is one int add, and a truncation test
one more add and an AND. Words are decoded to (name, exponent) pairs in
var_key order only where monomials meet the outside: the constructor,
coefficient, subs, split_groups and split_index, the leading term of
exact_divide, and the printed and JSON forms, which sort in graded
lexicographic order. So the order in which names were first seen never
reaches an output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from math import factorial
from operator import ge, itemgetter, or_
from sys import byteorder
from threading import Lock

from .scalars import GaussianRational

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
        # graded lexicographic order: the larger key is the leading term
        exps = self.exponents(word)
        return sum(exps), exps


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
    exps = {}
    for name, e in items:
        exps[name] = exps.get(name, 0) + e
    word = 0
    degrees = {}
    for name, e in exps.items():
        if not e:
            continue
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
        summed = {}
        for mono, coeff in (terms or {}).items():
            key = _pack(mono)
            c = GaussianRational.coerce(coeff)
            summed[key] = summed[key] + c if key in summed else c
        _set_terms(self, {m: c for m, c in summed.items() if c})

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
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                s = acc + coeff
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return _make(terms)

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
        return self.mul_truncated(other, {})

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", bounds: dict) -> "MultiPoly":
        """(self * other).truncate(bounds), forming no term beyond a bound.

        An exponent or unbounded group degree that reaches 2**14 raises
        ValueError, as in every product."""
        offset, guards, heads = _offsets(bounds)
        right = list(other.terms.items())
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                # exponents and group degrees add with the words; a product
                # beyond the bounds is dropped before its coefficient is formed
                mono = m1 + m2
                if (mono + offset) & guards:
                    if mono & heads:
                        raise ValueError(_OVERFLOW)
                    continue
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
    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    @property
    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, GaussianRational(0))

    def as_gaussian(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.constant_term

    def variables(self) -> set:
        used = reduce(or_, self.terms, 0)
        return {n for n, info in tuple(_INFO.items()) if (used >> info[4]) & _FIELD}

    def degree(self, group: str | None = None) -> int:
        """Total degree, or total degree within one group. Zero poly gives -1."""
        if not self.terms:
            return -1
        if group is None:
            decoder = _decoder
            return max(sum(decoder.exponents(m)) for m in self.terms)
        return max(self.degrees(group))

    def degrees(self, group: str) -> set:
        """The total degrees within one group of the terms."""
        shift = _GROUP_SHIFT.get(group)
        if shift is None:
            return {0} if self.terms else set()
        return {(m >> shift) & _FIELD for m in self.terms}

    def powers_of(self, name: str) -> list:
        """(exponent, coefficient) of each term of a polynomial in name
        alone; ValueError if another variable occurs."""
        info = _INFO.get(name)
        unit, shift = (info[3], info[4]) if info else (0, 0)
        out = []
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD if unit else 0
            if m != e * unit:
                raise ValueError(f"{self} is not a polynomial in {name} alone")
            out.append((e, c))
        return out

    def coefficient(self, mono_items) -> GaussianRational:
        return self.terms.get(_pack(mono_items), GaussianRational(0))

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
        terms = {}
        for mono, coeff in self.terms.items():
            rest = mono
            if mono & touched:
                for name, e in _decode(mono):
                    if name in scalars:
                        for _ in range(e):
                            coeff = coeff * scalars[name]
                        rest -= e * _INFO[name][3]
            terms[rest] = terms[rest] + coeff if rest in terms else coeff
        return _make({m: c for m, c in terms.items() if c})

    def conj(self) -> "MultiPoly":
        """Conjugate the coefficients; the indeterminates are treated as real."""
        return _make({m: c.conj() for m, c in self.terms.items()})

    def split_groups(self, groups) -> dict:
        """Group terms by their monomial part in the given variable groups.

        Returns a map from that monomial part to the polynomial cofactor in
        the remaining variables.
        """
        return {_decode(key): cofactor for key, cofactor in self._split(groups)}

    def split_index(self, group: str, n: int) -> dict:
        """split_groups for one group, keyed by multi-index: the cofactor of
        group1^k1 ... groupn^kn is stored under (k1, ..., kn)."""
        out = {}
        for key, cofactor in self._split({group}):
            k = [0] * n
            for name, e in _decode(key):
                k[_INFO[name][1] - 1] = e
            out[tuple(k)] = cofactor
        return out

    def _split(self, groups) -> list:
        """(word in the groups, cofactor) pairs of split_groups."""
        mask = _group_mask(set(groups))
        buckets = {}
        for mono, coeff in self.terms.items():
            key = mono & mask
            buckets.setdefault(key, {})[mono - key] = coeff
        return [(key, _make(terms)) for key, terms in buckets.items()]

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ValueError if it does not divide."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        decoder = _decoder
        lead = max(divisor.terms, key=decoder.grlex)
        lead_coeff = divisor.terms[lead]
        lead_exps = decoder.exponents(lead)
        remainder = self
        quotient = {}
        while remainder.terms:
            rm = max(remainder.terms, key=decoder.grlex)
            if not all(map(ge, decoder.exponents(rm), lead_exps)):
                raise ValueError("not exactly divisible")
            q_mono = rm - lead
            q_coeff = remainder.terms[rm] / lead_coeff
            quotient[q_mono] = quotient.get(q_mono, GaussianRational(0)) + q_coeff
            remainder = remainder - _make({q_mono: q_coeff}) * divisor
        return _make({m: c for m, c in quotient.items() if c})

    # -- display -------------------------------------------------------------------

    def canonical_items(self) -> list:
        """(monomial, coefficient) pairs in graded lexicographic order,
        leading term first, each monomial as (name, exponent) pairs in
        var_key order."""
        decoder, terms = _decoder, self.terms
        rows = sorted(((decoder.grlex(m), m) for m in terms), reverse=True)
        return [(decoder.monomial(exps), terms[m]) for (_, exps), m in rows]

    def _render(self, power_fmt, name_fmt, coeff_fmt, sep):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.canonical_items():
            vars_part = sep.join(
                name_fmt(n) if e == 1 else power_fmt(name_fmt(n), e) for n, e in mono
            )
            if not vars_part:
                body = coeff_fmt(coeff)
                negative = body.startswith("-")
                body = body.lstrip("-")
            else:
                if coeff == 1:
                    body, negative = vars_part, False
                elif coeff == -1:
                    body, negative = vars_part, True
                else:
                    body = coeff_fmt(coeff)
                    negative = body.startswith("-")
                    body = body.lstrip("-") + sep + vars_part
            pieces.append((negative, body))
        first_neg, first = pieces[0]
        out = ("-" if first_neg else "") + first
        for negative, body in pieces[1:]:
            out += (" - " if negative else " + ") + body
        return out

    @staticmethod
    def coeff_str(c: GaussianRational) -> str:
        """A coefficient as printed in a term; for every c this is also
        str(MultiPoly.const(c))."""
        s = str(c)
        if c.re != 0 and c.im != 0:
            return f"({s})"
        return s

    def __str__(self):
        return self._render(
            lambda v, e: f"{v}^{e}", lambda n: n, self.coeff_str, "*"
        )

    def latex(self) -> str:
        def name_fmt(n):
            group, index = _name_info(n)[:2]
            if group == TAU_NAME and not index:
                return r"\tau"
            return f"{group}_{{{index}}}" if index else group

        return self._render(
            lambda v, e: f"{v}^{{{e}}}", name_fmt, self.coeff_str, r" \, "
        )

    def __repr__(self):
        return f"MultiPoly({self})"


_new = object.__new__
_set_terms = MultiPoly.terms.__set__


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


def _has_pure_t_term(p: MultiPoly) -> bool:
    """Whether a term of p, the constant included, lies in group t alone."""
    t_fields = _group_mask({TAU_NAME})
    return any(not m & ~t_fields for m in p.terms)


def series_power(base: MultiPoly, exponent, bound: int) -> MultiPoly:
    """Truncated binomial series for base**exponent.

    base must have constant term 1. exponent is an exact rational or a
    polynomial in t alone (for example -t/2); in the symbolic case the
    Pochhammer factors expand into polynomials in t. Every non-t variable
    group of base is truncated at total degree bound.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    base = MultiPoly.coerce(base)
    if base.constant_term != 1:
        raise ValueError("series_power requires constant term 1")
    minus_e = -_exponent_poly(exponent)
    groups = {_name_info(n)[0] for n in base.variables()} - {TAU_NAME}
    bounds = {g: bound for g in groups}
    u = MultiPoly.const(1) - base.truncate(bounds)
    if _has_pure_t_term(u):
        raise ValueError("series does not terminate: base has a pure-t term")
    acc = upow = poch = MultiPoly.const(1)
    m = 0
    while True:
        m += 1
        upow = upow.mul_truncated(u, bounds)
        if upow.is_zero:
            return acc
        poch = poch * (minus_e + (m - 1))
        acc = acc + (poch * Fraction(1, factorial(m))) * upow


def exp_series(argument: MultiPoly, bound: int) -> MultiPoly:
    """Truncated exponential series of a polynomial with zero constant term.

    Every non-t variable group of the argument is truncated at total degree
    bound; each term of the argument must involve a truncated group so the
    series terminates.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    argument = MultiPoly.coerce(argument)
    if argument.constant_term != 0:
        raise ValueError("exp_series requires zero constant term")
    groups = {_name_info(n)[0] for n in argument.variables()} - {TAU_NAME}
    bounds = {g: bound for g in groups}
    work = argument.truncate(bounds)
    if _has_pure_t_term(work):
        raise ValueError("series does not terminate: argument has a pure-t term")
    acc = pw = MultiPoly.const(1)
    m = 0
    while True:
        m += 1
        pw = pw.mul_truncated(work, bounds)
        if pw.is_zero:
            return acc
        acc = acc + pw * Fraction(1, factorial(m))
