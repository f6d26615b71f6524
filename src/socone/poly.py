"""Sparse multivariate polynomials with per-group degree truncation.

A variable name is an alphabetic group prefix plus an optional integer
index: "v1", "w2", "z3", "x1", "t". The group is the unit of truncation.
A bound of d on group "v" means every retained term has total v-degree
at most d, and ring operations stay exact through every retained degree:
the coefficient of any kept monomial equals the coefficient in the
untruncated result. The weight parameter "t" is never truncated; series
with symbolic exponents expand Pochhammer factors into polynomials in t.

Coefficients are GaussianRational, so all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import factorial
from operator import add, le, mul

from .scalars import GaussianRational

_GROUP_ORDER = {"v": 0, "w": 1, "z": 2, "x": 3}

# the canonical symbolic weight parameter ("tau" in formulas)
TAU_NAME = "t"


@cache
def _name_info(name: str) -> tuple:
    """(group, index, var_key) of a variable name, parsed once per name.

    A bad name raises ValueError on every call: exceptions are not cached.
    """
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
    return group, index, (rank, group, index)


def group_of(name: str) -> str:
    return _name_info(name)[0]


def var_key(name: str):
    """Canonical ordering key: v-group, w, z, x, then others, then t."""
    return _name_info(name)[2]


# A monomial is a tuple of (name, exponent) pairs, sorted by var_key,
# with no zero exponents.
def _mono(items) -> tuple:
    cleaned = [(n, e) for n, e in items if e]
    cleaned.sort(key=lambda it: _name_info(it[0])[2])
    return tuple(cleaned)


def _mono_sum(items) -> tuple:
    """The monomial of (name, exponent) pairs in any order, exponents of a
    repeated name summed."""
    exps = {}
    for name, e in items:
        exps[name] = exps.get(name, 0) + e
    return _mono(exps.items())


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return _mono(exps.items())


def _mono_degree(mono: tuple) -> int:
    return sum(e for _, e in mono)


def _mono_group_degree(mono: tuple, group: str) -> int:
    return sum(e for name, e in mono if _name_info(name)[0] == group)


def _group_degrees(mono: tuple, groups: tuple) -> tuple:
    return tuple(_mono_group_degree(mono, g) for g in groups)


def _mono_sort_key(mono: tuple):
    # graded lexicographic, leading (highest) term first
    return (-_mono_degree(mono), tuple((_name_info(n)[2], -e) for n, e in mono))


def _merge_trunc(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    merged = dict(a)
    for g, bound in b.items():
        merged[g] = min(merged.get(g, bound), bound)
    return merged


def _clip(terms: dict, trunc: dict) -> dict:
    if not trunc:
        return terms
    groups, bounds = tuple(trunc), tuple(trunc.values())
    return {
        mono: coeff
        for mono, coeff in terms.items()
        if all(map(le, _group_degrees(mono, groups), bounds))
    }


class MultiPoly:
    """Immutable sparse polynomial / truncated series over GaussianRational."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc=None):
        """terms maps monomials, given as (name, exponent) pairs in any
        order, to coefficients; monomials equal after sorting, dropping
        zero exponents and summing repeated names are added together."""
        summed = {}
        for mono, coeff in (terms or {}).items():
            key = _mono_sum(mono)
            c = GaussianRational.coerce(coeff)
            summed[key] = summed[key] + c if key in summed else c
        t = dict(trunc) if trunc else {}
        cleaned = {m: c for m, c in summed.items() if c}
        object.__setattr__(self, "terms", _clip(cleaned, t))
        object.__setattr__(self, "trunc", t)

    @classmethod
    def _make(cls, terms: dict, trunc: dict) -> "MultiPoly":
        """Wrap terms that already have nonzero GaussianRational coefficients
        and lie within trunc, unchecked. Neither dict may be mutated later."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trunc", trunc)
        return self

    @classmethod
    def _clipped(cls, terms: dict, trunc=None) -> "MultiPoly":
        """Wrap canonical terms with nonzero GaussianRational coefficients,
        dropping those beyond trunc."""
        t = dict(trunc) if trunc else {}
        return cls._make(_clip(terms, t), t)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, trunc=None):
        return cls._clipped({}, trunc)

    @classmethod
    def const(cls, value, trunc=None):
        c = GaussianRational.coerce(value)
        return cls._clipped({(): c} if c else {}, trunc)

    @classmethod
    def var(cls, name: str, trunc=None):
        _name_info(name)  # validates
        return cls._clipped({((name, 1),): GaussianRational(1)}, trunc)

    @staticmethod
    def coerce(value, trunc=None) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(GaussianRational.coerce(value), trunc)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        trunc = _merge_trunc(self.trunc, other.trunc)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            s = coeff if acc is None else acc + coeff
            if s:
                terms[mono] = s
            elif acc is not None:
                del terms[mono]
        if trunc != self.trunc or trunc != other.trunc:
            terms = _clip(terms, trunc)
        return MultiPoly._make(terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({m: -c for m, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if not c:
                return MultiPoly.zero(self.trunc)
            terms = {m: k * c for m, k in self.terms.items()}
            return MultiPoly._make(terms, self.trunc)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        trunc = _merge_trunc(self.trunc, other.trunc)
        groups, bounds = tuple(trunc), tuple(trunc.values())
        right = [(m, c, _group_degrees(m, groups)) for m, c in other.terms.items()]
        out = {}
        for m1, c1 in self.terms.items():
            d1 = _group_degrees(m1, groups)
            for m2, c2, d2 in right:
                # group degrees add under multiplication, so a product beyond
                # the bounds is dropped before its monomial is formed
                if groups and not all(map(le, map(add, d1, d2), bounds)):
                    continue
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(mono)
                s = c if acc is None else acc + c
                if s:
                    out[mono] = s
                elif acc is not None:
                    del out[mono]
        return MultiPoly._make(out, trunc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = MultiPoly.const(1, self.trunc)
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
        return all(not m for m in self.terms)

    @property
    def constant_term(self) -> GaussianRational:
        return self.terms.get((), GaussianRational(0))

    def as_gaussian(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.constant_term

    def variables(self) -> set:
        return {n for m in self.terms for n, _ in m}

    def degree(self, group: str | None = None) -> int:
        """Total degree, or total degree within one group. Zero poly gives -1."""
        if not self.terms:
            return -1
        if group is None:
            return max(_mono_degree(m) for m in self.terms)
        return max(_mono_group_degree(m, group) for m in self.terms)

    def coefficient(self, mono_items) -> GaussianRational:
        return self.terms.get(_mono_sum(mono_items), GaussianRational(0))

    # -- calculus and rewriting -------------------------------------------------

    def truncate(self, bounds: dict) -> "MultiPoly":
        return MultiPoly._clipped(self.terms, _merge_trunc(self.trunc, bounds))

    def drop_truncation(self) -> "MultiPoly":
        return MultiPoly._make(self.terms, {})

    def diff(self, name: str) -> "MultiPoly":
        out = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            e = exps.get(name, 0)
            if not e:
                continue
            exps[name] = e - 1
            out[_mono(exps.items())] = coeff * e
        return MultiPoly._make(out, self.trunc)

    def subs(self, assignments: dict) -> "MultiPoly":
        """Substitute variables by scalars or polynomials.

        A scalar value multiplies straight into the coefficient; polynomial
        products are formed only for the terms that meet a polynomial value,
        whose truncation merges into the result's.
        """
        items = assignments.items()
        polys = {n: v for n, v in items if isinstance(v, MultiPoly)}
        scalars = {n: GaussianRational.coerce(v) for n, v in items if n not in polys}
        terms = {}
        products = MultiPoly.zero(self.trunc)
        for mono, coeff in self.terms.items():
            rest, pieces = [], []
            for name, e in mono:
                if name in polys:
                    pieces.append(polys[name] ** e)
                elif name in scalars:
                    for _ in range(e):
                        coeff = coeff * scalars[name]
                else:
                    rest.append((name, e))
            if pieces:
                factor = MultiPoly._make({tuple(rest): coeff} if coeff else {}, self.trunc)
                products = products + reduce(mul, pieces, factor)
            else:
                # the untouched variables keep their order and stay in bounds
                key = tuple(rest)
                terms[key] = terms[key] + coeff if key in terms else coeff
        terms = {m: c for m, c in terms.items() if c}
        return MultiPoly._make(terms, self.trunc) + products

    def conj(self) -> "MultiPoly":
        """Conjugate the coefficients; the indeterminates are treated as real."""
        return MultiPoly._make({m: c.conj() for m, c in self.terms.items()}, self.trunc)

    def split_groups(self, groups) -> dict:
        """Group terms by their monomial part in the given variable groups.

        Returns a map from that monomial part to the polynomial cofactor in
        the remaining variables (truncation metadata is dropped on pieces).
        """
        groups = set(groups)
        buckets = {}
        for mono, coeff in self.terms.items():
            # both parts of a sorted monomial are sorted monomials already
            key = tuple(it for it in mono if _name_info(it[0])[0] in groups)
            rest = tuple(it for it in mono if _name_info(it[0])[0] not in groups)
            buckets.setdefault(key, {})[rest] = coeff
        return {key: MultiPoly._make(terms, {}) for key, terms in buckets.items()}

    def split_index(self, group: str, n: int) -> dict:
        """split_groups for one group, keyed by multi-index: the cofactor of
        group1^k1 ... groupn^kn is stored under (k1, ..., kn)."""
        out = {}
        for mono, cofactor in self.split_groups({group}).items():
            k = [0] * n
            for name, e in mono:
                k[_name_info(name)[1] - 1] = e
            out[tuple(k)] = cofactor
        return out

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ValueError if it does not divide.

        Only meaningful on untruncated polynomials.
        """
        if self.trunc or divisor.trunc:
            raise ValueError("exact_divide requires untruncated polynomials")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = min(divisor.terms, key=_mono_sort_key)
        lead_coeff = divisor.terms[lead]
        lead_exps = dict(lead)
        remainder = self
        quotient = {}
        while remainder.terms:
            rm = min(remainder.terms.keys(), key=_mono_sort_key)
            exps = dict(rm)
            q_exps = {}
            for name, e in lead_exps.items():
                d = exps.get(name, 0) - e
                if d < 0:
                    raise ValueError("not exactly divisible")
                q_exps[name] = d
            for name, e in exps.items():
                if name not in lead_exps:
                    q_exps[name] = e
            q_mono = _mono(q_exps.items())
            q_coeff = remainder.terms[rm] / lead_coeff
            quotient[q_mono] = quotient.get(q_mono, GaussianRational(0)) + q_coeff
            remainder = remainder - MultiPoly._make({q_mono: q_coeff}, {}) * divisor
        return MultiPoly(quotient)

    # -- display -------------------------------------------------------------------

    def canonical_items(self):
        """Terms in graded lexicographic order, leading term first."""
        for mono in sorted(self.terms, key=_mono_sort_key):
            yield mono, self.terms[mono]

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
    def _coeff_str(c: GaussianRational) -> str:
        s = str(c)
        if c.re != 0 and c.im != 0:
            return f"({s})"
        return s

    def __str__(self):
        return self._render(
            lambda v, e: f"{v}^{e}", lambda n: n, self._coeff_str, "*"
        )

    def latex(self) -> str:
        def name_fmt(n):
            group, index, _ = _name_info(n)
            if group == TAU_NAME and not index:
                return r"\tau"
            return f"{group}_{{{index}}}" if index else group

        return self._render(
            lambda v, e: f"{v}^{{{e}}}", name_fmt, self._coeff_str, r" \, "
        )

    def __repr__(self):
        return f"MultiPoly({self})"


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
        return exponent.drop_truncation()
    raise TypeError(f"unsupported series exponent {exponent!r}")


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
    work = base.truncate({g: bound for g in groups})
    u = MultiPoly.const(1, work.trunc) - work
    for mono in u.terms:
        if all(_name_info(n)[0] == TAU_NAME for n, _ in mono):
            raise ValueError("series does not terminate: base has a pure-t term")
    acc = MultiPoly.const(1, work.trunc)
    upow = MultiPoly.const(1, work.trunc)
    poch = MultiPoly.const(1)
    m = 0
    while True:
        m += 1
        upow = upow * u
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
    work = argument.truncate({g: bound for g in groups})
    for mono in work.terms:
        if all(_name_info(n)[0] == TAU_NAME for n, _ in mono):
            raise ValueError("series does not terminate: argument has a pure-t term")
    acc = MultiPoly.const(1, work.trunc)
    pw = MultiPoly.const(1, work.trunc)
    m = 0
    while True:
        m += 1
        pw = pw * work
        if pw.is_zero:
            return acc
        acc = acc + pw * Fraction(1, factorial(m))
