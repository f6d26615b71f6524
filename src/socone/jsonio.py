"""Canonical JSON encoding of the exact values.

Rationals are strings "p/q" in lowest terms with positive denominator
("p" when the denominator is 1). Complex scalars are {"re": .., "im": ..},
matrices are row-major nested arrays, and polynomials are term lists of
{"exps": {...}, "coeff": {...}} in graded lexicographic order so equal
values always serialize to identical bytes.

`dumps` is the one encoder: every JSON document socone prints goes through
it, and its output is byte-identical to `json.dumps(obj, indent=2)`. The
standard library's C encoder does not support `indent`, so the stdlib call
would run its pure-Python generator encoder instead. A MultiPoly or a
GaussianRational met as a value is written in place, straight from its
terms and reduced triples, byte-identical to `json.dumps` of its reference
tree (`poly_to_json`, `gaussian_to_json`) at the same indent, so a payload
carries the values themselves.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

from .matrices import DenseMatrix
from .poly import MultiPoly
from .scalars import GaussianRational, _part_str


# -- reference trees ---------------------------------------------------------------
# The form the tests compare dumps with. No command calls them; the benchmark
# tracer wraps them by name, so they stay until it stops.


def gaussian_to_json(value: GaussianRational) -> dict:
    """The reference tree of a complex scalar."""
    # the parts are an int or a Fraction in lowest terms already
    value = GaussianRational.coerce(value)
    return {"re": str(value.re), "im": str(value.im)}


def matrix_to_json(matrix: DenseMatrix) -> list:
    """The reference tree of a matrix: rows of scalar trees."""
    return [[scalar_to_json(e) for e in row] for row in matrix.data]


def poly_to_json(poly: MultiPoly) -> list:
    """The reference tree of a polynomial: its terms in canonical order."""
    out = []
    for mono, coeff in poly.canonical_items():
        out.append({"exps": dict(mono), "coeff": gaussian_to_json(coeff)})
    return out


def scalar_to_json(value):
    """The reference tree of a polynomial or a complex scalar."""
    if isinstance(value, MultiPoly):
        return poly_to_json(value)
    return gaussian_to_json(value)


def state_to_json(state) -> list:
    """The reference tree of a state vector: its entries' trees."""
    return [scalar_to_json(e) for e in state.entries]


class Terms:
    """A polynomial given by its canonical_items(), which dumps writes as
    the polynomial: a payload that also prints the polynomial's text sorts
    and decodes its terms once for both."""

    __slots__ = ("items",)

    def __init__(self, items: list):
        self.items = items


def multi_index_label(k) -> str:
    return ",".join(str(x) for x in k)


# -- the encoder -----------------------------------------------------------------


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for the values socone
    emits: dicts with str keys, lists, str, int, bool and None, with each
    MultiPoly or GaussianRational, and the polynomial of each Terms,
    standing for its reference tree, and a generator for the list of what
    it yields, made while it is written. Anything else raises TypeError."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _write(obj, out: list, newline: str) -> None:
    # newline is "\n" plus the indent of the level obj is written at
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        # _quote raises TypeError for a key that is not a str
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is GeneratorType:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]" if sep[0] == "," else "[]")
    elif kind is int:
        out.append(repr(obj))
    elif kind is bool or obj is None:
        out.append(_CONSTANTS[obj])
    elif kind is MultiPoly or kind is GaussianRational:
        _write_exact(obj, out, newline)
    elif kind is Terms:
        _write_terms(obj.items, out, newline)
    else:
        raise TypeError(f"cannot encode {kind.__name__} as JSON")


def _coeff(c: GaussianRational, newline: str) -> str:
    """gaussian_to_json(c) written at the level of newline."""
    d = c._d
    key = newline + '  "'
    return (
        "{" + key + 're": "' + _part_str(c._a, d) + '",'
        + key + 'im": "' + _part_str(c._b, d) + '"' + newline + "}"
    )


def _write_exact(value, out: list, newline: str) -> None:
    """Write poly_to_json(value) or gaussian_to_json(value) in place.

    A variable name is letters and digits, and a rational part digits, "-"
    and "/", so no string needs escaping.
    """
    if type(value) is GaussianRational:
        out.append(_coeff(value, newline))
    elif value.terms:
        _write_terms(value.canonical_items(), out, newline)
    else:
        # most Gram table entries are zero: skip the empty sort
        out.append("[]")


def _write_terms(items: list, out: list, newline: str) -> None:
    """Write the reference tree of the polynomial with these
    canonical_items() in place."""
    if not items:
        out.append("[]")
        return
    term = newline + "  "  # the level of each term's dict
    field = term + "  "  # the level of "exps" and "coeff"
    key = field + '  "'  # an exponent's key, at the level below
    open_exps = "{" + field + '"exps": '
    open_coeff = "," + field + '"coeff": '
    close_exps = field + "}"
    close = term + "}"
    pieces = {}  # (name, exponent) -> its "name": e line
    sep = "[" + term
    for mono, coeff in items:
        if mono:
            lines = []
            for item in mono:
                line = pieces.get(item)
                if line is None:
                    line = pieces[item] = key + item[0] + '": ' + str(item[1])
                lines.append(line)
            exps = "{" + ",".join(lines) + close_exps
        else:
            exps = "{}"
        out.append(sep + open_exps + exps + open_coeff + _coeff(coeff, field) + close)
        sep = "," + term
    out.append(newline + "]")
