"""Canonical JSON encoding of the exact values.

Rationals are strings "p/q" in lowest terms with positive denominator
("p" when the denominator is 1). Complex scalars are {"re": .., "im": ..},
matrices are row-major nested arrays, and polynomials are term lists of
{"exps": {...}, "coeff": {...}} in graded lexicographic order so equal
values always serialize to identical bytes.

`dumps` is the one encoder: every JSON document socone prints goes through
it, and its output is byte-identical to `json.dumps(obj, indent=2)`. The
standard library's C encoder does not support `indent`, so the stdlib call
would run its pure-Python generator encoder instead.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .matrices import DenseMatrix
from .poly import MultiPoly
from .scalars import GaussianRational


def fraction_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def fraction_from_str(text: str) -> Fraction:
    return Fraction(text)


def gaussian_to_json(value: GaussianRational) -> dict:
    # the parts are an int or a Fraction in lowest terms already
    value = GaussianRational.coerce(value)
    return {"re": str(value.re), "im": str(value.im)}


def gaussian_from_json(obj: dict) -> GaussianRational:
    return GaussianRational(fraction_from_str(obj["re"]), fraction_from_str(obj["im"]))


def matrix_to_json(matrix: DenseMatrix) -> list:
    return [[scalar_to_json(e) for e in row] for row in matrix.data]


def matrix_from_json(rows: list) -> DenseMatrix:
    return DenseMatrix([[scalar_from_json(e) for e in row] for row in rows])


def poly_to_json(poly: MultiPoly) -> list:
    out = []
    for mono, coeff in poly.canonical_items():
        out.append({"exps": dict(mono), "coeff": gaussian_to_json(coeff)})
    return out


def constant_to_json(value: GaussianRational) -> list:
    """poly_to_json(MultiPoly.const(value)), without building the polynomial."""
    return [{"exps": {}, "coeff": gaussian_to_json(value)}] if value else []


def poly_from_json(terms: list) -> MultiPoly:
    acc = MultiPoly.zero()
    for term in terms:
        mono = MultiPoly.const(gaussian_from_json(term["coeff"]))
        for name, e in term["exps"].items():
            mono = mono * MultiPoly.var(name) ** int(e)
        acc = acc + mono
    return acc


def scalar_to_json(value):
    if isinstance(value, MultiPoly):
        return poly_to_json(value)
    return gaussian_to_json(value)


def scalar_from_json(obj):
    if isinstance(obj, list):
        return poly_from_json(obj)
    return gaussian_from_json(obj)


def state_to_json(state) -> list:
    return [scalar_to_json(e) for e in state.entries]


def algebra_to_json(algebra) -> dict:
    """Basis labels and matrices in the canonical order R, L, rho0, rho_jk."""
    return {
        "n": algebra.n,
        "basis": [
            {"label": label, "matrix": matrix_to_json(matrix)}
            for label, matrix in algebra.generators.items()
        ],
    }


def multi_index_label(k) -> str:
    return ",".join(str(x) for x in k)


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for the values socone
    emits: dicts with str keys, lists, str, int, bool and None. Anything
    else raises TypeError."""
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
        if all(type(v) is str or type(v) is int for v in obj.values()):
            # a leaf dict (exponents, a complex coefficient) as one string
            out.append(
                "{"
                + inner
                + ("," + inner).join(
                    _quote(k) + ": " + (_quote(v) if type(v) is str else repr(v))
                    for k, v in obj.items()
                )
                + newline
                + "}"
            )
            return
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(repr(obj))
    elif kind is bool or obj is None:
        out.append(_CONSTANTS[obj])
    else:
        raise TypeError(f"cannot encode {kind.__name__} as JSON")
