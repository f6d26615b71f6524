"""Canonical JSON encoding of the exact values.

Rationals are strings "p/q" in lowest terms with positive denominator
("p" when the denominator is 1). Complex scalars are {"re": .., "im": ..},
matrices are row-major nested arrays, and polynomials are term lists of
{"exps": {...}, "coeff": {...}} in graded lexicographic order so equal
values always serialize to identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

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
