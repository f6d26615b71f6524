import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from socone.algebra import build_algebra
from socone.jsonio import (
    Terms,
    dumps,
    gaussian_to_json,
    matrix_to_json,
    multi_index_label,
    poly_to_json,
    state_to_json,
)
from socone.matrices import DenseMatrix
from socone.poly import MultiPoly, TAU
from socone.scalars import gr
from socone.states import coherent_state

from conftest import printed_polys


# -- a reader of the encoded values, so that round trips check the encoder ------


def read_gaussian(obj):
    return gr(Fraction(obj["re"]), Fraction(obj["im"]))


def read_poly(terms):
    acc = MultiPoly.zero()
    for term in terms:
        mono = tuple(term["exps"].items())
        acc = acc + MultiPoly({mono: read_gaussian(term["coeff"])})
    return acc


def read_scalar(obj):
    return read_poly(obj) if isinstance(obj, list) else read_gaussian(obj)


def read_matrix(rows):
    return DenseMatrix([[read_scalar(e) for e in row] for row in rows])


def test_fraction_strings():
    # rationals are written "p/q" in lowest terms, "p" when integral
    encoded = gaussian_to_json(gr(Fraction(3, 1), Fraction(-6, 4)))
    assert encoded == {"re": "3", "im": "-3/2"}
    assert read_gaussian({"re": "-3/2", "im": "7"}) == gr(Fraction(-3, 2), 7)


def test_gaussian_roundtrip():
    x = gr(Fraction(1, 2), Fraction(-5, 3))
    encoded = gaussian_to_json(x)
    assert encoded == {"re": "1/2", "im": "-5/3"}
    assert read_gaussian(encoded) == x


def test_matrix_roundtrip():
    alg = build_algebra(2)
    encoded = matrix_to_json(alg.R(1))
    assert read_matrix(encoded) == alg.R(1)
    # row-major nested arrays of {re, im}: R1 has i at (1,3) and 1 at (1,4)
    assert encoded[0][2] == {"re": "0", "im": "1"}
    assert encoded[0][3] == {"re": "1", "im": "0"}


def test_poly_roundtrip_and_canonical_order():
    p = 2 * TAU * TAU + MultiPoly.var("x1") - 1
    encoded = poly_to_json(p)
    assert read_poly(encoded) == p
    # graded lex, leading term first, so t^2 precedes x1 precedes the constant
    assert [term["exps"] for term in encoded] == [{"t": 2}, {"x1": 1}, {}]
    # byte stability
    assert json.dumps(encoded) == json.dumps(poly_to_json(p))


def test_state_encoding():
    state = coherent_state([1])
    assert state_to_json(state) == [
        {"re": "0", "im": "2"},
        {"re": "2", "im": "0"},
        {"re": "0", "im": "0"},
    ]


def test_multi_index_labels():
    assert multi_index_label((0, 2, 1)) == "0,2,1"
    assert multi_index_label((3,)) == "3"


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.text()
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300)
@given(_json_values)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}]})
@example({"exps": {"t": 1, "x1": 2}, "coeff": {"re": "-1/2", "im": "0"}})
@example({"flag": True, "none": None, "big": -(10**40)})
@example({"\u00e9\"\\\n\x00\x1f\u2028": "caf\u00e9 \"q\" \\ \t\x7f \U0001f600"})
def test_dumps_matches_stdlib_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), 1.5, {"re": 1.5}, [1, Fraction(3)], {1: "a"}, ("a", "b")],
)
def test_dumps_rejects_unsupported_values(obj):
    with pytest.raises(TypeError):
        dumps(obj)


_parts = st.fractions(-5, 5, max_denominator=4)
_gaussians = st.builds(gr, _parts, _parts)


@settings(derandomize=True, max_examples=100)
@given(_gaussians)
@example(gr(0))
@example(gr(-3, 0))
@example(gr(0, Fraction(-1, 2)))
def test_a_constant_is_written_in_the_polynomial_form(c):
    poly = MultiPoly.const(c)
    assert dumps(poly) == json.dumps(poly_to_json(poly), indent=2)
    if not c.im:
        # a numeric Gram cell is printed as its rational
        assert str(c.as_fraction()) == str(poly)


# -- exact values written in place by dumps ---------------------------------------

# (value, reference tree) pairs: a leaf of the payload and what it stands for
_exact_pairs = (
    printed_polys().map(lambda p: (p, poly_to_json(p)))
    | printed_polys().map(lambda p: (Terms(p.canonical_items()), poly_to_json(p)))
    | _gaussians.map(lambda g: (g, gaussian_to_json(g)))
)
_plain_pairs = (
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.text(max_size=4)
).map(lambda x: (x, x))


@st.composite
def _payloads(draw):
    """(payload, reference payload): an exact value at depth 0 to 3, in
    lists, generators and dicts among other exact and plain leaves."""
    value, ref = draw(_exact_pairs)
    for _ in range(draw(st.integers(0, 3))):
        items = draw(st.lists(_exact_pairs | _plain_pairs, max_size=2))
        items.insert(draw(st.integers(0, len(items))), (value, ref))
        values = [v for v, _ in items]
        refs = [r for _, r in items]
        container = draw(st.sampled_from(["list", "generator", "dict"]))
        if container == "list":
            value, ref = values, refs
        elif container == "generator":
            value, ref = (v for v in values), refs
        else:
            size = len(items)
            keys = draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True))
            value, ref = dict(zip(keys, values)), dict(zip(keys, refs))
    return value, ref


@settings(derandomize=True, max_examples=300)
@given(_payloads())
@example((MultiPoly.zero(), []))
@example((Terms([]), []))
@example(({"g": (x for x in [])}, {"g": []}))
@example(({"c": [gr(0, -1)]}, {"c": [gaussian_to_json(gr(0, -1))]}))
def test_dumps_writes_exact_values_as_their_reference_trees(pair):
    value, ref = pair
    assert dumps(value) == json.dumps(ref, indent=2)
