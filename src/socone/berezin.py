"""The coherent-state transform of operators and the identities behind the
hat realization: the raising symbol, the first-order system solved by the
pairing, the alternate lowering form, and the ordering recipe.

Rational-function identities are verified by clearing the weight power and
comparing polynomials, never by sampling alone. The Fock side holds no
coherent vector: with psi_v = sum_k v^k/k! |k>, component k of Q psi_v is
sum_m Q[k, m] v^m/m!, and <psi_w, Q psi_v> has (G Q)[k, m] / (k! m!) at
w^k v^m. The ordering recipe, the raising rows and the vacuum symbol
compare these integer tables, the vacuum rows products with the vacuum
projector, and the transform and the public series read the slices of
G Q through fock.pairing_series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from operator import add

from .algebra import OperatorWord, build_algebra, word_to_matrix
from .fock import FockMatrix, _shift, build_hat, gram_matrix, mi_degree
from .fock import mi_factorial, multi_indices, pairing_series
from .matrices import dot
from .poly import MultiPoly, TAU, _sum_into
from .report import CheckResult, Report
from .states import (
    lambda_factor,
    leibniz_base,
    leibniz_base_value,
    leibniz_closed_form,
    moved_vacuum,
)


class PoleError(ZeroDivisionError):
    pass


def _words(word_or_words):
    if isinstance(word_or_words, OperatorWord):
        return [word_or_words]
    return list(word_or_words)


def _operator(words, family):
    """The sum of the words' operators in either realization."""
    return sum((word_to_matrix(family, w) for w in words), 0 * family.identity)


def fock_pairing_series(words, n: int, degree_bound: int) -> MultiPoly:
    """<psi_w, Q psi_v> as a truncated double series, weight symbolic: the
    pairing series of G Q."""
    q = _operator(_words(words), build_hat(n, degree_bound))
    return pairing_series(gram_matrix(n, degree_bound) * q)


def berezin_transform(word_or_words, w, v):
    """Normalized coherent matrix element of an operator word, exact.

    In the matrix realization the weight is -2, the pairing denominator is
    the Leibniz value at (w, v), and the numerator is the vacuum functional
    of exp(w.L) Q exp(v.R) vacuum. The same number is recomputed through
    the Fock pairing at weight -2 and asserted equal.
    """
    words = _words(word_or_words)
    n = len(w)
    if len(v) != n:
        raise ValueError("w and v must have the same length")
    alg = build_algebra(n)
    den = leibniz_base_value(w, v)
    if not den:
        raise PoleError("the pairing vanishes at this point")
    numerator = lambda_factor(moved_vacuum(w, v, _operator(words, alg)))
    bound = 3 + max((len(x.factors) for x in words), default=0)
    series = fock_pairing_series(words, n, bound).subs({"t": Fraction(-2)})
    point = {f"w{j}": c for j, c in enumerate(w, 1)}
    point.update((f"v{j}", c) for j, c in enumerate(v, 1))
    via_fock = series.subs(point).as_gaussian()
    if via_fock != numerator:
        raise AssertionError("matrix and Fock numerators disagree at weight -2")
    return numerator / den


def berezin_symbol_series(word_or_words, n: int, degree_bound: int):
    """(numerator series, denominator series) at symbolic weight."""
    num = fock_pairing_series(word_or_words, n, degree_bound)
    den = leibniz_closed_form(n, degree_bound)
    return num, den


def verify_raising_identity(n: int, degree_bound: int = 4) -> Report:
    """The raising symbol is the v_j-derivative of the log of the pairing.

    Cleared form: with P the pairing base, t (w_j - v_j w.w) must equal
    -(t/2) dP/dv_j exactly. The Fock numerator series of R_j,
    sum (G R_j)[k, m] w^k v^m / (k! m!), must be the v_j-derivative of the
    pairing series sum G[k, m] w^k v^m / (k! m!), compared in integers on
    the Gram table's t-slices: (G R_j)[k, m] against G[k, m + e_j], as
    k! (m + e_j)! = k! m! (m_j + 1).
    """
    base = leibniz_base(n)
    w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
    w2 = dot(w, w)
    checks = []
    for j in range(1, n + 1):
        dv = base.diff(f"v{j}")
        lhs = TAU * (w[j - 1] - MultiPoly.var(f"v{j}") * w2)
        same = lhs == Fraction(-1, 2) * TAU * dv
        checks.append(CheckResult(f"cleared raising symbol for j={j}", same))
        at_zero = dv.subs({f"w{i}": 0 for i in range(1, n + 1)})
        checks.append(CheckResult(f"raising symbol vanishes at w=0 for j={j}", at_zero.is_zero))
    hat, gram = build_hat(n, degree_bound), gram_matrix(n, degree_bound)
    basis, index = hat.identity.basis, hat.identity.index
    for j in range(1, n + 1):
        # the cells of the columns m + e_j, moved to the columns m
        moved = {}
        for e, part in gram.slices.items():
            for (r, col), c in part.items():
                if (m := basis[col])[j - 1]:
                    moved.setdefault(e, {})[r, index[_shift(m, j, -1)]] = c
        same = (gram * hat.R(j)).slices == moved
        name = f"Fock numerator for R{j} is d/dv{j} of the pairing series"
        checks.append(CheckResult(name, same))
    return Report(f"raising symbol (n={n})", checks)


def verify_pde_system(n: int) -> Report:
    """The first-order system solved by the pairing, cleared to polynomials:

    -(t/2) dP/dw_j = t v_j P - t v_j v_l dP/dv_l + (t/2) v.v dP/dv_j.
    """
    base = leibniz_base(n)
    v = [MultiPoly.var(f"v{j}") for j in range(1, n + 1)]
    v2 = dot(v, v)
    # v_l dP/dv_l, summed over l, is the same for every j
    sum_term = dot(v, [base.diff(f"v{l}") for l in range(1, n + 1)])
    checks = []
    for j in range(1, n + 1):
        lhs = Fraction(-1, 2) * TAU * base.diff(f"w{j}")
        rhs = (
            TAU * v[j - 1] * base
            - TAU * v[j - 1] * sum_term
            + Fraction(1, 2) * TAU * v2 * base.diff(f"v{j}")
        )
        checks.append(CheckResult(f"first-order identity for j={j}", lhs == rhs))
        degrees = lhs.degrees("t") | rhs.degrees("t")
        checks.append(
            CheckResult(f"t-homogeneity of degree 1 for j={j}", degrees <= {1})
        )
    return Report(f"first-order pairing system (n={n})", checks)


def bessel_form_check(n: int, degree_bound: int) -> Report:
    """The lowering operator agrees with rho0 V_j - R_j V.V, everywhere."""
    hat = build_hat(n, degree_bound)
    vsq = dot(hat.lowering, hat.lowering)
    checks = []
    omega = FockMatrix(n, degree_bound, {(0, 0): 1})
    for j in range(1, n + 1):
        alt = hat.rho0 * hat.shift_lower(j) - hat.R(j) * vsq
        checks.append(CheckResult(f"lowering form for j={j}", alt == hat.L(j)))
        ok = (hat.L(j) * omega).is_zero and (alt * omega).is_zero
        checks.append(CheckResult(f"both forms annihilate the vacuum for j={j}", ok))
    return Report(f"alternate lowering form (n={n}, D={degree_bound})", checks)


# -- word rewriting and the ordering recipe ------------------------------------


def normal_order(word) -> dict:
    """Rewrite a shift-operator word with every raise left of every lower.

    word is a tuple of ("R", j) and ("V", j) pairs. Returns a map
    (raises, lowers) -> integer coefficient, where raises and lowers are
    sorted tuples of slot indices, using [V_j, R_j] = 1.
    """
    ordered = []  # (key, coefficient) of each normal word reached
    stack = [(1, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        swap_at = None
        for i in range(len(w) - 1):
            if w[i][0] == "V" and w[i + 1][0] == "R":
                swap_at = i
                break
        if swap_at is None:
            raises = tuple(sorted(j for kind, j in w if kind == "R"))
            lowers = tuple(sorted(j for kind, j in w if kind == "V"))
            ordered.append(((raises, lowers), coeff))
            continue
        a, b = w[swap_at], w[swap_at + 1]
        swapped = w[:swap_at] + (b, a) + w[swap_at + 2 :]
        stack.append((coeff, swapped))
        if a[1] == b[1]:
            stack.append((coeff, w[:swap_at] + w[swap_at + 2 :]))
    return _sum_into({}, ordered)


# the longest word wick_recipe_check compares
MAX_WORD_LENGTH = 3


def wick_recipe_check(n: int, degree_bound: int) -> Report:
    """Direct shift action on the coherent vector versus the ordering
    substitution, for every word of at most MAX_WORD_LENGTH letters.

    Both routes are integer tables W[k, m], component k of Q psi_v scaled by
    m! at v^m: the product of the hat's integer shift slices on the direct
    route, and c m!/(k-a)! at m = k - a + b for each normal term c R^a V^b
    on the substitution route. They are compared on the rows
    multi_indices(n, safe), safe = D - MAX_WORD_LENGTH, and the columns of
    degree <= safe. That is exact: MAX_WORD_LENGTH raises carry such a
    column to degree <= D, never past the truncation boundary. Below
    D = MAX_WORD_LENGTH there is nothing to compare, and ValueError is raised.

    A shift sends a basis state to one basis state, so a word's direct table,
    its first letter applied to the kept table of the rest of the word, holds
    one entry per column. Each normal term's table is made once.
    """
    if degree_bound < MAX_WORD_LENGTH:
        raise ValueError(f"need truncation degree at least {MAX_WORD_LENGTH}")
    hat = build_hat(n, degree_bound)
    safe = degree_bound - MAX_WORD_LENGTH
    basis, index = hat.identity.basis, hat.identity.index
    compared = multi_indices(n, safe)
    rows = {index[k] for k in compared}
    letters = {}  # letter -> {column: (row, entry)} of its integer shift slice
    for kind, shift in (("R", hat.R), ("V", hat.shift_lower)):
        for j in range(1, n + 1):
            letters[kind, j] = {c: (r, x) for (r, c), x in shift(j).slices[0].items()}
    words = [w for size in range(MAX_WORD_LENGTH + 1) for w in product(letters, repeat=size)]

    @cache
    def term_table(raises, lowers):
        # k = p + a and m = p + b, both of degree <= safe
        a, b = ([x.count(j) for j in range(1, n + 1)] for x in (raises, lowers))
        table = {}
        for p in basis:
            if mi_degree(p) > safe - max(len(raises), len(lowers)):
                break
            if (r := index[tuple(map(add, p, a))]) in rows:
                m = tuple(map(add, p, b))
                table[r, index[m]] = mi_factorial(m) // mi_factorial(p)
        return table

    # the direct tables of the words that are suffixes of longer ones
    suffixes = {(): {c: (c, 1) for c, k in enumerate(basis) if mi_degree(k) <= safe}}
    mismatches = 0
    for word in words:
        direct = suffixes[word[1:]]
        if word:
            letter = letters[word[0]]
            direct = {c: (s[0], s[1] * v) for c, (r, v) in direct.items() if (s := letter.get(r))}
            if len(word) < MAX_WORD_LENGTH:
                suffixes[word] = direct
        subst = {}
        for key, coeff in normal_order(word).items():
            _sum_into(subst, ((pos, coeff * x) for pos, x in term_table(*key).items()))
        mismatches += subst != {(r, c): v for c, (r, v) in direct.items() if r in rows}
    # a row that compared no component has shown nothing, so it fails
    detail = f"{mismatches} mismatches" if mismatches else ""
    check = CheckResult(
        f"all {len(words)} words of length <= {MAX_WORD_LENGTH} agree",
        bool(compared) and mismatches == 0,
        detail=detail if compared else "no component compared",
    )
    return Report(f"ordering recipe (n={n}, D={degree_bound})", [check])


def hat_from_pde_check(n: int, degree_bound: int) -> Report:
    """Reading the lowering operators off the first-order system reproduces
    the built family exactly.

    The right side t v_j + 2 v_j v_l d_l - v.v d_j maps, with multiplication
    v_m -> V_m and derivative d_m -> R_m and factor order reversed, onto
    t V_j + 2 R_l V_l V_j - R_j V.V.
    """
    hat = build_hat(n, degree_bound)
    checks = []
    for j in range(1, n + 1):
        acc = TAU * hat.shift_lower(j)
        for l in range(1, n + 1):
            acc = acc + 2 * (
                hat.R(l) * hat.shift_lower(l) * hat.shift_lower(j)
            )
            acc = acc - hat.R(j) * (
                hat.shift_lower(l) * hat.shift_lower(l)
            )
        checks.append(
            CheckResult(f"lowering operator read off the system, j={j}", acc == hat.L(j))
        )
    return Report(f"system to hat realization (n={n}, D={degree_bound})", checks)


def vacuum_symbol_check(n: int, degree_bound: int = 3) -> Report:
    """The transform of rho0 at w=v=0 is the weight itself: the vacuum cell
    of G rho0^ is t, and that of G is 1. Both keep the degree, so the vacuum
    cell of the product is the product of the vacuum cells."""
    hat = build_hat(n, degree_bound)
    gram, one = gram_matrix(n, degree_bound).restrict(0), hat.identity.restrict(0)
    ok = gram * hat.rho0.restrict(0) == TAU * one and gram == one
    row = CheckResult("transform of rho0 at the origin equals t", ok)
    return Report(f"vacuum symbol (n={n})", [row])
