"""The coherent-state transform of operators and the identities behind the
hat realization: the raising symbol, the first-order system solved by the
pairing, the alternate lowering form, and the ordering recipe.

Rational-function identities are verified by clearing the weight power and
comparing polynomials, never by sampling alone.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import OperatorWord, build_algebra, word_to_matrix
from .fock import (
    build_hat,
    coherent_vector,
    gram_matrix,
    multi_indices,
    pair,
    vacuum_vector,
)
from .matrices import dot
from .poly import MultiPoly, TAU
from .report import CheckResult, Report
from .scalars import GaussianRational
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
    """<psi_w, Q psi_v> as a truncated double series, weight symbolic."""
    q = _operator(_words(words), build_hat(n, degree_bound))
    left = coherent_vector(n, degree_bound, "w")
    right = coherent_vector(n, degree_bound, "v")
    return pair(gram_matrix(n, degree_bound), left, q.apply(right))


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
    wc = [GaussianRational.coerce(c) for c in w]
    vc = [GaussianRational.coerce(c) for c in v]
    numerator = lambda_factor(moved_vacuum(wc, vc, _operator(words, alg)))
    bound = 3 + max((len(x.factors) for x in words), default=0)
    series = fock_pairing_series(words, n, bound).subs({"t": Fraction(-2)})
    point = {}
    for j in range(1, n + 1):
        point[f"w{j}"] = wc[j - 1]
        point[f"v{j}"] = vc[j - 1]
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
    -(t/2) dP/dv_j exactly, and the Fock numerator series for R_j must be
    the v_j-derivative of the pairing series.
    """
    base = leibniz_base(n)
    w = [MultiPoly.var(f"w{j}") for j in range(1, n + 1)]
    w2 = dot(w, w)
    checks = []
    for j in range(1, n + 1):
        vj = MultiPoly.var(f"v{j}")
        lhs = TAU * (w[j - 1] - vj * w2)
        rhs = Fraction(-1, 2) * TAU * base.diff(f"v{j}")
        checks.append(
            CheckResult(f"cleared raising symbol for j={j}", lhs == rhs)
        )
        dv = base.diff(f"v{j}")
        checks.append(
            CheckResult(
                f"raising symbol vanishes at w=0 for j={j}",
                dv.subs({f"w{i}": 0 for i in range(1, n + 1)}).is_zero,
            )
        )
    series = leibniz_closed_form(n, degree_bound)
    for j in range(1, n + 1):
        fock_num = fock_pairing_series(OperatorWord.of(f"R{j}"), n, degree_bound)
        checks.append(
            CheckResult(
                f"Fock numerator for R{j} is d/dv{j} of the pairing series",
                fock_num == series.diff(f"v{j}"),
            )
        )
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
    omega = vacuum_vector(n)
    for j in range(1, n + 1):
        alt = hat.rho0 * hat.shift_lower(j) - hat.R(j) * vsq
        checks.append(CheckResult(f"lowering form for j={j}", alt == hat.L(j)))
        checks.append(
            CheckResult(
                f"both forms annihilate the vacuum for j={j}",
                not hat.L(j).apply(omega) and not alt.apply(omega),
            )
        )
    return Report(f"alternate lowering form (n={n}, D={degree_bound})", checks)


# -- word rewriting and the ordering recipe ------------------------------------


def normal_order(word) -> dict:
    """Rewrite a shift-operator word with every raise left of every lower.

    word is a tuple of ("R", j) and ("V", j) pairs. Returns a map
    (raises, lowers) -> integer coefficient, where raises and lowers are
    sorted tuples of slot indices, using [V_j, R_j] = 1.
    """
    result = {}
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
            key = (raises, lowers)
            result[key] = result.get(key, 0) + coeff
            if not result[key]:
                del result[key]
            continue
        a, b = w[swap_at], w[swap_at + 1]
        swapped = w[:swap_at] + (b, a) + w[swap_at + 2 :]
        stack.append((coeff, swapped))
        if a[1] == b[1]:
            stack.append((coeff, w[:swap_at] + w[swap_at + 2 :]))
    return result


def _diffop_apply(normal_terms: dict, vector: dict, derivatives: dict):
    """Apply the ordering substitution to a coherent-parameter vector.

    A normal word R^a V^b acts on the parameter side as multiplication by
    v^b after differentiation d^a; the substitution reverses the factor
    order, matching the adjoint-style pairing of the two pictures.
    derivatives caches the nonzero components of d^a vector per raises
    tuple a; pass the same dict only with the same vector.
    """
    out = {}
    for (raises, lowers), coeff in normal_terms.items():
        moved = derivatives.get(raises)
        if moved is None:
            moved = {}
            for k, poly in vector.items():
                p = MultiPoly.coerce(poly)
                for j in raises:
                    p = p.diff(f"v{j}")
                if p:
                    moved[k] = p
            derivatives[raises] = moved
        factor = MultiPoly.const(coeff)
        for j in lowers:
            factor = factor * MultiPoly.var(f"v{j}")
        for k, p in moved.items():
            p = p * factor
            acc = out.get(k)
            out[k] = p if acc is None else acc + p
    return {k: v for k, v in out.items() if v}


# the longest word wick_recipe_check compares
MAX_WORD_LENGTH = 3


def wick_recipe_check(n: int, degree_bound: int) -> Report:
    """Direct shift action on the coherent vector versus the ordering
    substitution, for every word of at most MAX_WORD_LENGTH letters.

    Both routes act only on the components of the coherent vector of
    degree at most safe = D - MAX_WORD_LENGTH, and are compared there. That
    is exact. Component k is v^k/k!. In the direct route a term's v-degree
    is the degree of its source component, and at most MAX_WORD_LENGTH raises
    carry a source of degree <= safe to degree <= D, never past the
    truncation boundary, so no other component reaches the compared block.
    The substitution route keeps each component's index; it is compared
    up to v-degree safe, because its lowers raise the v-degree. Below
    D = MAX_WORD_LENGTH there is nothing to compare, and ValueError is raised.

    The direct route applies a word's first letter to the vector of the
    rest of the word, so each word costs one shift; the substitution route
    shares each derivative of the coherent vector between the words that
    need it.
    """
    if degree_bound < MAX_WORD_LENGTH:
        raise ValueError(f"need truncation degree at least {MAX_WORD_LENGTH}")
    hat = build_hat(n, degree_bound)
    safe = degree_bound - MAX_WORD_LENGTH
    compared = multi_indices(n, safe)
    psi = coherent_vector(n, safe, "v")
    alphabet = [("R", j) for j in range(1, n + 1)] + [
        ("V", j) for j in range(1, n + 1)
    ]
    words = [()]
    for length in range(MAX_WORD_LENGTH):
        words.extend(
            w + (a,) for w in list(words) if len(w) == length for a in alphabet
        )
    checks = []
    mismatches = 0
    # direct vectors of the words that are suffixes of longer ones
    suffixes = {(): psi}
    derivatives = {}
    empty = MultiPoly.zero()

    for word in words:
        direct = psi
        if word:
            kind, j = word[0]
            op = hat.R(j) if kind == "R" else hat.shift_lower(j)
            direct = op.apply(suffixes[word[1:]])
            if len(word) < MAX_WORD_LENGTH:
                suffixes[word] = direct
        subst = _diffop_apply(normal_order(word), psi, derivatives)
        for k in compared:
            low = subst.get(k, empty).truncate({"v": safe}).terms
            if direct.get(k, empty).terms != low:
                mismatches += 1
                break
    # a row that compared no component has shown nothing, so it fails
    detail = f"{mismatches} mismatches" if mismatches else ""
    checks.append(
        CheckResult(
            f"all {len(words)} words of length <= {MAX_WORD_LENGTH} agree",
            bool(compared) and mismatches == 0,
            detail=detail if compared else "no component compared",
        )
    )
    return Report(f"ordering recipe (n={n}, D={degree_bound})", checks)


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
    """The transform of rho0 at w=v=0 is the weight itself."""
    num, den = berezin_symbol_series(OperatorWord.of("rho0"), n, degree_bound)
    zero_point = {}
    for j in range(1, n + 1):
        zero_point[f"w{j}"] = 0
        zero_point[f"v{j}"] = 0
    value = num.subs(zero_point)
    ok = value == TAU and den.subs(zero_point) == 1
    return Report(
        f"vacuum symbol (n={n})",
        [CheckResult("transform of rho0 at the origin equals t", ok)],
    )
