"""Expected answers that do not come from the code under test.

Everything here is plain Fraction arithmetic on the parsed CLI output:

* the Wallach positivity rule for the pairing and moment probes;
* the n=1 closed forms: Gram diagonal k! (t)_k, moments (t)_k, and the
  monic generalized-Laguerre recurrence for basis-poly;
* an evaluator of a symbolic table at a numeric weight, used to check the
  numeric-weight tables against their symbolic twin;
* sha256 digests of the table outputs, recorded at a known-good commit.

Each check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial


def wallach_positive(n: int, t: Fraction) -> bool:
    """Truncated pairing and moment matrices are positive definite exactly
    when t lies in the continuous part of the Wallach set, t > max(n-2, 0).

    N. R. Wallach, The analytic continuation of the discrete series,
    Trans. AMS 251 (1979). The boundary point itself is only semidefinite.
    """
    return t > max(n - 2, 0)


def rising(t: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= t + i
    return out


def rising_poly(k: int) -> dict:
    """(t)_k as {exponent of t: coefficient}."""
    poly = {0: Fraction(1)}
    for i in range(k):
        nxt = {}
        for e, c in poly.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e] = nxt.get(e, 0) + c * i
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def laguerre_monic(kmax: int) -> list:
    """p_0..p_kmax in x and t as {(x exponent, t exponent): coefficient}.

    p_{k+1} = (x - 2k - t) p_k - k (k + t - 1) p_{k-1}: the monic
    generalized Laguerre polynomials with alpha = t - 1, whose squared
    norms under x^(t-1) e^(-x) are k! (t)_k.
    """

    def add(acc, poly, scale=Fraction(1), dx=0, dt=0):
        for (i, j), c in poly.items():
            key = (i + dx, j + dt)
            acc[key] = acc.get(key, 0) + c * scale

    out = [{(0, 0): Fraction(1)}]
    prev = {}
    for k in range(kmax):
        cur = out[-1]
        nxt = {}
        add(nxt, cur, dx=1)
        add(nxt, cur, Fraction(-2 * k))
        add(nxt, cur, Fraction(-1), dt=1)
        add(nxt, prev, Fraction(-k * (k - 1)))
        add(nxt, prev, Fraction(-k), dt=1)
        prev = cur
        out.append({key: c for key, c in nxt.items() if c})
    return out


# -- parsing the CLI's JSON encoding ------------------------------------------


def real(obj) -> Fraction:
    """A real number encoded as a complex scalar {"re", "im"} or as a
    constant polynomial term list."""
    if isinstance(obj, list):
        terms = poly_terms(obj, ())
        return terms.get((), Fraction(0))
    if Fraction(obj["im"]) != 0:
        raise ValueError(f"unexpected imaginary part in {obj}")
    return Fraction(obj["re"])


def poly_terms(terms, names) -> dict:
    """A polynomial term list as {exponent tuple over names: coefficient}."""
    out = {}
    for term in terms:
        exps = term["exps"]
        if set(exps) - set(names):
            raise ValueError(f"unexpected variables {sorted(exps)}")
        key = tuple(int(exps.get(v, 0)) for v in names)
        out[key] = real(term["coeff"])
    return out


def evaluate_at(value, tau: Fraction) -> Fraction:
    """A symbolic entry (term list in t) or a scalar, evaluated at t = tau."""
    if isinstance(value, dict):
        return real(value)
    acc = Fraction(0)
    for (e,), c in poly_terms(value, ("t",)).items():
        acc += c * tau**e
    return acc


def _same(got: dict, want: dict) -> bool:
    return {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}


# -- checks ---------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_exit(result) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[:120]}"
    return None


def check_verify(result) -> str | None:
    """Exit code 0 and every Report row reads PASS."""
    bad = check_exit(result)
    if bad:
        return bad
    rows = 0
    for line in result.stdout.splitlines():
        if line.startswith("== "):
            continue
        if not line.startswith("PASS  "):
            return f"non-PASS row: {line[:120]}"
        rows += 1
    if rows == 0:
        return "no report rows"
    return None


def check_digest(result, expected: str | None) -> str | None:
    bad = check_exit(result)
    if bad:
        return bad
    if expected is None:
        return "no recorded digest"
    got = sha256(result.stdout)
    if got != expected:
        return f"digest {got[:12]} differs from recorded {expected[:12]}"
    return None


def check_gram_n1(result, tau: Fraction | None) -> str | None:
    """n=1 Gram table (json): diagonal k! (t)_k, zero off the diagonal."""
    payload = json.loads(result.stdout)
    for i, row in enumerate(payload["matrix"]):
        for j, entry in enumerate(row):
            if tau is None:
                want = {(e,): c * factorial(i) for e, c in rising_poly(i).items()}
                want = want if i == j else {}
                if not _same(poly_terms(entry, ("t",)), want):
                    return f"gram entry ({i},{j}) is not {i}! (t)_{i}"
            else:
                want = factorial(i) * rising(tau, i) if i == j else 0
                if real(entry) != want:
                    return f"gram entry ({i},{j}) at t={tau} is not {want}"
    return None


def check_moments_n1(result, tau: Fraction | None) -> str | None:
    """n=1 moments (json): E[x^k] = (t)_k."""
    payload = json.loads(result.stdout)
    for k, item in enumerate(payload["moments"]):
        if item["index"] != str(k):
            return f"moment {k} has index {item['index']}"
        if tau is None:
            want = {(e,): c for e, c in rising_poly(k).items()}
            if not _same(poly_terms(item["value"], ("t",)), want):
                return f"moment {k} is not (t)_{k}"
        elif real(item["value"]) != rising(tau, k):
            return f"moment {k} at t={tau} is not (t)_{k}"
    return None


def check_basis_n1(result) -> str | None:
    """n=1 basis polynomials (json) follow the monic Laguerre recurrence."""
    payload = json.loads(result.stdout)
    polys = payload["polynomials"]
    expected = laguerre_monic(len(polys) - 1)
    for k, item in enumerate(polys):
        if not _same(poly_terms(item["terms"], ("x1", "t")), expected[k]):
            return f"basis polynomial {k} breaks the Laguerre recurrence"
    return None


def _table_values(payload) -> list:
    if "matrix" in payload:
        return [entry for row in payload["matrix"] for entry in row]
    return [item["value"] for item in payload["moments"]]


def check_numeric_json(result, symbolic, tau: Fraction) -> str | None:
    """A numeric-weight table equals its symbolic twin evaluated at tau."""
    if symbolic is None or symbolic.code != 0:
        return "symbolic twin missing"
    got = _table_values(json.loads(result.stdout))
    want = _table_values(json.loads(symbolic.stdout))
    if len(got) != len(want):
        return f"{len(got)} entries, symbolic twin has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if real(g) != evaluate_at(w, tau):
            return f"entry {i} differs from the symbolic table at t={tau}"
    return None


def check_numeric_text(result, numeric_json) -> str | None:
    """The text rendering lists the same values as the json one."""
    if numeric_json is None or numeric_json.code != 0:
        return "json twin missing"
    want = [real(v) for v in _table_values(json.loads(numeric_json.stdout))]
    got = []
    for line in result.stdout.splitlines():
        got.extend(Fraction(cell) for cell in line.split("  ")[1:])
    if got != want:
        return "text values differ from the json values"
    return None
