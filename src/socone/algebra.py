"""Matrix realization of so(n,2) and its commuting observable family.

Coordinates 1..n are spatial, n+1 and n+2 temporal. The ladder elements
R_j and L_j combine a boost with i times a second boost, rho0 generates
the temporal rotation scaled by 2i, and rho_jk (j < k spatial) are the
plain rotations. All matrices are (n+2) x (n+2) over GaussianRational.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache

from .matrices import DenseMatrix, commutator, exp_nilpotent
from .report import CheckResult, Report
from .scalars import GaussianRational, gr

_I = gr(0, 1)


def build_rho(n: int, k: int, l: int) -> DenseMatrix:
    """Elementary rotation generator: +1 at (k,l), -1 at (l,k), 1-based."""
    size = n + 2
    if not (1 <= k <= size and 1 <= l <= size):
        raise ValueError(f"indices must lie in 1..{size}")
    if k == l:
        raise ValueError("rotation generator needs two distinct indices")
    rows = [[0] * size for _ in range(size)]
    rows[k - 1][l - 1] = 1
    rows[l - 1][k - 1] = -1
    return DenseMatrix(rows)


@dataclass(frozen=True)
class LieBasisElement:
    label: str
    kind: str  # "R", "L", "rho0", "rho", "X"
    indices: tuple
    matrix: DenseMatrix


@dataclass(frozen=True)
class SoAlgebra:
    n: int
    elements: tuple
    _by_label: dict = field(hash=False, compare=False)

    def element(self, label: str) -> LieBasisElement:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"unknown generator label {label!r}") from None

    def R(self, j: int) -> DenseMatrix:
        return self.element(f"R{j}").matrix

    def L(self, j: int) -> DenseMatrix:
        return self.element(f"L{j}").matrix

    @property
    def rho0(self) -> DenseMatrix:
        return self.element("rho0").matrix

    def rho(self, j: int, k: int) -> DenseMatrix:
        """Spatial rotation rho_jk; rho_kj resolves to -rho_jk."""
        if j == k:
            raise ValueError("rho needs distinct spatial indices")
        if j < k:
            return self.element(f"rho{j}{k}").matrix
        return -self.element(f"rho{k}{j}").matrix

    def labels(self):
        return [e.label for e in self.elements]


@cache
def build_algebra(n: int) -> SoAlgebra:
    """All ladder and rotation basis elements, in canonical order.

    Built once per n and shared: the algebra is immutable.
    """
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    elements = []
    for j in range(1, n + 1):
        m = build_rho(n, j, n + 2) + _I * build_rho(n, j, n + 1)
        elements.append(LieBasisElement(f"R{j}", "R", (j,), m))
    for j in range(1, n + 1):
        m = build_rho(n, j, n + 2) + (-_I) * build_rho(n, j, n + 1)
        elements.append(LieBasisElement(f"L{j}", "L", (j,), m))
    elements.append(
        LieBasisElement("rho0", "rho0", (), gr(0, 2) * build_rho(n, n + 1, n + 2))
    )
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            elements.append(
                LieBasisElement(f"rho{j}{k}", "rho", (j, k), build_rho(n, j, k))
            )
    assert len(elements) == 2 * n + 1 + n * (n - 1) // 2
    return SoAlgebra(n, tuple(elements), {e.label: e for e in elements})


def build_observables(n: int) -> list:
    """The commuting family X_1..X_n as a new list.

    Commutation and X_j**3 = 0 are asserted once per n.
    """
    return list(_observables(n))


@cache
def _observables(n: int) -> tuple:
    alg = build_algebra(n)
    out = [LieBasisElement("X1", "X", (1,), alg.R(1) + alg.L(1) + alg.rho0)]
    for j in range(2, n + 1):
        m = (-_I) * (alg.R(j) - alg.L(j) - 2 * alg.rho(1, j))
        out.append(LieBasisElement(f"X{j}", "X", (j,), m))
    for a in range(n):
        for b in range(a + 1, n):
            if not commutator(out[a].matrix, out[b].matrix).is_zero:
                raise AssertionError(f"[X{a + 1}, X{b + 1}] != 0")
    for e in out:
        if not (e.matrix * e.matrix * e.matrix).is_zero:
            raise AssertionError(f"{e.label}**3 != 0")
    return tuple(out)


def verify_relations(algebra: SoAlgebra) -> Report:
    """Check every stated bracket identity exactly; failures become report rows."""
    alg = algebra
    n = alg.n
    checks = []

    def record(name, lhs, rhs):
        checks.append(CheckResult(name, lhs == rhs))

    zero = DenseMatrix.zeros(n + 2)
    for j in range(1, n + 1):
        record(f"[rho0, R{j}] = 2 R{j}", commutator(alg.rho0, alg.R(j)), 2 * alg.R(j))
        record(f"[L{j}, rho0] = 2 L{j}", commutator(alg.L(j), alg.rho0), 2 * alg.L(j))
        record(f"[L{j}, R{j}] = rho0", commutator(alg.L(j), alg.R(j)), alg.rho0)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j == k:
                continue
            record(
                f"[L{k}, R{j}] = 2 rho{j}{k}",
                commutator(alg.L(k), alg.R(j)),
                2 * alg.rho(j, k),
            )
            record(
                f"[rho{j}{k}, L{k}] = L{j}",
                commutator(alg.rho(j, k), alg.L(k)),
                alg.L(j),
            )
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            record(f"[R{j}, R{k}] = 0", commutator(alg.R(j), alg.R(k)), zero)
            record(f"[L{j}, L{k}] = 0", commutator(alg.L(j), alg.L(k)), zero)
            record(
                f"[rho{j}{k}, rho0] = 0", commutator(alg.rho(j, k), alg.rho0), zero
            )
    return Report(f"bracket relations (n={n})", checks)


def verify_observables(n: int) -> Report:
    """Pairwise commutation and cube-nilpotency of the X family."""
    alg = build_algebra(n)
    obs = build_observables(n)
    checks = []
    zero = DenseMatrix.zeros(n + 2)
    for a in range(n):
        for b in range(a + 1, n):
            checks.append(
                CheckResult(
                    f"[X{a + 1}, X{b + 1}] = 0",
                    commutator(obs[a].matrix, obs[b].matrix) == zero,
                )
            )
    for e in obs + [alg._by_label[f"R{j}"] for j in range(1, n + 1)]:
        checks.append(
            CheckResult(f"{e.label}^3 = 0", (e.matrix * e.matrix * e.matrix).is_zero)
        )
    return Report(f"observable family (n={n})", checks)


def conjugation_check(n: int) -> Report:
    """exp(L1) R_j exp(-L1) equals X1 for j=1 and i X_j for j >= 2."""
    if n < 2:
        raise ValueError("the conjugation check needs n >= 2")
    alg = build_algebra(n)
    obs = {e.label: e.matrix for e in build_observables(n)}
    g = exp_nilpotent(alg.L(1))
    ginv = exp_nilpotent(-alg.L(1))
    checks = [CheckResult("exp(L1) exp(-L1) = 1", g * ginv == DenseMatrix.identity(n + 2))]
    conj1 = g * alg.R(1) * ginv
    checks.append(CheckResult("exp(L1) R1 exp(-L1) = X1", conj1 == obs["X1"]))
    for j in range(2, n + 1):
        conj = g * alg.R(j) * ginv
        checks.append(
            CheckResult(f"exp(L1) R{j} exp(-L1) = i X{j}", conj == _I * obs[f"X{j}"])
        )
    return Report(f"adjoint action of exp(L1) (n={n})", checks)


# -- formal words and the adjoint involution ----------------------------------

_LABEL_RE = re.compile(r"^(R|L|X)(\d+)$|^rho0$|^rho(\d)(\d)$")


@dataclass(frozen=True)
class OperatorWord:
    """A scalar multiple of an ordered product of generator labels.

    The empty word is the identity.
    """

    coeff: GaussianRational
    factors: tuple

    @classmethod
    def identity(cls):
        return cls(gr(1), ())

    @classmethod
    def of(cls, *labels, coeff=1):
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"unknown generator label {label!r}")
        return cls(GaussianRational.coerce(coeff), tuple(labels))

    def __mul__(self, other):
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return OperatorWord(self.coeff * other.coeff, self.factors + other.factors)


def _adjoint_label(label: str):
    m = _LABEL_RE.match(label)
    if m is None or label.startswith("X"):
        raise ValueError(f"unknown generator label {label!r}")
    if label == "rho0":
        return label, 1
    if label[0] == "R":
        return "L" + label[1:], 1
    if label[0] == "L":
        return "R" + label[1:], 1
    return label, -1  # spatial rotations are skew under the involution


def formal_adjoint(word: OperatorWord) -> OperatorWord:
    """R_j and L_j swap, rho0 is fixed, rho_jk flips sign; the factor order
    reverses and the coefficient conjugates. Applying it twice is the identity.
    """
    coeff = word.coeff.conj()
    factors = []
    for label in reversed(word.factors):
        out, sign = _adjoint_label(label)
        factors.append(out)
        if sign < 0:
            coeff = -coeff
    return OperatorWord(coeff, tuple(factors))


def word_to_matrix(algebra: SoAlgebra, word: OperatorWord) -> DenseMatrix:
    acc = DenseMatrix.identity(algebra.n + 2)
    for label in word.factors:
        m = _LABEL_RE.match(label)
        if m and m.group(3):
            mat = algebra.rho(int(m.group(3)), int(m.group(4)))
        else:
            mat = algebra.element(label).matrix
        acc = acc * mat
    return word.coeff * acc


# -- tabulated n=3 matrices used as an external cross-check --------------------

def _m(rows):
    return DenseMatrix(rows)


REFERENCE_N3 = {
    "R1": _m(
        [
            [0, 0, 0, _I, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [-_I, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ]
    ),
    "L1": _m(
        [
            [0, 0, 0, -_I, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [_I, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ]
    ),
    "X1": _m(
        [
            [0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, gr(0, 2)],
            [-2, 0, 0, gr(0, -2), 0],
        ]
    ),
    "X2": _m(
        [
            [0, gr(0, 2), 0, 0, 0],
            [gr(0, -2), 0, 0, 2, 0],
            [0, 0, 0, 0, 0],
            [0, -2, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    ),
    "X3": _m(
        [
            [0, 0, gr(0, 2), 0, 0],
            [0, 0, 0, 0, 0],
            [gr(0, -2), 0, 0, 2, 0],
            [0, 0, -2, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    ),
}


def reference_check_n3() -> Report:
    """Entry-for-entry comparison of the built n=3 matrices with the table."""
    alg = build_algebra(3)
    built = {"R1": alg.R(1), "L1": alg.L(1)}
    built.update({e.label: e.matrix for e in build_observables(3)})
    checks = [
        CheckResult(f"{label} matches the n=3 reference", built[label] == expected)
        for label, expected in REFERENCE_N3.items()
    ]
    return Report("n=3 reference matrices", checks)
