"""The so(n,2) generators, their bracket table, and the matrix realization.

A realization is an SoAlgebra: a read-only map from generator labels to
matrices in the canonical order R_j, L_j, rho0, rho_jk (j < k), plus the
identity. Labels are read in one place, SoAlgebra.generator, and the
bracket table, the observable formula X_j and the word evaluator are
written once for every realization; the truncated Fock realization in
fock.HatFamily is a subclass.

In the matrix realization, coordinates 1..n are spatial, n+1 and n+2
temporal. The ladder elements R_j and L_j combine a boost with i times a
second boost, rho0 generates the temporal rotation scaled by 2i, and
rho_jk (j < k spatial) are the plain rotations. All matrices are
(n+2) x (n+2) over GaussianRational.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from types import MappingProxyType

from .matrices import DenseMatrix, commutator, exp_nilpotent, numerator_stack
from .report import CheckResult, Report, reading_check
from .scalars import GaussianRational, gr
from .scalars import I as _I

_LADDER_RE = re.compile(r"^(?:[RL]\d+|rho0)$")
_ROTATION_RE = re.compile(r"^rho(?:(\d)(\d)|(\d+)_(\d+))$")


def rotation_label(j: int, k: int) -> str:
    """The label of rho_jk: the indices run together while both are single
    digits (rho12) and are split by an underscore otherwise (rho1_12), so
    no two index pairs share a label."""
    if j < 10 and k < 10:
        return f"rho{j}{k}"
    return f"rho{j}_{k}"


def _rotation_indices(label: str):
    """(j, k) when label is rotation_label(j, k), else None."""
    m = _ROTATION_RE.match(label)
    if m is None:
        return None
    j, k = (int(m[1]), int(m[2])) if m[1] else (int(m[3]), int(m[4]))
    return (j, k) if rotation_label(j, k) == label else None


def _check_label(label: str) -> None:
    """Raise ValueError unless label is written as a generator label."""
    if not _LADDER_RE.match(label) and _rotation_indices(label) is None:
        raise ValueError(f"unknown generator label {label!r}")


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
    matrix: DenseMatrix


def generator_table(n: int, raising, lowering, rho0, rotation) -> MappingProxyType:
    """Label -> matrix in canonical order, from R_j = raising(j),
    L_j = lowering(j), rho0 and rho_jk = rotation(j, k) for j < k."""
    table = {f"R{j}": raising(j) for j in range(1, n + 1)}
    table.update((f"L{j}", lowering(j)) for j in range(1, n + 1))
    table["rho0"] = rho0
    for j, k in combinations(range(1, n + 1), 2):
        table[rotation_label(j, k)] = rotation(j, k)
    return MappingProxyType(table)


@dataclass(frozen=True)
class SoAlgebra:
    """One realization of so(n,2): its generators and identity."""

    n: int
    generators: MappingProxyType = field(hash=False)
    identity: object = field(hash=False)

    def generator(self, label: str):
        """The matrix of a label; rho_kj (k > j) reads as -rho_jk."""
        matrix = self.generators.get(label)
        if matrix is not None:
            return matrix
        jk = _rotation_indices(label)
        if jk is not None and jk[0] > jk[1]:
            matrix = self.generators.get(rotation_label(jk[1], jk[0]))
            if matrix is not None:
                return -matrix
        raise ValueError(f"unknown generator label {label!r}")

    def R(self, j: int):
        return self.generator(f"R{j}")

    def L(self, j: int):
        return self.generator(f"L{j}")

    @property
    def rho0(self):
        return self.generator("rho0")

    def rho(self, j: int, k: int):
        """Spatial rotation rho_jk; rho_kj resolves to -rho_jk."""
        return self.generator(rotation_label(j, k))

    def labels(self):
        return list(self.generators)

    @cached_property
    def raising_stack(self) -> tuple:
        """R_1..R_n as one numerator_stack, cleared once per realization."""
        return numerator_stack(self.R(j) for j in range(1, self.n + 1))

    @cached_property
    def lowering_stack(self) -> tuple:
        """L_1..L_n as one numerator_stack, cleared once per realization."""
        return numerator_stack(self.L(j) for j in range(1, self.n + 1))

    def observable(self, j: int):
        """X_1 = R_1 + L_1 + rho0 and, for j >= 2, X_j = -i (R_j - L_j - 2 rho_1j)."""
        if j == 1:
            return self.R(1) + self.L(1) + self.rho0
        return -_I * (self.R(j) - self.L(j) - 2 * self.rho(1, j))


@cache
def build_algebra(n: int) -> SoAlgebra:
    """All ladder and rotation basis elements, in canonical order.

    Built once per n and shared: the algebra is immutable.
    """
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    generators = generator_table(
        n,
        lambda j: build_rho(n, j, n + 2) + _I * build_rho(n, j, n + 1),
        lambda j: build_rho(n, j, n + 2) + (-_I) * build_rho(n, j, n + 1),
        gr(0, 2) * build_rho(n, n + 1, n + 2),
        lambda j, k: build_rho(n, j, k),
    )
    return SoAlgebra(n, generators, DenseMatrix.identity(n + 2))


def build_observables(n: int) -> list:
    """The family X_1..X_n as a new list, built once per n.

    Nothing is asserted on build: verify_observables reports whether the
    X_j commute and cube to zero, and exp_zX_vacuum raises
    NotNilpotentError rather than truncate an exponential of them.
    """
    return list(_observables(n)[0])


@cache
def _observables(n: int) -> tuple:
    """(X_1..X_n as LieBasisElements, their numerator_stack), built once per n."""
    alg = build_algebra(n)
    family = tuple(LieBasisElement(f"X{j}", alg.observable(j)) for j in range(1, n + 1))
    return family, numerator_stack(e.matrix for e in family)


def brackets(n: int) -> list:
    """The stated bracket identities as rows (a, b, (coeff, c)): [a, b] is
    coeff times generator c, or zero when coeff is 0 (c is then None). A
    generator is a label, or an index pair (j, k) for rho_jk."""
    rows = []
    for j in range(1, n + 1):
        rows.append(("rho0", f"R{j}", (2, f"R{j}")))
        rows.append((f"L{j}", "rho0", (2, f"L{j}")))
        rows.append((f"L{j}", f"R{j}", (1, "rho0")))
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j != k:
                rows.append((f"L{k}", f"R{j}", (2, (j, k))))
                rows.append(((j, k), f"L{k}", (1, f"L{j}")))
    for j, k in combinations(range(1, n + 1), 2):
        rows.append((f"R{j}", f"R{k}", (0, None)))
        rows.append((f"L{j}", f"L{k}", (0, None)))
        rows.append(((j, k), "rho0", (0, None)))
    return rows


def bracket_checks(family: SoAlgebra, suffix: str, same) -> list:
    """One CheckResult per row of brackets(family.n), comparing [a, b] with
    its right side by same(lhs, rhs); suffix marks every label in the name."""

    def matrix(g):
        return family.rho(*g) if isinstance(g, tuple) else family.generator(g)

    def label(g):
        return (rotation_label(*g) if isinstance(g, tuple) else g) + suffix

    zero = 0 * family.identity
    checks = []
    for a, b, (coeff, c) in brackets(family.n):
        read = [matrix(g) for g in (a, b, c) if g is not None]
        lhs = commutator(read[0], read[1])
        if not coeff:
            rhs, text = zero, "0"
        elif coeff == 1:
            rhs, text = read[2], label(c)
        else:
            rhs, text = coeff * read[2], f"{coeff} {label(c)}"
        name = f"[{label(a)}, {label(b)}] = {text}"
        checks.append(reading_check(name, same(lhs, rhs), read))
    return checks


def verify_relations(algebra: SoAlgebra) -> Report:
    """Check every stated bracket identity exactly; failures become report rows."""
    checks = bracket_checks(algebra, "", operator.eq)
    return Report(f"bracket relations (n={algebra.n})", checks)


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
    for e in obs + [LieBasisElement(f"R{j}", alg.R(j)) for j in range(1, n + 1)]:
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

@dataclass(frozen=True)
class OperatorWord:
    """A scalar multiple of an ordered product of generator labels.

    The empty word, OperatorWord.of(), is the identity.
    """

    coeff: GaussianRational
    factors: tuple

    @classmethod
    def of(cls, *labels, coeff=1):
        for label in labels:
            _check_label(label)
        return cls(GaussianRational.coerce(coeff), tuple(labels))

    def __mul__(self, other):
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return OperatorWord(self.coeff * other.coeff, self.factors + other.factors)


def _adjoint_label(label: str):
    _check_label(label)
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


def word_to_matrix(family: SoAlgebra, word: OperatorWord):
    """The word's operator in either realization, through its generators."""
    acc = family.identity
    for label in word.factors:
        acc = acc * family.generator(label)
    return word.coeff * acc


# -- tabulated n=3 matrices used as an external cross-check --------------------

REFERENCE_N3 = {
    "R1": DenseMatrix(
        [
            [0, 0, 0, _I, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [-_I, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ]
    ),
    "L1": DenseMatrix(
        [
            [0, 0, 0, -_I, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [_I, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ]
    ),
    "X1": DenseMatrix(
        [
            [0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, gr(0, 2)],
            [-2, 0, 0, gr(0, -2), 0],
        ]
    ),
    "X2": DenseMatrix(
        [
            [0, gr(0, 2), 0, 0, 0],
            [gr(0, -2), 0, 0, 2, 0],
            [0, 0, 0, 0, 0],
            [0, -2, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    ),
    "X3": DenseMatrix(
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
