"""Exact coherent-state calculus for the so(n,2) ladder realization.

Everything computes over exact Gaussian-rational scalars: the matrix basis
and its bracket relations, coherent states and the Leibniz pairing, the
truncated Fock realization with its Gram table, the commuting observables
with their cone transform and generalized Laguerre basis, and the symbol
identities tying the realization to the pairing.
"""

from .algebra import (
    OperatorWord,
    SoAlgebra,
    build_algebra,
    build_observables,
    build_rho,
    conjugation_check,
    formal_adjoint,
    verify_relations,
)
from .berezin import (
    berezin_symbol_series,
    berezin_transform,
    bessel_form_check,
    verify_pde_system,
    verify_raising_identity,
)
from .fock import (
    FockMatrix,
    build_combinatorial,
    build_hat,
    gram_at,
    gram_matrix,
    multi_indices,
    positivity_probe,
    verify_adjointness,
    verify_hat_relations,
)
from .matrices import DenseMatrix, commutator, exp_nilpotent
from .poly import MultiPoly, TAU, exp_series, series_power
from .scalars import GaussianRational, gr
from .spectral import (
    basis_polynomials,
    moment_positivity_probe,
    moments,
    orthogonality_check,
    spectral_transform,
    v_to_z,
    z_to_v,
)
from .states import (
    StateVector,
    coherent_state,
    leibniz_closed_form,
    leibniz_from_matrices,
    recover_coordinates,
    vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "FockMatrix",
    "GaussianRational",
    "MultiPoly",
    "OperatorWord",
    "SoAlgebra",
    "StateVector",
    "TAU",
    "basis_polynomials",
    "berezin_symbol_series",
    "berezin_transform",
    "bessel_form_check",
    "build_algebra",
    "build_combinatorial",
    "build_hat",
    "build_observables",
    "build_rho",
    "coherent_state",
    "commutator",
    "conjugation_check",
    "exp_nilpotent",
    "exp_series",
    "formal_adjoint",
    "gr",
    "gram_at",
    "gram_matrix",
    "leibniz_closed_form",
    "leibniz_from_matrices",
    "moment_positivity_probe",
    "moments",
    "multi_indices",
    "orthogonality_check",
    "positivity_probe",
    "recover_coordinates",
    "series_power",
    "spectral_transform",
    "v_to_z",
    "vacuum",
    "verify_adjointness",
    "verify_hat_relations",
    "verify_pde_system",
    "verify_raising_identity",
    "verify_relations",
    "z_to_v",
]
