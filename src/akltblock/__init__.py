"""Exact block entanglement spectra of spin-S valence-bond-solid chains.

The package computes the (S+1)^2 nonzero eigenvalues of the reduced density
matrix of a length-L block in exact rational arithmetic, by two independent
formula routes (a Legendre-coefficient recurrence and a closed form), and
cross-checks them against brute-force oracles: explicit Schwinger-boson state
construction with partial traces, projector-sum Hamiltonians, and a spin-1
Pauli-string representation. Entropies, saturation bounds, and a CLI sit on
top.
"""

from .angular import SignedSqrtRational, clebsch_gordan, factorial, three_j_zero
from .entropy import InvalidSpectrumError, renyi, von_neumann
from .spectrum import (
    BlockSpectrum,
    EXACT_METHODS,
    IPolynomial,
    block_spectrum,
    degenerate_norm,
    eigenvalue_closed,
    eigenvalue_recurrence,
    flat_limit_bound,
    i_polynomial,
    lambda_coeff,
    legendre_expansion_residual,
    saturation_value,
    spin1_closed,
    vbs_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "factorial",
    "SignedSqrtRational",
    "three_j_zero",
    "clebsch_gordan",
    "lambda_coeff",
    "legendre_expansion_residual",
    "IPolynomial",
    "i_polynomial",
    "eigenvalue_recurrence",
    "eigenvalue_closed",
    "vbs_norm",
    "degenerate_norm",
    "spin1_closed",
    "flat_limit_bound",
    "saturation_value",
    "BlockSpectrum",
    "block_spectrum",
    "EXACT_METHODS",
    "von_neumann",
    "renyi",
    "InvalidSpectrumError",
]
