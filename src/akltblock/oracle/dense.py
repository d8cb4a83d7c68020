"""Dense-matrix plumbing for the brute-force oracle.

Matrices are plain numpy arrays (real in every basis this package uses);
dimension caps keep accidental exponential blow-ups from freezing a run.
Oracle block spectra come from a (block x rest) factor of the density
matrix through :func:`factor_spectrum`, never from the matrix itself.

The cap policy, ``DEFAULT_MAX_DIM`` and ``ResourceCapError``, lives in
:mod:`akltblock.angular` and is re-exported here; ``MAX_STATE_ENTRIES`` is
the oracle's own.
"""

from __future__ import annotations

import numpy as np

from ..angular import DEFAULT_MAX_DIM, TOL, ResourceCapError

__all__ = [
    "DEFAULT_MAX_DIM",
    "MAX_STATE_ENTRIES",
    "ResourceCapError",
    "require_dim",
    "require_hermitian",
    "eigenspectrum",
    "factor_spectrum",
    "numerical_rank",
]

MAX_STATE_ENTRIES = 5_000_000  # dense state-vector entries


def require_dim(dim: int, max_dim: int = DEFAULT_MAX_DIM, what: str = "matrix") -> None:
    if dim > max_dim:
        raise ResourceCapError(f"{what} dimension {dim} exceeds the cap {max_dim}")


def require_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return ``mat`` as an ndarray after checking Hermiticity within ``TOL.roundoff``."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(np.abs(mat).max(), 1.0) if mat.size else 1.0
    deviation = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if deviation > TOL.roundoff * scale:
        raise ValueError(
            f"matrix is not Hermitian within tolerance: max deviation {deviation:.3e}"
        )
    return mat


def eigenspectrum(mat: np.ndarray, max_dim: int = DEFAULT_MAX_DIM) -> list[float]:
    """All eigenvalues of a Hermitian matrix, descending order."""
    mat = require_hermitian(mat)
    require_dim(mat.shape[0], max_dim)
    values = np.linalg.eigvalsh(mat)
    return [float(v) for v in values[::-1]]


def factor_spectrum(factor: np.ndarray) -> list[float]:
    """Eigenvalues (descending) of ``F F^dag`` for a (block x rest) factor F.

    They are the squared singular values of F, padded with exact zeros to
    the block dimension; F F^dag itself is never formed.
    """
    values = np.linalg.svd(factor, compute_uv=False) ** 2
    return [float(v) for v in values] + [0.0] * (len(factor) - len(values))


def numerical_rank(eigenvalues) -> int:
    """Count eigenvalues above the zero cutoff ``TOL.zero`` * their number."""
    values = list(eigenvalues)
    cutoff = TOL.zero * len(values)
    return sum(1 for v in values if v > cutoff)
