"""Spin-1 block density matrix in the Pauli-string representation.

Each spin-1 site is carried by a two-qubit maximally entangled triplet: with
|0> the two-qubit singlet, the site basis is |beta> = (-1)^(1+delta_{beta,0})
(I (x) sigma_beta)|0>, beta = 1..3, and an L-site block state is labelled by a
string (alpha_1..alpha_L). Density-matrix entries reduce to traces of Pauli
products via <0|(I (x) A)|0> = Tr(A)/2, which makes this an independent route
to the block spectrum: no Schwinger bosons, no Clebsch-Gordan machinery.
The block density matrix is F F^dag for a (3^L x 4) factor F of string
products, so its spectrum is read off F and the 3^L-square matrix is only
formed on request (:func:`pauli_density_matrix_spin1`).

Strings are indexed site-major with site 1 fastest:
``index = sum_j (alpha_j - 1) * 3^(j-1)``.
"""

from __future__ import annotations

import numpy as np

from ..angular import TOL, _check_int
from .dense import (
    DEFAULT_MAX_DIM,
    MAX_STATE_ENTRIES,
    factor_spectrum,
    require_dim,
)

__all__ = [
    "pauli_block_spectrum",
    "pauli_density_matrix_spin1",
    "pauli_ground_states_spin1",
    "pauli_channel_identity_check",
    "entangled_basis",
]

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Singlet as a (qubit1, qubit2) coefficient matrix: (|01> - |10>)/sqrt(2).
_SINGLET = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0)


def _basis_matrix(beta: int) -> np.ndarray:
    """Coefficient matrix of |beta>; (A (x) B)|psi> maps Psi to A Psi B^T."""
    phase = 1.0 if beta == 0 else -1.0
    return phase * _SINGLET @ _SIGMA[beta].T


def entangled_basis() -> np.ndarray:
    """The four two-qubit basis states as rows (index 2*q1 + q2)."""
    return np.stack([_basis_matrix(beta).reshape(4) for beta in range(4)])


def _string_products(L: int) -> np.ndarray:
    """sigma_{a_L} ... sigma_{a_1} for every string, shape (3^L, 2, 2).

    Built one site at a time; the new site multiplies on the left and is the
    slowest index, keeping site 1 fastest.
    """
    require_dim(3**L, MAX_STATE_ENTRIES, what=f"3^{L} Pauli strings")
    products = np.eye(2, dtype=complex)[None]
    for _ in range(L):
        products = np.concatenate(
            [np.einsum("ij,njk->nik", _SIGMA[alpha], products) for alpha in (1, 2, 3)]
        )
    return products


def _string_factor(L: int, max_dim: int) -> np.ndarray:
    """Block density-matrix factor F over alpha-strings, shape (3^L, 4).

    Row a is M_a = sigma_{a_L}...sigma_{a_1} flattened and scaled by
    1/sqrt(2*3^L), so rho = F F^dag has entries Tr(M_b^dag M_a) / (2*3^L).
    ``max_dim`` caps the dimension 3^L before any string product is formed.
    rho must be real: with F = F_R + i F_I and [F_R F_I] = Q [R_R R_I],
    Im(rho) = F_I F_R^T - F_R F_I^T = Q (R_I R_R^T - R_R R_I^T) Q^T, whose
    spectral norm, a bound on every entry, comes from that 4-column R alone.
    """
    _check_int("length", L, 1)
    require_dim(3**L, max_dim, what="Pauli block")
    factor = _string_products(L).reshape(3**L, 4) / np.sqrt(2 * 3**L)
    r = np.linalg.qr(np.hstack([factor.real, factor.imag]), mode="r")
    r_real, r_imag = r[:, :4], r[:, 4:]
    residue = np.linalg.norm(r_imag @ r_real.T - r_real @ r_imag.T, 2)
    if residue > TOL.roundoff:
        raise AssertionError(f"density matrix has imaginary residue {residue:.3e}")
    return factor


def pauli_block_spectrum(L: int, max_dim: int = DEFAULT_MAX_DIM) -> list[float]:
    """Eigenvalues (descending) of the block density matrix, dimension 3^L.

    Taken from the rank-4 string factor by :func:`~.dense.factor_spectrum`;
    the 3^L-square matrix is never formed. A one-site block gives I/3.
    """
    return factor_spectrum(_string_factor(L, max_dim))


def pauli_density_matrix_spin1(L: int, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Block density matrix over alpha-strings, dimension 3^L, as a dense matrix.

    Real symmetric with unit trace and rank 4 (I/3 at L = 1); ``max_dim``
    caps the dimension before any string product is formed.
    """
    factor = _string_factor(L, max_dim)
    return (factor @ factor.conj().T).real


def pauli_ground_states_spin1(L: int, alpha: int) -> np.ndarray:
    """Unnormalized ground state |G; alpha> over alpha-strings.

    Component on string (a_1..a_L) is
    <a_L| sigma_alpha (x) (sigma_{a_{L-1}}...sigma_{a_1}) |0>.
    Components are complex when the string holds an odd number of sigma_y
    factors; every contracted quantity (norms, overlaps, expectation values)
    comes out real.
    """
    _check_int("length", L, 2)
    _check_int("alpha", alpha, 0, 3)
    prefixes = _string_products(L - 1)
    # w_i = sigma_alpha . singlet . P_i^T is (sigma_alpha (x) P_i)|0>.
    w = np.einsum("ab,nbc->nac", _SIGMA[alpha] @ _SINGLET, prefixes.transpose(0, 2, 1))
    out = np.empty(3**L, dtype=complex)
    block = 3 ** (L - 1)
    for last in (1, 2, 3):
        bra = _basis_matrix(last).conj()
        out[(last - 1) * block : last * block] = np.einsum("ac,nac->n", bra, w)
    return out


def pauli_channel_identity_check(L: int) -> float:
    """Max-abs residual of the depolarizing-sum identity on the edge pair.

    Sums (I (x) sigma-string)|0><0|(...)^dag over all (L-1)-site strings by
    brute force and compares with sum_beta A_beta |beta><beta| where
    A_0 = (3^(L-1) + 3(-1)^(L-1))/4 and A_{1,2,3} = (3^(L-1) - (-1)^(L-1))/4.
    """
    _check_int("length", L, 2)
    prefixes = _string_products(L - 1)
    w = np.einsum("ab,nbc->nac", _SINGLET, prefixes.transpose(0, 2, 1)).reshape(-1, 4)
    lhs = w.T @ w.conj()
    sign = -1.0 if (L - 1) % 2 else 1.0
    coeffs = [(3 ** (L - 1) + 3 * sign) / 4.0] + [(3 ** (L - 1) - sign) / 4.0] * 3
    basis = entangled_basis()
    rhs = sum(c * np.outer(v, v.conj()) for c, v in zip(coeffs, basis))
    return float(np.abs(lhs - rhs).max())
