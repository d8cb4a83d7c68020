"""Tests for the spin-1 Pauli-string route to the block density matrix.

Every spin-1 block state is expanded over products of Pauli matrices acting
on a maximally entangled two-qubit pair; the resulting density matrix and
its four distinguished eigenvectors are compared against the closed forms
and against the independent boson-polynomial oracle.
"""

import tracemalloc

import numpy as np
import pytest

from akltblock.angular import TOL
from akltblock.oracle import (
    ResourceCapError,
    eigenspectrum,
    entangled_basis,
    fock_block_spectrum,
    pauli_block_spectrum,
    pauli_channel_identity_check,
    pauli_density_matrix_spin1,
    pauli_ground_states_spin1,
)
from akltblock.oracle import pauli
from akltblock.spectrum import spin1_closed
from akltblock.verify import match_spectrum


def closed_form_eigenvalues(L: int) -> list[tuple[int, float]]:
    return [(J, spin1_closed(L, J)) for J in (0, 1)]


# ---------------------------------------------------------------------------
# the maximally entangled two-qubit basis
# ---------------------------------------------------------------------------

def test_entangled_basis_is_orthonormal():
    basis = entangled_basis()
    assert basis.shape == (4, 4)
    gram = basis.conj() @ basis.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-14


def test_entangled_basis_is_maximally_entangled():
    # every row reduces either qubit to I/2; the first row is the unique
    # swap-antisymmetric one (the singlet), the other three are symmetric
    basis = entangled_basis()
    swap = np.zeros((4, 4))
    for i1 in range(2):
        for i2 in range(2):
            swap[i1 + 2 * i2, i2 + 2 * i1] = 1.0
    for beta in range(4):
        mat = basis[beta].reshape(2, 2)
        reduced = mat @ mat.conj().T
        assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-14
        parity = -1.0 if beta == 0 else 1.0
        assert np.max(np.abs(swap @ basis[beta] - parity * basis[beta])) < 1e-14


# ---------------------------------------------------------------------------
# density matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_density_matrix_spectrum(L):
    rho = pauli_density_matrix_spin1(L)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    observed = eigenspectrum(rho, max_dim=4096)
    ok, detail, _ = match_spectrum(observed, closed_form_eigenvalues(L), tol=1e-12)
    assert ok, detail


@pytest.mark.parametrize("L", [2, 3])
def test_pauli_and_fock_routes_agree(L):
    pauli = sorted(eigenspectrum(pauli_density_matrix_spin1(L)), reverse=True)[:4]
    fock = sorted(fock_block_spectrum(1, L), reverse=True)[:4]
    assert np.max(np.abs(np.array(pauli) - np.array(fock))) < 1e-10


def test_density_matrix_length_bounds():
    with pytest.raises(ValueError):
        pauli_density_matrix_spin1(0)
    with pytest.raises(ResourceCapError):
        pauli_density_matrix_spin1(8)  # 3^8 = 6561 > the default 4096 cap


def test_one_site_block_is_maximally_mixed():
    assert pauli_block_spectrum(1) == pytest.approx([1 / 3] * 3, abs=1e-15)
    assert np.max(np.abs(pauli_density_matrix_spin1(1) - np.eye(3) / 3)) < 1e-15


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_factor_spectrum_equals_dense_spectrum(L):
    factored = pauli_block_spectrum(L)
    dense = eigenspectrum(pauli_density_matrix_spin1(L))
    assert len(factored) == len(dense) == 3**L
    assert max(abs(a - b) for a, b in zip(factored, dense)) < TOL.zero


def test_imaginary_residue_is_refused_on_both_routes(monkeypatch):
    real = pauli._string_products

    def dephased(L):
        # a distinct phase per string makes Tr(M_b^dag M_a) complex
        products = real(L)
        return products * np.exp(0.1j * np.arange(len(products)))[:, None, None]

    monkeypatch.setattr(pauli, "_string_products", dephased)
    for route in (pauli_block_spectrum, pauli_density_matrix_spin1):
        with pytest.raises(AssertionError, match="imaginary residue"):
            route(3)


# ---------------------------------------------------------------------------
# distinguished eigenvectors (one per Pauli label)
# ---------------------------------------------------------------------------

def test_ground_state_norms_frozen_at_two_sites():
    # |G_0|^2 = (9+3)/4 = 3, |G_alpha|^2 = (9-1)/4 = 2 for alpha = 1,2,3
    norms = [np.vdot(g := pauli_ground_states_spin1(2, a), g).real for a in range(4)]
    assert norms == pytest.approx([3.0, 2.0, 2.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_ground_state_norm_law(L):
    sign = (-1.0) ** L
    for alpha in range(4):
        g = pauli_ground_states_spin1(L, alpha)
        want = (3.0 ** L + 3 * sign) / 4 if alpha == 0 else (3.0 ** L - sign) / 4
        assert np.vdot(g, g).real == pytest.approx(want, rel=1e-12)
        assert abs(np.vdot(g, g).imag) < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_ground_states_are_orthogonal_eigenvectors(L):
    rho = pauli_density_matrix_spin1(L).astype(complex)
    states = [pauli_ground_states_spin1(L, a) for a in range(4)]
    for a, ga in enumerate(states):
        lam = float(spin1_closed(L, 0 if a == 0 else 1))
        unit = ga / np.linalg.norm(ga)
        assert np.max(np.abs(rho @ unit - lam * unit)) < 1e-12
        for gb in states[a + 1:]:
            assert abs(np.vdot(ga, gb)) < 1e-11


@pytest.mark.parametrize("L", [2, 3, 4])
def test_complement_eigenvalues_vanish(L):
    # outside the four distinguished vectors the spectrum is exactly zero
    eigs = sorted(eigenspectrum(pauli_density_matrix_spin1(L)), reverse=True)
    assert max(abs(v) for v in eigs[4:]) < 1e-12


def test_ground_state_argument_validation():
    with pytest.raises(ValueError):
        pauli_ground_states_spin1(1, 0)
    with pytest.raises(ValueError):
        pauli_ground_states_spin1(3, 4)


def test_some_components_are_genuinely_complex():
    # strings with an odd number of y-labels produce imaginary amplitudes;
    # all contracted quantities above stay real regardless
    found = any(
        np.max(np.abs(pauli_ground_states_spin1(3, alpha).imag)) > 0.1
        for alpha in range(4)
    )
    assert found


# ---------------------------------------------------------------------------
# completeness of the Pauli-label decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_channel_identity_residual(L):
    assert pauli_channel_identity_check(L) < 1e-13


def test_channel_identity_refuses_long_strings_before_allocating():
    # 3^15 strings exceed MAX_STATE_ENTRIES; the refusal comes before any array.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"3\^15 Pauli strings"):
            pauli_channel_identity_check(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
