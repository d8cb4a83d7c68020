"""Brute-force verification engine for the block-spectrum formulas.

Everything here recomputes quantities from first principles — explicit state
vectors, partial traces, dense diagonalization, Pauli-string algebra — so the
exact-arithmetic results of :mod:`akltblock.spectrum` can be checked against
an independent route.
"""

from .dense import (
    DEFAULT_MAX_DIM,
    MAX_STATE_ENTRIES,
    ResourceCapError,
    eigenspectrum,
    numerical_rank,
    require_dim,
    require_hermitian,
)
from .fock import (
    StateVector,
    apply_psi_dagger,
    apply_spin_lowering,
    apply_spin_raising,
    apply_spin_z,
    build_block_vbs,
    build_full_vbs,
    correlator_reconstruction,
    degenerate_states,
    edge_pair_state,
    fock_block_spectrum,
    ladder_residual,
    linear_combine,
    partial_inner_identity_check,
    reduced_density_matrix,
    states_equal_exact,
    total_spin_checks,
    vacuum,
    valence_bond_power,
)
from .hamiltonians import (
    block_hamiltonian,
    null_space,
    pair_projector,
    unique_hamiltonian,
)
from .pauli import (
    entangled_basis,
    pauli_block_spectrum,
    pauli_channel_identity_check,
    pauli_density_matrix_spin1,
    pauli_ground_states_spin1,
)

__all__ = [
    "DEFAULT_MAX_DIM",
    "MAX_STATE_ENTRIES",
    "ResourceCapError",
    "eigenspectrum",
    "numerical_rank",
    "require_dim",
    "require_hermitian",
    "StateVector",
    "vacuum",
    "valence_bond_power",
    "build_block_vbs",
    "build_full_vbs",
    "edge_pair_state",
    "apply_psi_dagger",
    "degenerate_states",
    "reduced_density_matrix",
    "fock_block_spectrum",
    "correlator_reconstruction",
    "partial_inner_identity_check",
    "apply_spin_raising",
    "apply_spin_lowering",
    "apply_spin_z",
    "total_spin_checks",
    "ladder_residual",
    "linear_combine",
    "states_equal_exact",
    "pair_projector",
    "block_hamiltonian",
    "unique_hamiltonian",
    "null_space",
    "pauli_block_spectrum",
    "pauli_density_matrix_spin1",
    "pauli_ground_states_spin1",
    "pauli_channel_identity_check",
    "entangled_basis",
]
