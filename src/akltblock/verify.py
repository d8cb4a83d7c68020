"""Verification suites: formula-vs-formula and formula-vs-oracle checks.

Each suite returns a list of check records — plain dicts
``{suite, name, passed, detail, counterexample?}``. Every record comes from
one accumulator, ``_Check``, fed one (S, L, J, ...) cell at a time with the
cell's deviation and tolerance: the first cell over its tolerance becomes
the ``counterexample`` (its cell coordinates and values), which appears only
on failure, and the running maximum ``worst`` feeds the detail text. The
CLI builds its own agreement records with the same accumulator and
serializes all of them verbatim; tests assert on ``passed``. The accumulator,
the ``SUITES`` table, the exact suites ``suite_conjecture1`` and
``suite_flat_limit`` and the ``run_suite`` dispatcher live in the numpy-free
``akltblock.exact_suites``, where the CLI imports them from. This module
defines the oracle suites, which ``run_suite`` imports only when it runs one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .angular import TOL
from .exact_suites import _Check
from .exact_suites import suite_conjecture1, suite_flat_limit  # perfbench/tracer.py TARGETS names
from .oracle.dense import DEFAULT_MAX_DIM, ResourceCapError, numerical_rank
from .oracle.fock import (
    _block_factor,
    apply_spin_lowering,
    apply_spin_raising,
    apply_spin_z,
    build_full_vbs,
    correlator_reconstruction,
    degenerate_states,
    fock_block_spectrum,
    ladder_residual,
    partial_inner_identity_check,
    reduced_density_matrix,
    states_equal_exact,
    total_spin_checks,
    vacuum,
    valence_bond_power,
)
from .oracle.hamiltonians import (
    _block_sectors,
    _open_chain_sectors,
    _sector_null_space,
    pair_projector,
)
from .oracle.pauli import (
    pauli_block_spectrum,
    pauli_channel_identity_check,
    pauli_density_matrix_spin1,
    pauli_ground_states_spin1,
)
from .spectrum import eigenvalue_recurrence

__all__ = [
    "match_spectrum",
    "label_sectors",
    "ground_space_projector_gap",
    "suite_oracle",
    "suite_hamiltonian",
    "suite_appendix",
]


def match_spectrum(
    observed: Sequence[float],
    expected: Sequence[tuple[int, Fraction | float]],
    tol: float = TOL.match,
) -> tuple[bool, str, list[tuple[int | None, float, int]]]:
    """Match oracle eigenvalues against {Lambda(J) with multiplicity 2J+1}.

    In descending order of Lambda(J), each sector claims the 2J+1 closest
    unclaimed observed values. The verdict names the first claim off by more
    than ``tol``, else the first sector that runs out of values, else a
    leftover above ``TOL.zero``. A sector whose exact value is 0 never runs
    short: a block with fewer than (S+1)^2 states, such as one site (2S+1
    states, Lambda(J < S) = 0 at L = 1), has no room for those directions.
    Returns (ok, detail, rows): rows are (J, mean of the claimed values,
    2J+1) sorted by J, then, if values are left unclaimed, one row
    (None, max |leftover|, leftover count), all as Python numbers. The
    unclaimed values are kept in descending order, equal values in observed
    order, and each claim is the first ``argmin`` of the distance: a tie
    goes to the larger value, and among equal values to the first observed.
    """
    remaining = np.array(sorted(observed, reverse=True), dtype=float)
    failure = None if np.isfinite(remaining).all() else "non-finite observed eigenvalue"
    worst_match = 0.0
    rows = []
    for J, lam in sorted(expected, key=lambda item: -float(item[1])):
        target = float(lam)
        claimed = []
        while remaining.size and len(claimed) < 2 * J + 1:
            i = int(np.argmin(np.abs(remaining - target)))
            claimed.append(float(remaining[i]))
            remaining = np.delete(remaining, i)
            deviation = abs(claimed[-1] - target)
            worst_match = max(worst_match, deviation)
            if not deviation <= tol and failure is None:
                failure = (
                    f"J={J}: expected {target!r}, closest observed "
                    f"{claimed[-1]!r} (|diff|={deviation:.3e} > {tol})"
                )
        if lam != 0 and len(claimed) < 2 * J + 1 and failure is None:
            failure = f"ran out of eigenvalues while matching J={J}"
        if claimed:
            rows.append((J, sum(claimed) / len(claimed), 2 * J + 1))
    rows.sort()
    leftover = remaining.tolist()
    worst_leftover = max(map(abs, leftover), default=0.0)
    if leftover:
        rows.append((None, worst_leftover, len(leftover)))
    if worst_leftover > TOL.zero and failure is None:
        failure = f"leftover eigenvalue {worst_leftover:.3e} exceeds {TOL.zero}"
    detail = failure or f"max match dev {worst_match:.3e}, max leftover {worst_leftover:.3e}"
    return failure is None, detail, rows


def label_sectors(
    observed: Sequence[float], S: int, L: int
) -> tuple[list[tuple[int | None, float, int]], bool, str]:
    """``match_spectrum`` rows and verdict against the formula values of (S, L)."""
    ok, detail, rows = match_spectrum(observed, _formula_entries(S, L))
    if ok:
        detail = f"matched formula values within {TOL.match}, leftovers below {TOL.zero}"
    return rows, ok, detail


def _formula_entries(S: int, L: int) -> list[tuple[int, Fraction]]:
    return [(J, eigenvalue_recurrence(S, L, J)) for J in range(S + 1)]


def _worst(deviations) -> float:
    """The largest deviation, NaN if any is NaN: ``max`` drops a NaN that is not first."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations, default=0.0)


def _spectra_close(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest entrywise distance of two spectra; inf when their lengths differ."""
    return _worst([abs(x - y) for x, y in zip(a, b)]) if len(a) == len(b) else math.inf


def suite_oracle(
    spin: int = 1, max_length: int | None = None, max_dim: int = DEFAULT_MAX_DIM
) -> list[dict]:
    """Brute-force Fock (and for spin 1, Pauli) spectra against the formulas.

    ``max_length`` defaults to the largest L <= 6 (at least 2) whose
    (2S+1)^L-state block fits in ``max_dim``. Each oracle spectrum is built
    once per cell and reused by every check that reads it.
    """
    checks = []
    S = spin
    if max_length is None:
        max_length = max([2] + [L for L in range(2, 7) if (2 * S + 1) ** L <= max_dim])

    @lru_cache(maxsize=None)
    def fock(L: int, N: int, start: int) -> list[float]:
        return fock_block_spectrum(S, L, N=N, start=start, max_dim=max_dim)

    match = _Check("oracle", "fock_spectrum_matches_formula")
    detail = ""
    for L in range(2, max_length + 1):
        ok, detail, _ = match_spectrum(fock(L, L, 1), _formula_entries(S, L))
        if not match.cell(not ok, S=S, L=L, detail=detail):
            break
    checks.append(match.record(f"S={S}, L=2..{max_length}: " + detail))

    # At N = L the environment is the two end spins, (S+1)^2 states, so any
    # chain state obeys the bound; one more bulk site makes it a VBS property.
    rank_law = _Check("oracle", "rank_law")
    for L in range(2, max_length + 1):
        rank = numerical_rank(fock(L, L + 1, 1))
        if not rank_law.cell(
            rank != (S + 1) ** 2, S=S, L=L, N=L + 1, rank=rank, expected=(S + 1) ** 2
        ):
            break
    checks.append(
        rank_law.record(f"numerical rank of rho equals (S+1)^2 for S={S}, L=2..{max_length}")
    )

    L = 2
    reference = fock(L, L, 1)
    position = _Check("oracle", "position_and_size_independence")
    for N in (L, L + 1, L + 2):
        for start in range(1, N - L + 2):
            deviation = _spectra_close(reference, fock(L, N, start))
            position.cell(deviation, TOL.match, S=S, L=L, N=N, start=start, deviation=deviation)
    checks.append(
        position.record(
            f"block spectrum independent of N and block position (max dev {position.worst:.3e})"
        )
    )

    if S == 1:
        checks.extend(_pauli_checks(max_length, max_dim, fock))
        gap = _Check("oracle", "ground_space_projector_gap")
        gap_lengths = [L for L in (6, 8, 10) if L <= max_length]
        if len(gap_lengths) < 2:
            checks.append(gap.record("skipped (needs --max-length >= 8)"))
            return checks
        gaps = ground_space_projector_gap(S=1, lengths=gap_lengths)
        shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
        small_enough = gap_lengths[-1] < 10 or gaps[-1] < TOL.projector_gap
        gap.cell(not (shrinking and small_enough), lengths=gap_lengths, gaps=gaps)
        checks.append(
            gap.record(
                "||rho_L - P/(S+1)^2||_2 at L="
                + ",".join(map(str, gap_lengths))
                + ": "
                + ", ".join(f"{g:.3e}" for g in gaps)
            )
        )
    return checks


def _pauli_checks(max_length: int, max_dim: int, fock) -> list[dict]:
    """Spin-1 Pauli-string checks; ``fock(L, N, start)`` gives Fock spectra."""
    checks = []

    @lru_cache(maxsize=None)
    def pauli(L: int) -> list[float]:
        return pauli_block_spectrum(L, max_dim=max_dim)

    match = _Check("oracle", "pauli_spectrum_matches_formula")
    detail = ""
    for L in range(2, max_length + 1):
        ok, detail, _ = match_spectrum(pauli(L), _formula_entries(1, L), tol=TOL.zero)
        if not match.cell(not ok, S=1, L=L, detail=detail):
            break
    checks.append(match.record(f"L=2..{max_length}: " + detail))

    ground = _Check("oracle", "pauli_ground_states")
    for L in range(2, min(max_length, 5) + 1):
        states = [pauli_ground_states_spin1(L, alpha) for alpha in range(4)]
        sign = 3.0 if L % 2 == 0 else -3.0
        expected = [(3**L + sign) / 4.0] + [(3**L - sign / 3.0) / 4.0] * 3
        deviations = [
            abs(float(np.vdot(g, g).real) - norm_sq) for g, norm_sq in zip(states, expected)
        ]
        deviations.extend(
            float(abs(np.vdot(states[i], states[j]))) for i in range(4) for j in range(4) if i != j
        )
        rho = pauli_density_matrix_spin1(L)
        for alpha, g in enumerate(states):
            lam = float(eigenvalue_recurrence(1, L, 0 if alpha == 0 else 1))
            deviations.append(float(np.abs(rho @ g - lam * g).max()))
        deviation = _worst(deviations)
        if not ground.cell(deviation, TOL.residual, S=1, L=L, worst=deviation):
            break
    checks.append(
        ground.record(f"norms, orthogonality, eigen-relation (worst dev {ground.worst:.3e})")
    )

    channel = _Check("oracle", "pauli_channel_identity")
    for L in range(2, min(max_length, 5) + 1):
        residual = pauli_channel_identity_check(L)
        channel.cell(residual, TOL.channel, L=L, residual=residual)
    checks.append(
        channel.record(f"L=2..{min(max_length, 5)}, worst residual {channel.worst:.3e}")
    )

    routes = _Check("oracle", "pauli_equals_fock")
    for L in range(2, max_length + 1):
        deviation = _spectra_close(fock(L, L, 1), pauli(L))
        routes.cell(deviation, TOL.zero, L=L, deviation=deviation)
    checks.append(
        routes.record(f"two oracle routes agree, L=2..{max_length} (max dev {routes.worst:.3e})")
    )
    return checks


def ground_space_projector_gap(
    S: int = 1, lengths: Sequence[int] = (6, 8, 10)
) -> list[float]:
    """||rho_L - P/(S+1)^2||_2 for each L, with P the ground-space projector.

    Both sides are kept in rank-(S+1)^2 factored form: rho_L = A A^T from the
    pure chain state and P/(S+1)^2 = B B^T from the normalized degenerate VBS
    states, which are pairwise orthogonal. With [A B] = Q R, the difference
    is Q R D R^T Q^T for D = diag(+1, -1) over the two column blocks, so its
    spectral norm is the largest |eigenvalue| of the 2(S+1)^2-square R D R^T;
    no dense (2S+1)^L square matrix is ever formed.
    """
    signs = np.repeat([1.0, -1.0], (S + 1) ** 2)
    gaps = []
    for L in lengths:
        # No block cap beyond the state's own: the factor is never squared.
        factor_rho = _block_factor(build_full_vbs(S, L), 1, L)
        columns = [state.to_dense() for state in degenerate_states(S, L).values()]
        factor_proj = np.stack(columns, axis=1) / (S + 1)
        r = np.linalg.qr(np.hstack([factor_rho, factor_proj]), mode="r")
        gaps.append(float(np.abs(np.linalg.eigvalsh((r * signs) @ r.T)).max()))
    return gaps


def _default_hamiltonian_lengths(spin: int) -> list[int]:
    if spin == 1:
        return [2, 3, 4, 5]
    if spin == 2:
        return [2, 3]
    return [2]


def suite_hamiltonian(
    spin: int = 1,
    lengths: Sequence[int] | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[dict]:
    """Projector algebra, ground-space structure, and uniqueness checks."""
    S = spin
    lengths = list(lengths) if lengths is not None else _default_hamiltonian_lengths(S)
    checks = []

    deviations = []
    for pair in ((2 * S, 2 * S), (S, 2 * S)):
        tjs = range(abs(pair[0] - pair[1]), pair[0] + pair[1] + 1, 2)
        total = np.zeros(((pair[0] + 1) * (pair[1] + 1),) * 2)
        for tj in tjs:
            proj = pair_projector(pair[0], pair[1], tj)
            deviations.append(float(np.abs(proj @ proj - proj).max()))
            deviations.append(abs(proj.trace() - (tj + 1)))
            total += proj
        deviations.append(float(np.abs(total - np.eye(total.shape[0])).max()))
    # One cell: its counterexample reports the worst deviation over every pair.
    worst = _worst(deviations)
    algebra = _Check("hamiltonian", "projector_algebra")
    algebra.cell(worst, TOL.roundoff, S=S, worst=worst)
    checks.append(
        algebra.record(
            f"P^2=P, tr P = 2J+1, completeness for S-S and S/2-S pairs (worst {worst:.3e})"
        )
    )

    ground = _Check("hamiltonian", "block_ground_space")
    info = []
    for L in lengths:
        try:
            _, sectors = _block_sectors(S, L, max_dim=max_dim)
        except ResourceCapError:
            continue
        values = np.concatenate([np.linalg.eigvalsh(block) for _, block in sectors])
        dim_null = int(np.count_nonzero(values < TOL.null_space))
        lowest = values.min()
        states = degenerate_states(S, L).values()
        residual = _worst([_sector_residual(sectors, state.to_dense()) for state in states])
        info.append(f"L={L}: null dim {dim_null}, residual {residual:.1e}")
        if not ground.cell(
            dim_null != (S + 1) ** 2 or not residual <= TOL.residual or not lowest >= -TOL.zero,
            S=S,
            L=L,
            null_dimension=dim_null,
            expected=(S + 1) ** 2,
            annihilation_residual=residual,
        ):
            break
    checks.append(ground.record("; ".join(info) or "no length within cap"))

    unique = _Check("hamiltonian", "unique_ground_state")
    info = []
    null_dims = {}
    for N in lengths:
        try:
            dim, sectors = _open_chain_sectors(S, N, max_dim=max_dim)
        except ResourceCapError:
            continue
        basis = _sector_null_space(dim, sectors)
        null_dims[N] = basis.shape[1]
        vbs = build_full_vbs(S, N).to_dense()
        residual = _sector_residual(sectors, vbs)
        overlap = float(np.abs(basis.T @ vbs).max()) if basis.shape[1] else 0.0
        info.append(f"N={N}: null dim {basis.shape[1]}, residual {residual:.1e}")
        if not unique.cell(
            basis.shape[1] != 1
            or not residual <= TOL.residual
            or not abs(overlap - 1.0) <= TOL.residual,
            S=S,
            N=N,
            null_dimension=basis.shape[1],
            annihilation_residual=residual,
            vbs_overlap=overlap,
        ):
            break
    checks.append(unique.record("; ".join(info) or "no size within cap"))

    N = lengths[0]
    sectors = None  # free the last open-chain blocks before the rescaled ones are built
    # Had the cap skipped lengths[0] above, this build raises ResourceCapError.
    doubled = _open_chain_sectors(S, N, C=[2.0] * S, D=[2.0] * S, max_dim=max_dim)
    rescale = _Check("hamiltonian", "coupling_rescale_invariance")
    doubled_null = _sector_null_space(*doubled).shape[1]
    rescale.cell(doubled_null != null_dims[N], S=S, N=N)
    checks.append(
        rescale.record(f"S={S}, N={N}: doubling all projector weights preserves the null space")
    )
    return checks


def _sector_residual(sectors, vec: np.ndarray) -> float:
    """||H vec|| for H given by its (idx, block) S^z sectors."""
    return math.sqrt(sum(float(np.dot(r, r)) for r in (block @ vec[idx] for idx, block in sectors)))


def suite_appendix(max_spin: int = 2) -> list[dict]:
    """Correlator, partial-inner-product, and total-spin identity checks."""
    checks = []

    correlator = _Check("appendix", "correlator_reconstruction")
    full = build_full_vbs(1, 3)
    for L in (2, 3):
        traced = reduced_density_matrix(full, 1, L)
        rebuilt = correlator_reconstruction(full, 1, L)
        deviation = float(np.abs(traced - rebuilt).max())
        correlator.cell(deviation, TOL.zero, S=1, L=L, deviation=deviation)
    checks.append(
        correlator.record(f"S=1, N=3, L=2..3 entrywise (worst {correlator.worst:.3e})")
    )

    inner = _Check("appendix", "partial_inner_identity")
    for S in range(1, min(max_spin, 2) + 1):
        for J in range(S + 1):
            for M in range(-J, J + 1):
                residual = partial_inner_identity_check(S, 2, J, M)
                inner.cell(residual, TOL.zero, S=S, L=2, J=J, M=M, residual=residual)
    checks.append(
        inner.record(
            f"boundary contraction identity, S<={min(max_spin, 2)}, L=2, all (J,M) "
            f"(worst {inner.worst:.3e})"
        )
    )

    spin = _Check("appendix", "total_spin_quantum_numbers")
    instances = [(1, 3)] + ([(2, 2)] if max_spin >= 2 else [])
    for S, L in instances:
        states = degenerate_states(S, L)
        for (J, M), state in states.items():
            residuals = total_spin_checks(state)
            spin.cell(_worst(residuals.values()), TOL.residual, S=S, L=L, J=J, M=M, **residuals)
        for J in range(1, S + 1):
            for M in range(-J, J):
                residual = ladder_residual(states[(J, M)], states[(J, M + 1)])
                spin.cell(residual, TOL.residual, S=S, L=L, J=J, M=M, ladder=residual)
        top, singlet = states[(S, S)], states[(0, 0)]
        spin.cell(
            bool(apply_spin_raising(top).amps),
            S=S, L=L, J=S, M=S, detail="top state not annihilated",
        )
        spin.cell(
            bool(apply_spin_raising(singlet).amps or apply_spin_lowering(singlet).amps),
            S=S, L=L, J=0, M=0, detail="singlet not annihilated",
        )
    checks.append(
        spin.record(f"S^z, Casimir, ladder and annihilation residuals (worst {spin.worst:.3e})")
    )

    bond = _Check("appendix", "bond_operator_commutators")
    base = valence_bond_power(vacuum(3), 0, 1, 1)
    for op in (apply_spin_raising, apply_spin_lowering, apply_spin_z):
        before = valence_bond_power(op(base), 1, 2, 2)
        after = op(valence_bond_power(base, 1, 2, 2))
        bond.cell(not states_equal_exact(before, after), detail="exact commutator check failed")
    bond.cell(
        bool(apply_spin_raising(build_full_vbs(1, 2)).amps),
        detail="exact commutator check failed",
    )
    checks.append(
        bond.record(
            "total-spin operators commute with valence-bond factors (exact); "
            "full chain is a singlet"
        )
    )
    return checks
