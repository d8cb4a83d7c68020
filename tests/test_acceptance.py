"""Acceptance suite: one test per contracted criterion.

Each test prints a single line

    ACCEPTANCE <n> <title>: PASS|FAIL (<elapsed>)

(run pytest with -s to see the lines as they happen; captured output shows
them for failures).  Tolerances and runtime budgets are asserted exactly as
contracted; exceeding a budget fails the criterion even if the values agree.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from akltblock.entropy import renyi, von_neumann
from akltblock.oracle import (
    block_hamiltonian,
    build_full_vbs,
    correlator_reconstruction,
    degenerate_states,
    eigenspectrum,
    fock_block_spectrum,
    ladder_residual,
    null_space,
    partial_inner_identity_check,
    pauli_channel_identity_check,
    pauli_density_matrix_spin1,
    pauli_ground_states_spin1,
    reduced_density_matrix,
    total_spin_checks,
    unique_hamiltonian,
)
from akltblock.spectrum import (
    block_spectrum,
    degenerate_norm,
    eigenvalue_closed,
    eigenvalue_recurrence,
    flat_limit_bound,
    lambda_coeff,
    saturation_value,
    spin1_closed,
    vbs_norm,
)
from akltblock.verify import match_spectrum


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    failure = None
    try:
        yield
    except BaseException as exc:  # report the verdict line before re-raising
        failure = exc
    elapsed = time.perf_counter() - start
    over_budget = budget is not None and elapsed > budget
    verdict = "PASS" if failure is None and not over_budget else "FAIL"
    note = f"{elapsed:.2f}s" + (f", budget {budget:g}s" if budget else "")
    print(f"ACCEPTANCE {number} {title}: {verdict} ({note})", flush=True)
    if failure is not None:
        raise failure
    if over_budget:
        pytest.fail(f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s > {budget:g}s")


def test_criterion_1_spin1_eigenvalues_exact():
    with criterion(1, "spin-1 block eigenvalues exact for L=1..16", budget=1.0):
        for L in range(1, 17):
            want0 = Fraction(1, 4) * (1 + 3 * Fraction(-1, 3) ** L)
            want1 = Fraction(1, 4) * (1 - Fraction(-1, 3) ** L)
            for route in (eigenvalue_recurrence, eigenvalue_closed):
                assert route(1, L, 0) == want0 == spin1_closed(L, 0)
                assert route(1, L, 1) == want1 == spin1_closed(L, 1)


def test_criterion_2_recurrence_equals_closed_form():
    with criterion(2, "recurrence == closed form, S<=5, 2<=L<=30", budget=30.0):
        for S in range(1, 6):
            for L in range(2, 31):
                for J in range(S + 1):
                    a = eigenvalue_recurrence(S, L, J)
                    b = eigenvalue_closed(S, L, J)
                    if a != b:
                        pytest.fail(
                            "counterexample: "
                            + json.dumps(
                                {"S": S, "L": L, "J": J,
                                 "recurrence": str(a), "closed_form": str(b)}
                            )
                        )


def test_criterion_3_trace_law_exact():
    with criterion(3, "unit trace exact, S<=8, L<=64, both routes", budget=30.0):
        for route in (eigenvalue_recurrence, eigenvalue_closed):
            for S in range(1, 9):
                for L in range(1, 65):
                    total = sum((2 * J + 1) * route(S, L, J) for J in range(S + 1))
                    assert total == 1, (route.__name__, S, L)


_ORACLE_GRID = [(1, L) for L in range(2, 7)] + [(2, L) for L in range(2, 5)] + [(3, 2), (3, 3)]


def test_criterion_4_fock_oracle_matches_formulas():
    with criterion(4, "Fock-oracle spectra match formulas on the contracted grid", budget=300.0):
        for S, L in _ORACLE_GRID:
            observed = fock_block_spectrum(S, L)
            expected = [(J, eigenvalue_recurrence(S, L, J)) for J in range(S + 1)]
            ok, detail, _ = match_spectrum(observed, expected, tol=1e-9)
            assert ok, f"(S={S}, L={L}): {detail}"


def test_criterion_5_norms_exact_and_gram_diagonal():
    with criterion(5, "closed-form norms exact; degenerate Gram diagonal"):
        # raw full-chain norm-squares
        for S, N in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2)]:
            assert build_full_vbs(S, N).norm_square_exact() == vbs_norm(S, N)
        # spin-1 dressed-block norms: (3^L + 3(-1)^L)/2 and (3^L - (-1)^L)/2
        for L in range(2, 7):
            assert degenerate_norm(1, L, 0) == Fraction(3 ** L + 3 * (-1) ** L, 2)
            assert degenerate_norm(1, L, 1) == Fraction(3 ** L - (-1) ** L, 2)
        # Gram matrices: diagonal to 1e-10 relative, M-independent diagonals
        for S, L in _ORACLE_GRID:
            states = degenerate_states(S, L)
            for J in range(S + 1):
                norms = {M: states[(J, M)].norm_square_exact() for M in range(-J, J + 1)}
                assert len(set(norms.values())) == 1, (S, L, J)
                assert norms[J] == degenerate_norm(S, L, J)
            dense = {key: st.to_dense(normalized=True) for key, st in states.items()}
            keys = sorted(dense)
            for i, a in enumerate(keys):
                for b in keys[i + 1:]:
                    assert abs(np.dot(dense[a], dense[b])) < 1e-10, (S, L, a, b)


def test_criterion_6_hamiltonian_ground_spaces():
    with criterion(6, "block null space (S+1)^2; unique full-chain zero mode", budget=120.0):
        for S, lengths in [(1, range(2, 6)), (2, range(2, 4))]:
            for L in lengths:
                h = block_hamiltonian(S, L)
                eigs = np.linalg.eigvalsh(h)
                assert eigs[0] > -1e-10, (S, L)
                assert int(np.sum(eigs < 1e-8)) == (S + 1) ** 2, (S, L)
                for (J, M), state in degenerate_states(S, L).items():
                    vec = state.to_dense(normalized=True)
                    assert np.max(np.abs(h @ vec)) < 1e-9, (S, L, J, M)
        for N in range(2, 6):
            h = unique_hamiltonian(1, N)
            kernel = null_space(h)
            assert kernel.shape[1] == 1, N
            vbs = build_full_vbs(1, N).to_dense(normalized=True)
            assert abs(float(kernel[:, 0] @ vbs)) == pytest.approx(1.0, abs=1e-9), N


def test_criterion_7_flat_limit_and_saturation():
    with criterion(7, "flat-spectrum limit bound and entropy saturation", budget=5.0):
        for S in range(1, 6):
            decay = abs(lambda_coeff(1, S))
            flat = Fraction(1, (S + 1) ** 2)
            for J in range(S + 1):
                K = flat_limit_bound(S, J)
                for L in range(1, 41):
                    gap = abs(eigenvalue_recurrence(S, L, J) - flat)
                    assert gap <= K * decay ** (L - 1), (S, L, J)
        for S in range(1, 5):
            spec = block_spectrum(S, 24)
            target = saturation_value(S)
            assert abs(von_neumann(spec) - target) < 1e-6, S
            for alpha in (0.5, 2.0):
                assert abs(renyi(spec, alpha) - target) < 1e-6, (S, alpha)


def test_criterion_8_pauli_string_oracle():
    with criterion(8, "Pauli-string oracle: spectra, norms, channel identity", budget=60.0):
        for L in range(2, 8):
            rho = pauli_density_matrix_spin1(L)
            observed = eigenspectrum(rho, max_dim=3 ** 7)
            expected = [(J, spin1_closed(L, J)) for J in (0, 1)]
            ok, detail, _ = match_spectrum(observed, expected, tol=1e-10)
            assert ok, f"L={L}: {detail}"   # includes the vanishing complement
        for L in range(2, 6):
            sign = (-1.0) ** L
            for alpha in range(4):
                g = pauli_ground_states_spin1(L, alpha)
                want = (3.0 ** L + 3 * sign) / 4 if alpha == 0 else (3.0 ** L - sign) / 4
                assert np.vdot(g, g).real == pytest.approx(want, rel=1e-12), (L, alpha)
            assert pauli_channel_identity_check(L) < 1e-13, L


def test_criterion_9_appendix_identities():
    with criterion(9, "correlator, partial-inner and total-spin identities", budget=60.0):
        chain = build_full_vbs(1, 3)
        for start, length in [(1, 2), (2, 2), (1, 3)]:
            direct = reduced_density_matrix(chain, start, length)
            rebuilt = correlator_reconstruction(chain, start, length)
            assert np.max(np.abs(direct - rebuilt)) < 1e-10, (start, length)
        for S in (1, 2):
            for J in range(S + 1):
                for M in range(-J, J + 1):
                    assert partial_inner_identity_check(S, 2, J, M) < 1e-10, (S, J, M)
        for S, L in [(1, 3), (2, 2)]:
            states = degenerate_states(S, L)
            for (J, M), state in states.items():
                checks = total_spin_checks(state)
                assert checks["sz_residual"] < 1e-9, (S, L, J, M)
                assert checks["casimir_residual"] < 1e-9, (S, L, J, M)
            for J in range(S + 1):
                for M in range(-J, J):
                    assert ladder_residual(states[(J, M)], states[(J, M + 1)]) < 1e-9
