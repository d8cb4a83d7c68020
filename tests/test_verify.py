"""Tests for the cross-checking suites and the spectrum matcher."""

from fractions import Fraction

import pytest

from akltblock import verify
from akltblock.spectrum import block_spectrum
from akltblock.verify import (
    ground_space_projector_gap,
    match_spectrum,
    run_suite,
    suite_appendix,
    suite_conjecture1,
    suite_flat_limit,
    suite_hamiltonian,
    suite_oracle,
)


def all_passed(checks):
    failed = [c for c in checks if not c["passed"]]
    assert not failed, failed
    return True


# ---------------------------------------------------------------------------
# the multiplicity-aware spectrum matcher
# ---------------------------------------------------------------------------

def test_match_spectrum_accepts_exact_multiplets():
    observed = [1 / 3, 2 / 9, 2 / 9, 2 / 9, 0.0, 0.0]
    expected = [(0, Fraction(1, 3)), (1, Fraction(2, 9))]
    ok, detail = match_spectrum(observed, expected)
    assert ok
    assert "max match dev" in detail


def test_match_spectrum_flags_shifted_eigenvalue():
    observed = [1 / 3 + 1e-6, 2 / 9, 2 / 9, 2 / 9]
    ok, detail = match_spectrum(observed, [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "J=0" in detail


def test_match_spectrum_flags_leftover_weight():
    observed = [1 / 3, 2 / 9, 2 / 9, 2 / 9, 1e-3]
    ok, detail = match_spectrum(observed, [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "leftover" in detail


def test_match_spectrum_flags_missing_eigenvalues():
    ok, detail = match_spectrum([1 / 3], [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "ran out" in detail


def test_match_spectrum_respects_tolerances():
    observed = [1 / 3 + 5e-7, 2 / 9, 2 / 9, 2 / 9]
    expected = [(0, Fraction(1, 3)), (1, Fraction(2, 9))]
    ok, _ = match_spectrum(observed, expected, tol=1e-6)
    assert ok
    ok, _ = match_spectrum(observed, expected, tol=1e-8)
    assert not ok


# ---------------------------------------------------------------------------
# suites (reduced grids; the acceptance suite runs the contracted ones)
# ---------------------------------------------------------------------------

def test_conjecture1_suite_passes():
    all_passed(suite_conjecture1(max_spin=3, max_length=12))


def test_oracle_suite_passes():
    all_passed(suite_oracle(spin=1, max_length=4))


def test_oracle_suite_spin2():
    all_passed(suite_oracle(spin=2, max_length=3))


def test_hamiltonian_suite_passes():
    all_passed(suite_hamiltonian(spin=1, lengths=[2, 3]))
    all_passed(suite_hamiltonian(spin=2, lengths=[2]))


def test_appendix_suite_passes():
    all_passed(suite_appendix(max_spin=2))


def test_flat_limit_suite_passes():
    all_passed(suite_flat_limit(max_spin=3, max_length=12))


def test_run_suite_dispatch():
    checks = run_suite("conjecture1", max_spin=2, max_length=6)
    all_passed(checks)
    assert all(c["suite"] == "conjecture1" for c in checks)
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_all_covers_every_suite():
    checks = run_suite("all", max_spin=2, spin=1)
    suites = {c["suite"] for c in checks}
    assert suites == {"conjecture1", "oracle", "hamiltonian", "appendix"}
    all_passed(checks)


def test_check_records_are_serializable():
    for record in suite_conjecture1(max_spin=1, max_length=4):
        assert isinstance(record["suite"], str)
        assert isinstance(record["name"], str)
        assert isinstance(record["passed"], bool)
        assert isinstance(record["detail"], str)


# ---------------------------------------------------------------------------
# a failing check names its first failing cell, however many cells follow
# ---------------------------------------------------------------------------

def _counterexample(checks, name):
    record = next(c for c in checks if c["name"] == name)
    assert not record["passed"]
    return record["counterexample"]


def test_oracle_checks_report_first_counterexample(monkeypatch):
    monkeypatch.setattr(verify, "_spectra_close", lambda a, b: 1.0)
    monkeypatch.setattr(verify, "pauli_channel_identity_check", lambda L: 1.0)
    checks = suite_oracle(spin=1, max_length=3)
    position = _counterexample(checks, "position_and_size_independence")
    assert (position["N"], position["start"]) == (2, 1)
    assert _counterexample(checks, "pauli_channel_identity")["L"] == 2
    assert _counterexample(checks, "pauli_equals_fock")["L"] == 2


def test_appendix_checks_report_first_counterexample(monkeypatch):
    real_total_spin_checks = verify.total_spin_checks

    def total_spin_checks(state):
        residuals = real_total_spin_checks(state)
        # cell (S, L, J, M); the site spins are stored doubled
        if (state.spins[0] // 2, len(state.spins), *state.sector) in {(1, 3, 1, 0), (1, 3, 1, 1)}:
            residuals["casimir_residual"] = 1.0
        return residuals

    monkeypatch.setattr(verify, "total_spin_checks", total_spin_checks)
    monkeypatch.setattr(
        verify, "partial_inner_identity_check", lambda S, L, J, M: 1.0 if J == 1 else 0.0
    )
    monkeypatch.setattr(
        verify,
        "correlator_reconstruction",
        lambda state, start, length: verify.reduced_density_matrix(state, start, length) + 1.0,
    )
    checks = suite_appendix(max_spin=2)
    assert _counterexample(checks, "correlator_reconstruction")["L"] == 2
    inner = _counterexample(checks, "partial_inner_identity")
    assert (inner["S"], inner["J"], inner["M"]) == (1, 1, -1)
    spin = _counterexample(checks, "total_spin_quantum_numbers")
    assert (spin["S"], spin["L"], spin["J"], spin["M"]) == (1, 3, 1, 0)
    assert spin["casimir_residual"] == 1.0


# ---------------------------------------------------------------------------
# ground-space projector distance (Gram form: no dense (2S+1)^L square)
# ---------------------------------------------------------------------------

def test_projector_gap_shrinks_with_block_size():
    gaps = ground_space_projector_gap(S=1, lengths=(6, 8, 10))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-4


@pytest.mark.parametrize("S, lengths", [(1, (6, 8, 10)), (2, (4, 5))])
def test_projector_gap_equals_largest_flat_deviation(S, lengths):
    # rho_L and P/(S+1)^2 are both diagonal on the degenerate VBS states,
    # so the spectral norm of their difference is max_J |Lambda(J) - flat|.
    flat = Fraction(1, (S + 1) ** 2)
    for L, gap in zip(lengths, ground_space_projector_gap(S=S, lengths=lengths)):
        expected = max(abs(value - flat) for _, value, _ in block_spectrum(S, L).entries)
        assert gap == pytest.approx(float(expected), rel=1e-9), (S, L)
