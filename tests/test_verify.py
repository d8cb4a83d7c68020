"""Tests for the cross-checking suites and the spectrum matcher."""

from fractions import Fraction

import pytest

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
