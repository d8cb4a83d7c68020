"""Tests for the cross-checking suites and the spectrum matcher."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akltblock import cli, exact_suites, spectrum, verify
from akltblock.angular import TOL
from akltblock.oracle import hamiltonians
from akltblock.oracle import ResourceCapError
from akltblock.exact_suites import run_suite, suite_conjecture1, suite_flat_limit
from akltblock.spectrum import (
    block_spectrum,
    eigenvalue_recurrence,
    flat_limit_bound,
    lambda_coeff,
)
from akltblock.verify import (
    ground_space_projector_gap,
    match_spectrum,
    suite_appendix,
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
    ok, detail, rows = match_spectrum(observed, expected)
    assert ok
    assert "max match dev" in detail
    assert rows == [(0, 1 / 3, 1), (1, 2 / 9, 3), (None, 0.0, 2)]


def test_match_spectrum_flags_shifted_eigenvalue():
    observed = [1 / 3 + 1e-6, 2 / 9, 2 / 9, 2 / 9]
    ok, detail, _ = match_spectrum(observed, [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "J=0" in detail


def test_match_spectrum_flags_leftover_weight():
    observed = [1 / 3, 2 / 9, 2 / 9, 2 / 9, 1e-3]
    ok, detail, _ = match_spectrum(observed, [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "leftover" in detail


def test_match_spectrum_flags_missing_eigenvalues():
    ok, detail, _ = match_spectrum([1 / 3], [(0, Fraction(1, 3)), (1, Fraction(2, 9))])
    assert not ok
    assert "ran out" in detail


def test_match_spectrum_fails_on_nan():
    nan = float("nan")
    ok, detail, _ = match_spectrum([nan], [(0, Fraction(1))])
    assert not ok and detail == "non-finite observed eigenvalue"
    # a NaN left over after every sector is served
    ok, _, _ = match_spectrum([1.0, nan], [(0, Fraction(1))])
    assert not ok
    # a NaN target fails its claim
    ok, detail, _ = match_spectrum([1.0], [(0, nan)])
    assert not ok and detail.startswith("J=0: expected nan")


def test_match_spectrum_zero_sector_may_run_out():
    # one spin-1 site: three states of 1/3 and no room for Lambda(0) = 0
    ok, detail, _ = match_spectrum([1 / 3] * 3, [(0, Fraction(0)), (1, Fraction(1, 3))])
    assert ok, detail


def test_match_spectrum_respects_tolerances():
    observed = [1 / 3 + 5e-7, 2 / 9, 2 / 9, 2 / 9]
    expected = [(0, Fraction(1, 3)), (1, Fraction(2, 9))]
    ok, _, _ = match_spectrum(observed, expected, tol=1e-6)
    assert ok
    ok, _, _ = match_spectrum(observed, expected, tol=1e-8)
    assert not ok


def _linear_match(observed, expected, tol):
    """The matcher as one linear scan per claim, a tie going to the larger value."""
    remaining = list(observed)
    failure, worst_match, rows = None, 0.0, []
    for J, lam in sorted(expected, key=lambda item: -float(item[1])):
        target, claimed = float(lam), []
        while remaining and len(claimed) < 2 * J + 1:
            best = min(
                range(len(remaining)),
                key=lambda i: (abs(remaining[i] - target), -remaining[i]),
            )
            claimed.append(remaining.pop(best))
            deviation = abs(claimed[-1] - target)
            worst_match = max(worst_match, deviation)
            if deviation > tol and failure is None:
                failure = (
                    f"J={J}: expected {target!r}, closest observed "
                    f"{claimed[-1]!r} (|diff|={deviation:.3e} > {tol})"
                )
        if lam != 0 and len(claimed) < 2 * J + 1 and failure is None:
            failure = f"ran out of eigenvalues while matching J={J}"
        if claimed:
            rows.append((J, sum(claimed) / len(claimed), 2 * J + 1))
    rows.sort()
    worst_leftover = max((abs(v) for v in remaining), default=0.0)
    if remaining:
        rows.append((None, worst_leftover, len(remaining)))
    if worst_leftover > TOL.zero and failure is None:
        failure = f"leftover eigenvalue {worst_leftover:.3e} exceeds {TOL.zero}"
    detail = failure or f"max match dev {worst_match:.3e}, max leftover {worst_leftover:.3e}"
    return failure is None, detail, rows


# Exact ties: 0.375 sits halfway between 0.25 and 0.5, and 1 + 2u and
# 1 + 3u (u = 2^-52) lie at the same rounded distance from 2^-53.
_TIED_VALUES = [0.0, -0.0, 0.25, 0.375, 0.5, 1 / 3, 2 / 9, 1e-17, -1e-17,
                1.0, 1 + 2 * 2.0**-52, 1 + 3 * 2.0**-52, 2.0**-53]
_values = st.one_of(st.sampled_from(_TIED_VALUES), st.floats(-1.0, 2.0))


@settings(deadline=None, max_examples=300)
@given(
    observed=st.lists(_values, max_size=14),
    expected=st.dictionaries(
        st.integers(0, 3),
        st.one_of(st.sampled_from(_TIED_VALUES), st.fractions(0, 1, max_denominator=12)),
        max_size=4,
    ),
    tol=st.sampled_from([1e-9, 0.2]),
)
@example(observed=[0.25, 0.5], expected={0: 0.375}, tol=1e-9)
@example(observed=[1 + 2 * 2.0**-52, 1 + 3 * 2.0**-52], expected={0: 2.0**-53}, tol=1e-9)
@example(observed=[-0.0, 0.0, 2.0], expected={0: 0.5}, tol=1e-9)
def test_match_spectrum_claims_like_a_linear_scan(observed, expected, tol):
    expected = list(expected.items())
    assert match_spectrum(observed, expected, tol) == _linear_match(observed, expected, tol)
    descending = sorted(observed, reverse=True)
    assert match_spectrum(descending, expected, tol) == _linear_match(descending, expected, tol)


# ---------------------------------------------------------------------------
# suites (reduced grids; the acceptance suite runs the contracted ones)
# ---------------------------------------------------------------------------

def test_conjecture1_suite_passes():
    all_passed(suite_conjecture1(max_spin=3, max_length=12))


def test_oracle_suite_passes():
    all_passed(suite_oracle(spin=1, max_length=4))


def test_oracle_suite_reaches_projector_gap():
    # The gap record needs L = 8, whose 6561-state block the default cap refuses.
    checks = suite_oracle(spin=1, max_length=8, max_dim=6561)
    all_passed(checks)
    gap = [c for c in checks if c["name"] == "ground_space_projector_gap"]
    assert len(gap) == 1 and gap[0]["detail"].startswith("||rho_L - P/(S+1)^2||_2 at L=6,8: ")


def test_oracle_suite_spin2():
    all_passed(suite_oracle(spin=2, max_length=3))


def test_hamiltonian_suite_passes():
    all_passed(suite_hamiltonian(spin=1, lengths=[2, 3]))
    all_passed(suite_hamiltonian(spin=2, lengths=[2]))


def test_hamiltonian_suite_skips_lengths_past_the_cap():
    # 3^8 block states and 2^2 3^8 chain states exceed the default cap, so
    # L = N = 8 is left out; the rescale check reads the first length.
    checks = suite_hamiltonian(spin=1, lengths=[2, 8])
    all_passed(checks)
    details = {c["name"]: c["detail"] for c in checks}
    assert details["block_ground_space"].startswith("L=2: null dim 4,")
    assert "L=8" not in details["block_ground_space"]
    assert details["unique_ground_state"].startswith("N=2: null dim 1,")
    assert "N=8" not in details["unique_ground_state"]
    with pytest.raises(ResourceCapError, match="open-chain Hamiltonian dimension 26244"):
        suite_hamiltonian(spin=1, lengths=[8, 2])


def test_hamiltonian_suite_default_lengths_past_spin_two():
    # From S = 3 on the default lengths are L = N = 2 alone.
    checks = suite_hamiltonian(spin=3)
    all_passed(checks)
    detail = {c["name"]: c["detail"] for c in checks}["block_ground_space"]
    assert detail.startswith("L=2: null dim 16,")
    assert detail.count("L=") == 1


def test_hamiltonian_suite_diagonalizes_each_matrix_once(monkeypatch):
    # Every S^z block that the sector builder returns is screened by one
    # eigvalsh; eigh runs once, on the block that holds the open chain's null
    # vector. Nothing else, and no chain-size matrix, is diagonalized.
    built, screened, solved = [], [], []
    real_sectors = hamiltonians._chain_sectors

    def chain_sectors(*args):
        dim, sectors = real_sectors(*args)
        built.append(sectors)
        return dim, sectors

    def spy(name, calls):
        real = getattr(np.linalg, name)

        def wrapper(mat, *args, **kwargs):
            calls.append(mat)
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    monkeypatch.setattr(hamiltonians, "_chain_sectors", chain_sectors)
    spy("eigvalsh", screened)
    spy("eigh", solved)
    all_passed(suite_hamiltonian(spin=1, lengths=[2, 3]))
    assert len(built) == 5  # two block, two open-chain, one rescaled
    assert sorted(map(id, screened)) == sorted(id(b) for sectors in built for _, b in sectors)
    # one eigh per open-chain build, on its middle (S^z = 0) block
    assert list(map(id, solved)) == [id(sectors[len(sectors) // 2][1]) for sectors in built[2:]]


def test_oracle_suite_builds_one_pauli_spectrum_per_length(monkeypatch):
    built = []
    real = verify.pauli_block_spectrum

    def counted(L, max_dim):
        built.append(L)
        return real(L, max_dim=max_dim)

    monkeypatch.setattr(verify, "pauli_block_spectrum", counted)
    all_passed(suite_oracle(spin=1, max_length=6))
    assert built == [2, 3, 4, 5, 6]


def test_appendix_suite_passes():
    all_passed(suite_appendix(max_spin=2))


def test_correlator_check_does_not_read_the_dense_factor(monkeypatch):
    # Permuting the rows of the dense (block x environment) factor changes
    # the partial trace but not the correlators, which come from the sparse
    # exact amplitudes; the record must notice the difference.
    from akltblock.oracle import fock

    real = fock._block_factor
    monkeypatch.setattr(
        fock, "_block_factor", lambda *args: np.roll(real(*args), 1, axis=0)
    )
    (record,) = [c for c in suite_appendix(max_spin=2) if c["name"] == "correlator_reconstruction"]
    assert not record["passed"]
    assert record["counterexample"]["L"] == 2


def test_flat_limit_suite_passes():
    all_passed(suite_flat_limit(max_spin=3, max_length=12))


def _spy(monkeypatch, sectors=False):
    """Record each kernel cell and each closed-table read of the exact suites.

    A recurrence cell is (S, L), or with ``sectors`` one (S, L, J) per
    sector; a kernel cell of any other table is (S, L, "other"). Each read of
    the closed table is (S, "closed_form").
    """
    real = exact_suites._sector_numerators
    calls = []

    def spy(weights, S, lengths):
        recurrence = weights is spectrum._recurrence_weights
        for L, cell in zip(lengths, real(weights, S, lengths)):
            if not recurrence:
                calls.append((S, L, "other"))
            elif sectors:
                calls.extend((S, L, J) for J in range(S + 1))
            else:
                calls.append((S, L))
            yield cell

    def closed(S):
        calls.append((S, "closed_form"))
        return spectrum._closed_weights(S)

    monkeypatch.setattr(exact_suites, "_sector_numerators", spy)
    monkeypatch.setattr(exact_suites, "_closed_weights", closed)
    return calls


def _conjecture1_reads(spins, max_length):
    """Per S: one closed-table read, then the recurrence cells L = 1..max_length."""
    return [
        read
        for S in spins
        for read in [(S, "closed_form")] + [(S, L) for L in range(1, max_length + 1)]
    ]


def test_conjecture1_suite_visits_its_whole_grid(monkeypatch):
    calls = _spy(monkeypatch)
    all_passed(suite_conjecture1(max_spin=2, max_length=5))
    assert calls == _conjecture1_reads((1, 2), 5)


def test_flat_limit_suite_visits_its_whole_grid(monkeypatch):
    calls = _spy(monkeypatch, sectors=True)
    all_passed(suite_flat_limit(max_spin=2, max_length=6))
    assert calls == [(S, L, J) for S in (1, 2) for L in range(2, 7) for J in range(S + 1)]


def test_conjecture1_suite_defaults_to_spins_up_to_five(monkeypatch):
    calls = _spy(monkeypatch)
    all_passed(suite_conjecture1())
    assert calls == _conjecture1_reads(range(1, 6), 30)


def test_flat_limit_suite_defaults_to_spins_up_to_five(monkeypatch):
    calls = _spy(monkeypatch, sectors=True)
    all_passed(suite_flat_limit())
    assert calls == [(S, L, J) for S in range(1, 6) for L in range(2, 41) for J in range(S + 1)]


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


def test_check_cell_fails_on_nan():
    check = exact_suites._Check("s", "n")
    assert check.cell(0.5e-9, 1e-9, at=0)
    assert not check.cell(float("nan"), 1e-9, at=1)
    assert check.counterexample == {"at": 1}
    assert not check.record("d")["passed"]


@pytest.mark.parametrize("deviations, at", [((1e-12, math.nan), 1), ((math.nan, 1e-12), 0)])
def test_check_worst_stays_nan_after_a_nan_cell(deviations, at):
    check = exact_suites._Check("s", "n")
    for where, deviation in enumerate(deviations):
        check.cell(deviation, 1e-9, at=where)
    assert math.isnan(check.worst)
    assert check.counterexample == {"at": at}


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


def _perturbed(real, cells):
    """``_sector_numerators`` with Lambda(J) moved by ``shift`` at each listed cell.

    ``cells`` maps (route, S, L) to (J, shift); N_J moves by shift * D, which
    must be an integer.
    """

    def kernel(weights, S, lengths):
        route = "closed_form" if weights is spectrum._closed_weights else "recurrence"
        for L, (numerators, D) in zip(lengths, real(weights, S, lengths)):
            numerators = list(numerators)
            if (route, S, L) in cells:
                J, shift = cells[route, S, L]
                offset = Fraction(shift) * D
                assert offset.denominator == 1, (route, S, L)
                numerators[J] += offset.numerator
            yield numerators, D

    return kernel


def _moved_table(moves, scale=1):
    """``_closed_weights`` over ``scale`` times its denominator M', then moved.

    The scale changes no value; each T'_{J,l} of the scaled table then moves
    by ``moves[S, J, l]``, so c(S,J,l) moves by that many 1/(scale M').
    """

    def table(S):
        rows, common = spectrum._closed_weights(S)
        rows = [
            [t * scale + moves.get((S, J, l), 0) for l, t in enumerate(row)]
            for J, row in enumerate(rows)
        ]
        return rows, common * scale

    return table


def test_conjecture1_checks_report_first_counterexample(monkeypatch):
    # The recurrence kernel's faults fail the trace law alone; the closed
    # table's moves fail the route records, first (J, l) first. S = 2 keeps
    # its table and passes although its kernel is moved at L = 4.
    cells = {
        ("recurrence", 1, 3): (0, 1),
        ("recurrence", 1, 5): (1, 1),
        ("recurrence", 2, 4): (0, 1),
    }
    moves = {(1, 0, 1): 2, (3, 2, 1): -1, (3, 1, 3): 1}
    monkeypatch.setattr(
        exact_suites, "_sector_numerators", _perturbed(exact_suites._sector_numerators, cells)
    )
    monkeypatch.setattr(exact_suites, "_closed_weights", _moved_table(moves, 7))
    checks = suite_conjecture1(max_spin=3, max_length=6)
    assert list(_counterexample(checks, "recurrence_equals_closed_spin1").items()) == [
        ("S", 1), ("J", 0), ("l", 1), ("recurrence", "-1/4"), ("closed_form", "-19/84"),
    ]
    all_passed([c for c in checks if c["name"] == "recurrence_equals_closed_spin2"])
    assert list(_counterexample(checks, "recurrence_equals_closed_spin3").items()) == [
        ("S", 3), ("J", 1), ("l", 3), ("recurrence", "3/400"), ("closed_form", "37/4900"),
    ]
    assert list(_counterexample(checks, "trace_law").items()) == [
        ("S", 1), ("L", 3), ("trace", "2"),
    ]


def test_a_table_difference_that_no_sampled_length_sees_fails(monkeypatch, capsys):
    # At S = 2, a_l = (-1)^l C(5, 2-l) = (10, -5, 1). Moving T'_{1,1} by a_2
    # and T'_{1,2} by -a_1 moves N'_1 = sum_l T'_{1,l} a_l^(L-1) by
    # a_2 a_1^(L-1) - a_1 a_2^(L-1): by 0 at L = 2, by 30 at L = 3.
    moved = _moved_table({(2, 1, 1): 1, (2, 1, 2): 5})
    monkeypatch.setattr(exact_suites, "_closed_weights", moved)

    def sector_one(weights, L):
        (numerators, D), = spectrum._sector_numerators(weights, 2, (L,))
        return Fraction(numerators[1], D)

    assert sector_one(moved, 2) == sector_one(spectrum._recurrence_weights, 2)
    assert sector_one(moved, 3) != sector_one(spectrum._recurrence_weights, 3)
    checks = suite_conjecture1(max_spin=2, max_length=2)
    assert list(_counterexample(checks, "recurrence_equals_closed_spin2").items()) == [
        ("S", 2), ("J", 1), ("l", 1), ("recurrence", "-1/12"), ("closed_form", "-7/90"),
    ]
    assert cli.main(["verify", "conjecture1", "--max-spin", "2", "--max-length", "2"]) == 1
    capsys.readouterr()


def test_flat_limit_reports_first_counterexample(monkeypatch):
    shifted = {("recurrence", 2, 7): 1, ("recurrence", 2, 8): 0, ("recurrence", 3, 3): 0}
    cells = {cell: (J, Fraction(1, 10)) for cell, J in shifted.items()}
    monkeypatch.setattr(
        exact_suites, "_sector_numerators", _perturbed(exact_suites._sector_numerators, cells)
    )
    (record,) = suite_flat_limit(max_spin=3, max_length=10)
    assert not record["passed"]
    assert list(record["counterexample"].items()) == [
        ("S", 2), ("L", 7), ("J", 1), ("deviation", "888281/9000000"), ("bound", "1/576"),
    ]


def _walks(monkeypatch, cells):
    """Move the exact suites' kernel at ``cells`` (see ``_perturbed``) and log its walks.

    Each call of the kernel appends [S, the lengths it yielded, in order].
    """
    kernel = _perturbed(exact_suites._sector_numerators, cells)
    walks = []

    def logged(weights, S, lengths):
        walks.append([S])
        for L, cell in zip(lengths, kernel(weights, S, lengths)):
            walks[-1].append(L)
            yield cell

    monkeypatch.setattr(exact_suites, "_sector_numerators", logged)
    return walks


def test_a_failed_trace_law_stops_the_kernel_walk(monkeypatch):
    # N_0 moves by 1 over D = 12 at S = 1, L = 1: the trace law fails at its
    # first cell, and no later length or spin can change that record
    clean = suite_conjecture1(5, 20)
    walks = _walks(monkeypatch, {("recurrence", 1, 1): (0, Fraction(1, 12))})
    checks = suite_conjecture1(5, 20)
    assert walks == [[1, 1]]
    failed = dict(clean[-1], passed=False, counterexample={"S": 1, "L": 1, "trace": "13/12"})
    assert checks == clean[:-1] + [failed]


def test_a_failed_flat_limit_stops_the_kernel_walk(monkeypatch):
    walks = _walks(monkeypatch, {("recurrence", 1, 3): (0, 1)})
    (record,) = suite_flat_limit(5, 40)
    assert walks == [[1, 2, 3]]
    assert list(record["counterexample"].items()) == [
        ("S", 1), ("L", 3), ("J", 0), ("deviation", "35/36"), ("bound", "1/36"),
    ]
    assert record["detail"].endswith("S<=5, L<=40 (exact rational comparison)")


def test_a_passing_conjecture1_run_builds_no_fraction(monkeypatch):
    # Every cell of both exact suites is decided in integers; only a failing
    # cell's texts would need a Fraction, so a passing run builds none.
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built by a passing run")

    monkeypatch.setattr(spectrum, "Fraction", no_fraction)
    monkeypatch.setattr(exact_suites, "Fraction", no_fraction)
    assert all_passed(run_suite("conjecture1", max_spin=6, max_length=20))


@pytest.mark.parametrize("sign", [1, -1])
def test_a_flat_limit_cell_on_its_bound_passes_and_one_unit_past_fails(monkeypatch, sign):
    # With n = (S+1)^2, N_1 = D/n +- k_1 |a_1|^(L-1) puts the cell (S, L, J)
    # exactly on K(S,J) |lambda(1,S)|^(L-1); N_1 one unit further is past it.
    S, L, J, n = 2, 5, 1, 9
    real = exact_suites._sector_numerators
    (numerators, D), = real(spectrum._recurrence_weights, S, (L,))
    k = sum(map(abs, spectrum._recurrence_weights(S)[0][J][1:]))
    reach = k * math.comb(2 * S + 1, S - 1) ** (L - 1)
    bound = flat_limit_bound(S, J) * abs(lambda_coeff(1, S)) ** (L - 1)
    on_bound = D // n + sign * reach
    assert abs(Fraction(on_bound, D) - Fraction(1, n)) == bound
    for N in on_bound, on_bound + sign:
        cells = {("recurrence", S, L): (J, Fraction(N - numerators[J], D))}
        monkeypatch.setattr(exact_suites, "_sector_numerators", _perturbed(real, cells))
        (record,) = suite_flat_limit(max_spin=3, max_length=8)
        assert record["passed"] == (N == on_bound)
    deviation = abs(Fraction(N, D) - Fraction(1, n))
    assert deviation > bound
    assert record["counterexample"] == {
        "S": S, "L": L, "J": J, "deviation": str(deviation), "bound": str(bound),
    }


def test_exact_suites_format_only_the_first_failing_cell(monkeypatch):
    # Every recurrence sector moves by 1 and every closed-table weight by one
    # unit, so every cell of every check fails; each check still builds the
    # Fractions of its counterexample alone.
    real = exact_suites._sector_numerators
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(exact_suites, "Fraction", counted)
    suite_conjecture1(max_spin=3, max_length=6)
    suite_flat_limit(max_spin=3, max_length=6)
    assert built == []

    def shifted(weights, S, lengths):
        for numerators, D in real(weights, S, lengths):
            if weights is spectrum._recurrence_weights:
                numerators = [n + D for n in numerators]
            yield numerators, D

    moves = {(S, J, l): 1 for S in range(1, 4) for J in range(S + 1) for l in range(S + 1)}
    monkeypatch.setattr(exact_suites, "_sector_numerators", shifted)
    monkeypatch.setattr(exact_suites, "_closed_weights", _moved_table(moves))
    checks = suite_conjecture1(max_spin=3, max_length=6) + suite_flat_limit(max_spin=3, max_length=6)
    assert not any(check["passed"] for check in checks)
    # trace_law: one; each recurrence_equals_closed_spinS: two; flat_limit_bound: two
    assert len(built) == 1 + 2 * 3 + 2


# The Fraction form of the two exact suites: one weight c(S,J,l) of each
# table, or one ``block_spectrum`` or ``eigenvalue_recurrence`` value, per
# cell, compared and formatted as a Fraction. The integer suites must give
# the same records.

def _reference_conjecture1(max_spin, max_length):
    checks = []
    trace = exact_suites._Check("conjecture1", "trace_law")
    for S in range(1, max_spin + 1):
        routes = exact_suites._Check("conjecture1", f"recurrence_equals_closed_spin{S}")
        (rows, common), (others, other) = (
            spectrum._recurrence_weights(S), exact_suites._closed_weights(S)
        )
        for J, l in itertools.product(range(S + 1), repeat=2):
            rec, closed = Fraction(rows[J][l], common), Fraction(others[J][l], other)
            if not routes.cell(
                rec != closed, S=S, J=J, l=l, recurrence=str(rec), closed_form=str(closed)
            ):
                break
        for L in range(1, max_length + 1):
            total = block_spectrum(S, L).trace()
            trace.cell(total != 1, S=S, L=L, trace=str(total))
        checks.append(routes.record(f"exact equality over L=2..{max_length}, J=0..{S}"))
    checks.append(
        trace.record(f"sum_J (2J+1) Lambda(J) == 1 exactly, S<={max_spin}, L<={max_length}")
    )
    return checks


def _reference_flat_limit(max_spin, max_length):
    check = exact_suites._Check("conjecture1", "flat_limit_bound")
    for S in range(1, max_spin + 1):
        flat = Fraction(1, (S + 1) ** 2)
        damping = abs(lambda_coeff(1, S))
        for L in range(2, max_length + 1):
            for J in range(S + 1):
                deviation = abs(eigenvalue_recurrence(S, L, J) - flat)
                bound = flat_limit_bound(S, J) * damping ** (L - 1)
                if deviation > bound and check.passed:
                    check.cell(deviation, bound, S=S, L=L, J=J, deviation=str(deviation),
                               bound=str(bound))
    return [
        check.record(
            f"|Lambda(J) - 1/(S+1)^2| <= K(S,J) |lambda(1,S)|^(L-1), "
            f"S<={max_spin}, L<={max_length} (exact rational comparison)"
        )
    ]


_WEIGHTS = st.integers(1, 4).flatmap(
    lambda S: st.tuples(st.just(S), st.integers(0, S), st.integers(0, S))
)


@given(
    route=st.sampled_from(["recurrence", "closed_form"]),
    weight=_WEIGHTS,
    L=st.integers(1, 12),
    sign=st.sampled_from([1, -1]),
    whole=st.booleans(),
    closed_scale=st.sampled_from([1, 2, 7]),
)
@example(route="recurrence", weight=(1, 0, 0), L=2, sign=1, whole=False, closed_scale=1)
@example(route="closed_form", weight=(2, 1, 1), L=3, sign=-1, whole=True, closed_scale=7)
@settings(deadline=None, max_examples=60)
def test_integer_suites_match_the_fraction_reference(route, weight, L, sign, whole, closed_scale):
    # The closed table is written over a larger denominator. Then either the
    # recurrence kernel's N_J at (S, L) moves by +-1 or by +-D, or the closed
    # table's c(S,J,l) moves by +-1 or by one unit of that denominator. The
    # integer suites and the Fraction reference read that one kernel and those
    # two tables and must give the same records. The first example moves a
    # spin-1 cell that sits exactly on its flat-limit bound.
    S, J, l = weight
    cells, moves = {}, {}
    if route == "recurrence":
        _, D = next(spectrum._sector_numerators(spectrum._recurrence_weights, S, (L,)))
        cells[route, S, L] = (J, Fraction(sign, 1 if whole else D))
    else:
        moves[S, J, l] = sign * (closed_scale * spectrum._closed_weights(S)[1] if whole else 1)
    kernel = _perturbed(spectrum._sector_numerators, cells)
    spectrum._sector_values.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "_sector_numerators", kernel)
            patch.setattr(exact_suites, "_sector_numerators", kernel)
            patch.setattr(exact_suites, "_closed_weights", _moved_table(moves, closed_scale))
            assert suite_conjecture1(4, 12) == _reference_conjecture1(4, 12)
            assert suite_flat_limit(4, 12) == _reference_flat_limit(4, 12)
    finally:
        spectrum._sector_values.cache_clear()


def test_fock_checks_report_first_counterexample(monkeypatch):
    real_fock = verify.fock_block_spectrum
    real_rank = verify.numerical_rank

    def fock_block_spectrum(S, L, N, start, max_dim):
        values = real_fock(S, L, N=N, start=start, max_dim=max_dim)
        return [values[0] + 1e-6, *values[1:]] if L >= 3 else values

    monkeypatch.setattr(verify, "fock_block_spectrum", fock_block_spectrum)
    monkeypatch.setattr(verify, "numerical_rank", lambda ev: 3 if len(ev) >= 27 else real_rank(ev))
    checks = suite_oracle(spin=1, max_length=4)
    match = _counterexample(checks, "fock_spectrum_matches_formula")
    assert list(match) == ["S", "L", "detail"]
    assert (match["S"], match["L"]) == (1, 3)
    assert match["detail"].startswith("J=1: expected 0.25925925925925924, closest observed ")
    assert list(_counterexample(checks, "rank_law").items()) == [
        ("S", 1), ("L", 3), ("N", 4), ("rank", 3), ("expected", 4),
    ]


def test_pauli_ground_states_report_first_counterexample(monkeypatch):
    real = verify.pauli_ground_states_spin1

    def pauli_ground_states_spin1(L, alpha):
        state = real(L, alpha)
        return state * (1 + 1e-6) if (L, alpha) in {(3, 2), (4, 0)} else state

    monkeypatch.setattr(verify, "pauli_ground_states_spin1", pauli_ground_states_spin1)
    checks = suite_oracle(spin=1, max_length=4)
    assert list(_counterexample(checks, "pauli_ground_states").items()) == [
        ("S", 1), ("L", 3), ("worst", pytest.approx(1.4e-5, rel=1e-3)),
    ]


def test_hamiltonian_checks_report_first_counterexample(monkeypatch):
    real_projector = verify.pair_projector
    real_sectors = hamiltonians._chain_sectors

    def pair_projector(two_j1, two_j2, two_jbond):
        proj = real_projector(two_j1, two_j2, two_jbond)
        return proj * 1.001 if two_jbond == 2 else proj

    def chain_sectors(S, spins, C, D, max_dim, what):
        # Shift every S^z block of the L >= 3 block, the N >= 3 open chain
        # and the rescaled chain by 1e-3: no null vector is left there.
        dim, sectors = real_sectors(S, spins, C, D, max_dim, what)
        if spins.count(2 * S) >= 3 or C is not None:
            sectors = [(idx, block + 1e-3 * np.eye(len(idx))) for idx, block in sectors]
        return dim, sectors

    monkeypatch.setattr(verify, "pair_projector", pair_projector)
    monkeypatch.setattr(hamiltonians, "_chain_sectors", chain_sectors)
    checks = suite_hamiltonian(spin=1, lengths=[2, 3, 4])
    assert list(_counterexample(checks, "projector_algebra").items()) == [
        ("S", 1), ("worst", pytest.approx(3e-3, rel=1e-6)),
    ]
    assert list(_counterexample(checks, "block_ground_space").items()) == [
        ("S", 1), ("L", 3), ("null_dimension", 0), ("expected", 4),
        ("annihilation_residual", pytest.approx(1e-3, rel=1e-6)),
    ]
    assert list(_counterexample(checks, "unique_ground_state").items()) == [
        ("S", 1), ("N", 3), ("null_dimension", 0),
        ("annihilation_residual", pytest.approx(1e-3, rel=1e-6)), ("vbs_overlap", 0.0),
    ]
    assert list(_counterexample(checks, "coupling_rescale_invariance").items()) == [
        ("S", 1), ("N", 2),
    ]


def test_total_spin_annihilation_failure_keeps_numeric_worst(monkeypatch):
    # a pass/fail cell names the failing state but does not enter the worst residual
    real = verify.apply_spin_raising

    def apply_spin_raising(state):
        return state if state.sector == (2, 2) and len(state.spins) == 2 else real(state)

    monkeypatch.setattr(verify, "apply_spin_raising", apply_spin_raising)
    checks = suite_appendix(max_spin=2)
    assert list(_counterexample(checks, "total_spin_quantum_numbers").items()) == [
        ("S", 2), ("L", 2), ("J", 2), ("M", 2), ("detail", "top state not annihilated"),
    ]
    record = next(c for c in checks if c["name"] == "total_spin_quantum_numbers")
    assert record["detail"].endswith("(worst 0.000e+00)")


@pytest.mark.parametrize("broken", ["commutator", "full_singlet"])
def test_bond_operator_commutators_report_failure(monkeypatch, broken):
    if broken == "commutator":
        monkeypatch.setattr(verify, "states_equal_exact", lambda u, v: False)
    else:
        real = verify.apply_spin_raising
        full_spins = verify.build_full_vbs(1, 2).spins

        def apply_spin_raising(state):
            return state if state.sector is None and state.spins == full_spins else real(state)

        monkeypatch.setattr(verify, "apply_spin_raising", apply_spin_raising)
    checks = suite_appendix(max_spin=1)
    assert _counterexample(checks, "bond_operator_commutators") == {
        "detail": "exact commutator check failed"
    }


# ---------------------------------------------------------------------------
# a NaN anywhere in a check's deviations fails it, first or not
# ---------------------------------------------------------------------------

def test_spectra_close_fails_on_nan_and_on_unequal_lengths():
    assert verify._spectra_close([0.5, 0.5], [0.5, 0.25]) == 0.25
    assert verify._spectra_close([], []) == 0.0
    assert math.isnan(verify._spectra_close([0.5, math.nan], [0.5, 0.2]))
    assert verify._spectra_close([0.5, 0.5, 0.1], [0.5, 0.5]) == math.inf
    assert verify._spectra_close([0.5, 0.5], [0.5, 0.5, 0.1]) == math.inf


@pytest.mark.parametrize(
    "name, longer_chains_only, spoil",
    [
        # the last value turns NaN, or one extra exact zero follows it
        ("position_and_size_independence", True, lambda values: [*values[:-1], math.nan]),
        ("position_and_size_independence", True, lambda values: [*values, 0.0]),
        ("pauli_equals_fock", False, lambda values: [*values, 0.0]),
    ],
    ids=["position-nan", "position-extra-zero", "pauli-extra-zero"],
)
def test_oracle_route_checks_fail_on_a_bad_spectrum(monkeypatch, name, longer_chains_only, spoil):
    real = verify.fock_block_spectrum

    def fock_block_spectrum(S, L, N, start, max_dim):
        values = real(S, L, N=N, start=start, max_dim=max_dim)
        return spoil(values) if N > L or not longer_chains_only else values

    monkeypatch.setattr(verify, "fock_block_spectrum", fock_block_spectrum)
    assert not next(c for c in suite_oracle(spin=1, max_length=2) if c["name"] == name)["passed"]


def test_pauli_ground_states_fail_on_a_nan_state(monkeypatch):
    real = verify.pauli_ground_states_spin1
    monkeypatch.setattr(
        verify,
        "pauli_ground_states_spin1",
        lambda L, alpha: real(L, alpha) * (math.nan if alpha == 1 else 1.0),
    )
    checks = suite_oracle(spin=1, max_length=2)
    assert math.isnan(_counterexample(checks, "pauli_ground_states")["worst"])


def test_hamiltonian_checks_fail_on_nan(monkeypatch):
    # one projector turns NaN after real ones, and every residual after the
    # first is NaN: the ground-space check sees a real value first, the
    # uniqueness check a NaN alone
    real_projector, real_residual = verify.pair_projector, verify._sector_residual
    calls = []

    def pair_projector(two_j1, two_j2, two_jbond):
        return real_projector(two_j1, two_j2, two_jbond) * (math.nan if two_jbond == 2 else 1.0)

    def sector_residual(sectors, vec):
        calls.append(None)
        return real_residual(sectors, vec) if len(calls) == 1 else math.nan

    monkeypatch.setattr(verify, "pair_projector", pair_projector)
    monkeypatch.setattr(verify, "_sector_residual", sector_residual)
    checks = suite_hamiltonian(spin=1, lengths=[2])
    assert math.isnan(_counterexample(checks, "projector_algebra")["worst"])
    assert math.isnan(_counterexample(checks, "block_ground_space")["annihilation_residual"])
    assert math.isnan(_counterexample(checks, "unique_ground_state")["annihilation_residual"])


def test_total_spin_check_fails_on_a_nan_casimir_residual(monkeypatch):
    real = verify.total_spin_checks

    def total_spin_checks(state):
        return {**real(state), "casimir_residual": math.nan}

    monkeypatch.setattr(verify, "total_spin_checks", total_spin_checks)
    checks = suite_appendix(max_spin=1)
    assert math.isnan(_counterexample(checks, "total_spin_quantum_numbers")["casimir_residual"])


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
