"""Tests for the cross-checking suites and the spectrum matcher."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akltblock import exact_suites, spectrum, verify
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
    """Record each kernel cell the exact suites read: (S, L), tagged by route.

    A closed-form cell is (S, L, "closed_form"); with ``sectors`` every
    recurrence cell is recorded once per sector, as (S, L, J).
    """
    real = exact_suites._sector_numerators
    calls = []

    def spy(weights, S, lengths):
        closed = weights is spectrum._closed_weights
        for L, cell in zip(lengths, real(weights, S, lengths)):
            if closed:
                calls.append((S, L, "closed_form"))
            elif sectors:
                calls.extend((S, L, J) for J in range(S + 1))
            else:
                calls.append((S, L))
            yield cell

    monkeypatch.setattr(exact_suites, "_sector_numerators", spy)
    return calls


def test_conjecture1_suite_visits_its_whole_grid(monkeypatch):
    calls = _spy(monkeypatch)
    all_passed(suite_conjecture1(max_spin=2, max_length=5))
    recurrence = [(S, L) for S in (1, 2) for L in range(1, 6)]
    closed = [(S, L, "closed_form") for S in (1, 2) for L in range(2, 6)]
    assert sorted(calls) == sorted(recurrence + closed)


def test_flat_limit_suite_visits_its_whole_grid(monkeypatch):
    calls = _spy(monkeypatch, sectors=True)
    all_passed(suite_flat_limit(max_spin=2, max_length=6))
    assert calls == [(S, L, J) for S in (1, 2) for L in range(2, 7) for J in range(S + 1)]


def test_conjecture1_suite_defaults_to_spins_up_to_five(monkeypatch):
    calls = _spy(monkeypatch)
    all_passed(suite_conjecture1())
    recurrence = [(S, L) for S in range(1, 6) for L in range(1, 31)]
    closed = [(S, L, "closed_form") for S in range(1, 6) for L in range(2, 31)]
    assert sorted(calls) == sorted(recurrence + closed)


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


def _perturbed(real, cells, closed_scale=1):
    """``_sector_numerators`` with Lambda(J) moved by ``shift`` at each listed cell.

    ``cells`` maps (route, S, L) to (J, shift); N_J moves by shift * D, which
    must be an integer. Every closed-form cell is then written over
    ``closed_scale`` times its denominator, which changes no value.
    """

    def kernel(weights, S, lengths):
        route = "closed_form" if weights is spectrum._closed_weights else "recurrence"
        scale = closed_scale if route == "closed_form" else 1
        for L, (numerators, D) in zip(lengths, real(weights, S, lengths)):
            numerators = list(numerators)
            if (route, S, L) in cells:
                J, shift = cells[route, S, L]
                offset = Fraction(shift) * D
                assert offset.denominator == 1, (route, S, L)
                numerators[J] += offset.numerator
            yield [n * scale for n in numerators], D * scale

    return kernel


def test_conjecture1_checks_report_first_counterexample(monkeypatch):
    cells = {
        ("closed_form", 2, 5): (1, Fraction(1, 10**5)),
        ("closed_form", 2, 6): (0, 1),
        ("closed_form", 3, 4): (3, Fraction(-1, 7)),
        ("recurrence", 1, 3): (0, 1),
        ("recurrence", 1, 5): (1, 1),
        ("recurrence", 2, 4): (0, 1),
    }
    monkeypatch.setattr(
        exact_suites, "_sector_numerators", _perturbed(exact_suites._sector_numerators, cells)
    )
    checks = suite_conjecture1(max_spin=3, max_length=6)
    assert list(_counterexample(checks, "recurrence_equals_closed_spin1").items()) == [
        ("S", 1), ("L", 3), ("J", 0), ("recurrence", "11/9"), ("closed_form", "2/9"),
    ]
    assert list(_counterexample(checks, "recurrence_equals_closed_spin2").items()) == [
        ("S", 2), ("L", 4), ("J", 0), ("recurrence", "283/250"), ("closed_form", "33/250"),
    ]
    assert list(_counterexample(checks, "recurrence_equals_closed_spin3").items()) == [
        ("S", 3), ("L", 4), ("J", 3),
        ("recurrence", "14412/300125"), ("closed_form", "-28463/300125"),
    ]
    assert list(_counterexample(checks, "trace_law").items()) == [
        ("S", 1), ("L", 3), ("trace", "2"),
    ]


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


def test_exact_suites_format_only_the_first_failing_cell(monkeypatch):
    # Every recurrence sector moves by 1, so every cell of every check fails;
    # each check still builds the Fractions of its counterexample alone.
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

    monkeypatch.setattr(exact_suites, "_sector_numerators", shifted)
    checks = suite_conjecture1(max_spin=3, max_length=6) + suite_flat_limit(max_spin=3, max_length=6)
    assert not any(check["passed"] for check in checks)
    # trace_law: one; each recurrence_equals_closed_spinS: two; flat_limit_bound: two
    assert len(built) == 1 + 2 * 3 + 2


# The Fraction form of the two exact suites: one ``block_spectrum`` or
# ``eigenvalue_recurrence`` value per cell, compared and formatted as a
# Fraction. The integer suites must give the same records.

def _reference_conjecture1(max_spin, max_length):
    checks = []
    trace = exact_suites._Check("conjecture1", "trace_law")
    for S in range(1, max_spin + 1):
        routes = exact_suites._Check("conjecture1", f"recurrence_equals_closed_spin{S}")
        for L in range(1, max_length + 1):
            spec = block_spectrum(S, L)
            total = spec.trace()
            trace.cell(total != 1, S=S, L=L, trace=str(total))
            if not routes.passed or L < 2:
                continue
            closed = block_spectrum(S, L, "closed_form")
            for (J, rec, _), (_, other, _) in zip(spec.entries, closed.entries):
                if not routes.cell(
                    rec != other, S=S, L=L, J=J, recurrence=str(rec), closed_form=str(other)
                ):
                    break
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


_SECTORS = st.integers(1, 4).flatmap(lambda S: st.tuples(st.just(S), st.integers(0, S)))


@given(
    route=st.sampled_from(["recurrence", "closed_form"]),
    sector=_SECTORS,
    L=st.integers(1, 12),
    sign=st.sampled_from([1, -1]),
    whole=st.booleans(),
    closed_scale=st.sampled_from([1, 2, 7]),
)
@example(route="recurrence", sector=(1, 0), L=2, sign=1, whole=False, closed_scale=1)
@example(route="closed_form", sector=(2, 1), L=3, sign=-1, whole=True, closed_scale=7)
@settings(deadline=None, max_examples=60)
def test_integer_suites_match_the_fraction_reference(route, sector, L, sign, whole, closed_scale):
    # One kernel numerator N_J moves by +-1 or by +-D, and the closed route may
    # be written over a larger denominator. The integer suites and the Fraction
    # reference read that one kernel and must give the same records. The first
    # example moves a spin-1 cell that sits exactly on its flat-limit bound.
    S, J = sector
    weights = spectrum._closed_weights if route == "closed_form" else spectrum._recurrence_weights
    _, D = next(spectrum._sector_numerators(weights, S, (L,)))
    shift = Fraction(sign, 1 if whole else D)
    kernel = _perturbed(spectrum._sector_numerators, {(route, S, L): (J, shift)}, closed_scale)
    spectrum._sector_values.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "_sector_numerators", kernel)
            patch.setattr(exact_suites, "_sector_numerators", kernel)
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
