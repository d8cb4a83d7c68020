"""Tests for the boson-polynomial (Fock) oracle.

The oracle expands valence-bond states in exact occupation-number
amplitudes, so every norm here is an integer-valued rational and every
comparison against the closed-form norms is exact.  Dense vectors appear
only at the final partial-trace / diagonalization step.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from akltblock.oracle import (
    ResourceCapError,
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
    eigenspectrum,
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
from akltblock.angular import SignedSqrtRational, _signed_root
from akltblock.oracle.dense import DEFAULT_MAX_DIM
from akltblock.spectrum import degenerate_norm, eigenvalue_recurrence, vbs_norm
from akltblock.verify import match_spectrum


# ---------------------------------------------------------------------------
# state construction and exact norms
# ---------------------------------------------------------------------------

def test_vacuum_is_trivial():
    v = vacuum(3)
    assert v.spins == (0, 0, 0)
    assert v.amps == {(0, 0, 0): Fraction(1)}
    assert v.norm_square_exact() == 1
    assert v.dimension == 1


def test_single_bond_amplitudes():
    # (a_i^+ b_j^+ - b_i^+ a_j^+) on the vacuum: two spin-1/2 sites
    bond = valence_bond_power(vacuum(2), 0, 1, 1)
    assert bond.spins == (1, 1)
    assert bond.amps == {(1, -1): Fraction(1), (-1, 1): Fraction(-1)}
    assert bond.norm_square_exact() == 2


def test_bond_power_binomial_structure():
    bond2 = valence_bond_power(vacuum(2), 0, 1, 2)
    assert bond2.spins == (2, 2)
    # (...)^2 expands with signed binomial weights 1, -2, 1
    assert bond2.amps == {
        (2, -2): Fraction(1),
        (0, 0): Fraction(-2),
        (-2, 2): Fraction(1),
    }
    # norm^2 = sum c^2 * prod (p! q!) = 1*2 + 4*1 + 1*2 = 8... with p!q! per site
    assert bond2.norm_square_exact() == 12


def test_full_chain_norms_match_closed_form():
    for S, N in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2)]:
        state = build_full_vbs(S, N)
        assert state.norm_square_exact() == vbs_norm(S, N)


def test_block_shape():
    # L sites, L-1 bonds: half-dressed spin-S/2 ends, full spin-S interior
    blk = build_block_vbs(2, 3)
    assert blk.spins == (2, 4, 2)
    with pytest.raises(ValueError):
        build_block_vbs(1, 1)


def test_degenerate_norms_match_closed_form():
    for S, L in [(1, 2), (1, 3), (2, 2)]:
        block = build_block_vbs(S, L)
        for J in range(S + 1):
            for M in range(-J, J + 1):
                state = apply_psi_dagger(block, J, M)
                assert state.norm_square_exact() == degenerate_norm(S, L, J)


def test_edge_pair_states_are_normalized():
    for S in (1, 2, 3):
        for J in range(S + 1):
            for M in range(-J, J + 1):
                pair = edge_pair_state(S, J, M)
                assert pair.norm_square_exact() == 1
                assert pair.sector == (J, M)


def test_edge_pair_states_are_orthogonal():
    vectors = {
        (J, M): edge_pair_state(2, J, M).to_dense()
        for J in range(3)
        for M in range(-J, J + 1)
    }
    keys = list(vectors)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            assert abs(np.dot(vectors[a], vectors[b])) < 1e-14


def test_degenerate_family_gram_matrix():
    states = degenerate_states(1, 3)
    assert set(states) == {(0, 0), (1, -1), (1, 0), (1, 1)}
    dense = {key: st.to_dense(normalized=True) for key, st in states.items()}
    keys = sorted(dense)
    gram = np.array([[np.dot(dense[a], dense[b]) for b in keys] for a in keys])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_psi_dagger_validates_inputs():
    block = build_block_vbs(1, 2)
    with pytest.raises(ValueError):
        apply_psi_dagger(block, 2, 0)       # J > S
    with pytest.raises(ValueError):
        apply_psi_dagger(block, 1, 2)       # |M| > J
    with pytest.raises(ValueError):
        apply_psi_dagger(vacuum(4), 1, 0)   # not a block-shaped state


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------

def test_single_site_density_matrix_is_maximally_mixed():
    state = build_full_vbs(1, 3)
    rho = reduced_density_matrix(state, 2, 1)
    assert np.max(np.abs(rho - np.eye(3) / 3.0)) < 1e-14


def test_fock_spectrum_matches_formula():
    for S, L in [(1, 2), (1, 3), (1, 4), (2, 2)]:
        observed = fock_block_spectrum(S, L)
        expected = [(J, eigenvalue_recurrence(S, L, J)) for J in range(S + 1)]
        ok, detail, _ = match_spectrum(observed, expected)
        assert ok, detail


@pytest.mark.parametrize(
    "S, L, N, start",
    [(1, 2, 4, 2), (1, 3, 5, 2), (1, 6, 6, 1), (2, 4, 4, 1), (3, 3, 3, 1), (1, 1, 3, 2), (2, 1, 1, 1)],
)
def test_fock_spectrum_equals_dense_partial_trace(S, L, N, start):
    # Squared Schmidt values of the (block x environment) factor, padded with
    # zeros, against eigvalsh of the dense partial trace; the cases cover a
    # block smaller and larger than its environment.
    factored = fock_block_spectrum(S, L, N=N, start=start)
    dense = eigenspectrum(reduced_density_matrix(build_full_vbs(S, N), start, L))
    assert len(factored) == len(dense) == (2 * S + 1) ** L
    assert np.max(np.abs(np.array(factored) - dense)) < 1e-12


def test_fock_spectrum_position_independent():
    base = np.array(fock_block_spectrum(1, 2, N=3, start=1))
    for N, start in [(3, 2), (4, 2), (5, 3)]:
        other = np.array(fock_block_spectrum(1, 2, N=N, start=start))
        assert np.max(np.abs(other - base)) < 1e-12


def test_fock_spectrum_rejects_bad_windows():
    with pytest.raises(ValueError):
        fock_block_spectrum(1, 3, N=3, start=2)   # block sticks out of the chain
    with pytest.raises(ValueError):
        fock_block_spectrum(1, 2, N=2, start=0)


def test_density_matrix_eigenvectors_are_degenerate_states():
    # rho_L v = Lambda(J) v for each normalized |VBS_L(J, M)>; the dressed
    # block states share the bulk-site basis of the chain slice exactly
    for S, L, N in [(1, 2, 4), (2, 2, 3)]:
        rho = reduced_density_matrix(build_full_vbs(S, N), 1, L)
        for (J, M), state in degenerate_states(S, L).items():
            vec = state.to_dense(normalized=True)
            lam = float(eigenvalue_recurrence(S, L, J))
            assert np.max(np.abs(rho @ vec - lam * vec)) < 1e-12


def test_correlator_reconstruction_equals_partial_trace():
    state = build_full_vbs(1, 3)
    for start, length in [(1, 2), (2, 2), (1, 3)]:
        direct = reduced_density_matrix(state, start, length)
        rebuilt = correlator_reconstruction(state, start, length)
        assert np.max(np.abs(direct - rebuilt)) < 1e-12


# ---------------------------------------------------------------------------
# total-spin quantum numbers (all exact until the final float report)
# ---------------------------------------------------------------------------

def test_degenerate_states_have_sharp_quantum_numbers():
    for S, L in [(1, 3), (2, 2)]:
        for (J, M), state in degenerate_states(S, L).items():
            checks = total_spin_checks(state)
            assert checks["sz_residual"] == 0.0
            assert checks["casimir_residual"] == 0.0


def test_ladder_relations_exact():
    states = degenerate_states(1, 3)
    assert ladder_residual(states[(1, -1)], states[(1, 0)]) == 0.0
    assert ladder_residual(states[(1, 0)], states[(1, 1)]) == 0.0


def test_ladder_terminates_at_the_top():
    states = degenerate_states(1, 2)
    top = apply_spin_raising(states[(1, 1)])
    assert top.norm_square_exact() == 0
    bottom = apply_spin_lowering(states[(1, -1)])
    assert bottom.norm_square_exact() == 0
    annihilated = apply_spin_raising(states[(0, 0)])
    assert annihilated.norm_square_exact() == 0


def test_full_chain_is_a_singlet():
    chain = build_full_vbs(1, 4)
    assert apply_spin_raising(chain).norm_square_exact() == 0
    assert apply_spin_lowering(chain).norm_square_exact() == 0
    assert apply_spin_z(chain).norm_square_exact() == 0


def test_spin_z_weights_by_magnetization():
    states = degenerate_states(1, 2)
    shifted = apply_spin_z(states[(1, 1)])
    assert states_equal_exact(shifted, states[(1, 1)])
    zeroed = apply_spin_z(states[(1, 0)])
    assert zeroed.norm_square_exact() == 0


# ---------------------------------------------------------------------------
# boundary-operator identities
# ---------------------------------------------------------------------------

def test_partial_inner_identity():
    for S in (1, 2):
        for J in range(S + 1):
            for M in range(-J, J + 1):
                assert partial_inner_identity_check(S, 2, J, M) < 1e-10


def test_bond_operators_commute():
    # folding the two bonds of a 3-site chain in either order gives the
    # identical amplitude dictionary
    a = valence_bond_power(valence_bond_power(vacuum(3), 0, 1, 1), 1, 2, 1)
    b = valence_bond_power(valence_bond_power(vacuum(3), 1, 2, 1), 0, 1, 1)
    assert states_equal_exact(a, b)
    assert a.amps == b.amps and a.scale_square == b.scale_square


# ---------------------------------------------------------------------------
# linear algebra over exact amplitudes
# ---------------------------------------------------------------------------

def test_linear_combine_cancels_identical_states():
    u = build_block_vbs(1, 3)
    diff = linear_combine(u, u, 1, -1)
    assert diff.norm_square_exact() == 0


def test_linear_combine_requires_commensurate_scales():
    states = degenerate_states(1, 2)
    # scale radicals sqrt(1/2) vs sqrt(1) do not mix exactly
    with pytest.raises(ValueError):
        linear_combine(states[(0, 0)], states[(1, 1)], 1, 1)


def test_states_equal_exact_detects_sign():
    u = valence_bond_power(vacuum(2), 0, 1, 1)
    flipped = linear_combine(u, u, 0, -1)
    assert states_equal_exact(u, u)
    assert not states_equal_exact(u, flipped)


# ---------------------------------------------------------------------------
# the representation: integer bond products over one positive radical
# ---------------------------------------------------------------------------

def _oracle_states(max_spin):
    """Full chains and every degenerate state for S <= max_spin within the dense cap."""
    for S in range(1, max_spin + 1):
        for L in range(2, 9):
            if (S + 1) ** 2 * (2 * S + 1) ** L > DEFAULT_MAX_DIM:
                break
            yield build_full_vbs(S, L)
            yield from degenerate_states(S, L).values()


def _weight(spins, tms):
    return math.prod(
        math.factorial((ts + tm) // 2) * math.factorial((ts - tm) // 2)
        for ts, tm in zip(spins, tms)
    )


def _index(spins, tms):
    index, stride = 0, 1
    for ts, tm in zip(spins, tms):
        index += ((tm + ts) // 2) * stride
        stride *= ts + 1
    return index


def _signed_root_reference(amp, square):
    """The signed-radical composition: sign(amp) |amp| sqrt(square) as one float."""
    sign = (amp > 0) - (amp < 0)
    return float(SignedSqrtRational(sign, amp * amp * square))


def test_dense_entries_equal_the_signed_radical_composition():
    # Each dense entry rounds the exact square amp^2 * weight * scale_square
    # once, which is the float of the signed-radical product.
    for state in _oracle_states(3):
        want = np.zeros(state.dimension)
        for key, amp in state.amps.items():
            square = _weight(state.spins, key) * state.scale_square
            want[_index(state.spins, key)] = _signed_root_reference(amp, square)
        assert np.array_equal(state.to_dense(normalized=False), want)


def test_normalized_dense_vector_is_the_per_entry_root_over_the_exact_norm():
    # The one-pass conversion must give the bits of rounding each entry's
    # exact square once and dividing by the root of the exact norm-square.
    for state in _oracle_states(3):
        want = np.zeros(state.dimension)
        for key, amp in state.amps.items():
            square = Fraction(amp) ** 2 * _weight(state.spins, key) * state.scale_square
            want[_index(state.spins, key)] = _signed_root(amp, square)
        want /= math.sqrt(float(state.norm_square_exact()))
        assert np.array_equal(state.to_dense(), want)


def test_correlator_entries_equal_the_signed_radical_composition():
    for state in _oracle_states(3):
        windows = [(start, start + n) for n in (1, 2) for start in range(state.nsites - n + 1)]
        for start, stop in windows:
            block_spins = state.spins[start:stop]
            env_spins = state.spins[:start] + state.spins[stop:]
            groups, weights = {}, {}
            for key, amp in state.amps.items():
                a = _index(block_spins, key[start:stop])
                weights[a] = _weight(block_spins, key[start:stop])
                groups.setdefault(key[:start] + key[stop:], []).append((a, amp))
            sums = {}
            for env, members in groups.items():
                env_weight = _weight(env_spins, env)
                for a, amp_a in members:
                    for b, amp_b in members:
                        sums[a, b] = sums.get((a, b), 0) + amp_a * amp_b * env_weight
            scale = state.scale_square / state.norm_square_exact()
            d_block = math.prod(state.dims[start:stop])
            want = np.zeros((d_block, d_block))
            for (a, b), total in sums.items():
                want[a, b] = _signed_root_reference(total * scale, weights[a] * weights[b])
            assert np.array_equal(correlator_reconstruction(state, start, stop - start), want)


def test_bond_products_are_integers_over_a_positive_rational_radical():
    for S, L in [(1, 4), (2, 3), (3, 2)]:
        for state in (build_block_vbs(S, L), build_full_vbs(S, L)):
            assert all(type(amp) is int for amp in state.amps.values())
            assert state.scale_square == 1
    for state in _oracle_states(3):
        assert type(state.scale_square) is Fraction and state.scale_square > 0
    for S in (1, 2, 3):
        for J in range(S + 1):
            scale_square = edge_pair_state(S, J, J).scale_square
            assert type(scale_square) is Fraction and scale_square > 0


@pytest.mark.parametrize("scale_square", [Fraction(0), Fraction(-1, 4), -1])
def test_non_positive_scale_square_is_rejected(scale_square):
    with pytest.raises(ValueError, match="scale_square must be positive"):
        StateVector(spins=(1,), amps={(1,): 1}, scale_square=scale_square)


def test_states_drop_zero_amplitudes_and_compare_by_fields():
    state = StateVector((1, 1), {(1, -1): 2, (-1, 1): 0}, Fraction(1, 2))
    assert state.amps == {(1, -1): 2}
    assert state == StateVector(spins=(1, 1), amps={(1, -1): 2}, scale_square=Fraction(1, 2))
    assert state != StateVector((1, 1), {(1, -1): 2}, Fraction(1, 2), sector=(1, 0))


def test_dense_entries_survive_squares_past_the_float_range():
    # One monomial of 300 bosons: its weight 150!^2 overflows a float, its
    # root does not.
    state = StateVector(spins=(300,), amps={(0,): -1})
    entry = state.to_dense(normalized=False)[150]
    assert entry == _signed_root_reference(-1, Fraction(math.factorial(150) ** 2))
    assert entry == pytest.approx(-float(math.factorial(150)), rel=1e-12)


# ---------------------------------------------------------------------------
# validation of states and arguments
# ---------------------------------------------------------------------------

def test_bond_sites_must_be_distinct():
    with pytest.raises(ValueError, match="bond sites must be distinct"):
        valence_bond_power(vacuum(3), 1, 1, 1)


def test_psi_dagger_refuses_states_that_are_not_block_vbs():
    # Spins (1, 1, 0): the last site carries no boson, so it is no spin-S/2 end.
    with pytest.raises(ValueError, match="expected a block VBS state"):
        apply_psi_dagger(valence_bond_power(vacuum(3), 0, 1, 1), 0, 0)


def test_states_over_different_spins_or_radicals_do_not_combine():
    spin_half_pair = build_block_vbs(1, 2)
    spin_one_pair = valence_bond_power(vacuum(2), 0, 1, 2)
    with pytest.raises(ValueError, match="different site spins"):
        linear_combine(spin_half_pair, spin_one_pair, 1, 1)
    assert not states_equal_exact(spin_half_pair, spin_one_pair)
    states = degenerate_states(1, 2)
    with pytest.raises(ValueError, match="incompatible scale radicals"):
        linear_combine(states[(0, 0)], states[(1, 1)], 1, -1)
    assert not states_equal_exact(states[(0, 0)], states[(1, 1)])


def test_total_spin_checks_need_a_tagged_nonzero_state():
    with pytest.raises(ValueError, match="carries no"):
        total_spin_checks(build_block_vbs(1, 2))
    zero = StateVector(spins=(1, 1), amps={(1, -1): 0}, sector=(0, 0))
    with pytest.raises(ValueError, match="zero state"):
        total_spin_checks(zero)


def test_ladder_residual_needs_tagged_adjacent_sectors():
    block = build_block_vbs(1, 2)
    with pytest.raises(ValueError, match="must carry"):
        ladder_residual(block, block)
    states = degenerate_states(1, 2)
    with pytest.raises(ValueError, match="expected sectors"):
        ladder_residual(states[(1, -1)], states[(1, 1)])


def test_zero_state_has_a_dense_vector_but_no_normalization():
    zero = StateVector(spins=(1, 1), amps={})
    assert not zero.to_dense(normalized=False).any()
    with pytest.raises(ValueError, match="cannot normalize the zero state"):
        zero.to_dense()


# ---------------------------------------------------------------------------
# resource caps
# ---------------------------------------------------------------------------

def test_dense_conversion_refuses_huge_states():
    wide = StateVector(spins=(40,) * 5, amps={(0,) * 5: Fraction(1)})
    with pytest.raises(ResourceCapError):
        wide.to_dense()


def test_partial_trace_respects_max_dim():
    state = build_full_vbs(1, 3)
    with pytest.raises(ResourceCapError):
        reduced_density_matrix(state, 1, 3, max_dim=10)
    with pytest.raises(ResourceCapError):
        fock_block_spectrum(1, 3, max_dim=10)


def test_refused_fock_block_builds_no_chain(monkeypatch):
    # The block cap (2S+1)^L is checked before the chain state is built, so
    # a refused block costs nothing: 9^8 states at S = 4, L = 8.
    from akltblock.oracle import fock

    def build_full_vbs(S, N):
        raise AssertionError("the chain state was built for a refused block")

    monkeypatch.setattr(fock, "build_full_vbs", build_full_vbs)
    with pytest.raises(ResourceCapError) as excinfo:
        fock_block_spectrum(4, 8)
    assert str(excinfo.value) == "Fock block dimension 43046721 exceeds the cap 4096"


def test_over_cap_fock_chain_builds_no_chain(monkeypatch):
    # A block within --max-dim can still sit in a chain whose dense vector,
    # (S+1)^2 (2S+1)^N = 4 * 3^16 entries at S = 1, N = 16, is over the cap:
    # that is refused before the chain state is built, too.
    from akltblock.oracle import fock

    def build_full_vbs(S, N):
        raise AssertionError("the chain state was built for a refused chain")

    monkeypatch.setattr(fock, "build_full_vbs", build_full_vbs)
    with pytest.raises(ResourceCapError) as excinfo:
        fock_block_spectrum(1, 16, max_dim=10**8)
    assert str(excinfo.value) == "dense vector of 172186884 entries exceeds the cap 5000000"
