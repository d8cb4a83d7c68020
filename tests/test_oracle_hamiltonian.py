"""Tests for bond-projector Hamiltonians and their ground spaces.

The central claims: the block Hamiltonian (a sum of highest-bond-spin
projectors over nearest-neighbor pairs) annihilates every dressed
valence-bond state and has null-space dimension exactly (S+1)^2, while the
full-chain Hamiltonian with boundary terms singles out the valence-bond
state as its unique zero mode.
"""

import math
import tracemalloc

import numpy as np
import pytest

from akltblock.oracle import (
    block_hamiltonian,
    build_full_vbs,
    degenerate_states,
    null_space,
    pair_projector,
    require_hermitian,
    unique_hamiltonian,
)
from akltblock import verify
from akltblock.oracle.hamiltonians import (
    _block_sectors,
    _dense,
    _open_chain_sectors,
    _sector_null_space,
)


def embed_pair(pair_op: np.ndarray, dims, site: int) -> np.ndarray:
    """Kron reference for a bond term on (site, site+1): I_after (x) pair_op (x) I_before."""
    d_before, d_after = math.prod(dims[:site]), math.prod(dims[site + 2 :])
    return np.kron(np.eye(d_after), np.kron(pair_op, np.eye(d_before)))


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_z, S_+) for one site of twice-spin two_j, magnetization ascending."""
    d = two_j + 1
    sz = np.diag([(-two_j + 2 * i) / 2.0 for i in range(d)])
    sp = np.zeros((d, d))
    for i in range(d - 1):
        tm = -two_j + 2 * i
        sp[i + 1, i] = math.sqrt((two_j - tm) * (two_j + tm + 2)) / 2.0
    return sz, sp


def spin_vector(two_j: int) -> list[np.ndarray]:
    """Cartesian spin matrices (Sx, Sy, Sz) from the ladder pair."""
    sz, sp = spin_matrices(two_j)
    sx = (sp + sp.T) / 2.0
    sy = (sp - sp.T) / 2.0j
    return [sx, sy, sz.astype(complex)]


def heisenberg_coupling(two_j1: int, two_j2: int) -> np.ndarray:
    # pair index is i1 + d1*i2 (first site fastest), so the first-site
    # operator sits in the *inner* kron slot
    s1 = spin_vector(two_j1)
    s2 = spin_vector(two_j2)
    out = sum(np.kron(b, a) for a, b in zip(s1, s2))
    assert np.max(np.abs(out.imag)) < 1e-14
    return out.real


# ---------------------------------------------------------------------------
# spin matrices and projector algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5])
def test_spin_matrix_commutators(two_j):
    sx, sy, sz = spin_vector(two_j)
    j = two_j / 2.0
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-13)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, j * (j + 1) * np.eye(two_j + 1), atol=1e-13)
    _, sp = spin_matrices(two_j)
    assert np.allclose(sz @ sp - sp @ sz, sp, atol=1e-13)


@pytest.mark.parametrize("two_j1,two_j2", [(2, 2), (1, 2), (2, 4), (4, 4), (3, 4)])
def test_pair_projectors_resolve_identity(two_j1, two_j2):
    dim = (two_j1 + 1) * (two_j2 + 1)
    total = np.zeros((dim, dim))
    seen = []
    for two_jbond in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
        p = pair_projector(two_j1, two_j2, two_jbond)
        assert np.allclose(p, p.T, atol=1e-14)
        assert np.allclose(p @ p, p, atol=1e-13)
        assert np.trace(p) == pytest.approx(two_jbond + 1, abs=1e-12)
        for q in seen:
            assert np.max(np.abs(p @ q)) < 1e-13
        seen.append(p)
        total += p
    assert np.allclose(total, np.eye(dim), atol=1e-13)


def test_pair_projector_rejects_nontriangle_bond():
    with pytest.raises(ValueError):
        pair_projector(2, 2, 6)


def test_spin1_bond_projector_is_the_biquadratic_form():
    # P(bond spin 2) on two spin-1 sites equals 1/3 + (S.S)/2 + (S.S)^2/6
    ss = heisenberg_coupling(2, 2)
    want = np.eye(9) / 3.0 + ss / 2.0 + ss @ ss / 6.0
    got = pair_projector(2, 2, 4)
    assert np.max(np.abs(got - want)) < 1e-13


def test_boundary_projector_is_the_linear_form():
    # P(bond spin 3/2) on a (1/2, 1) pair equals (2/3)(1 + s.S)
    ss = heisenberg_coupling(1, 2)
    want = 2.0 / 3.0 * (np.eye(6) + ss)
    got = pair_projector(1, 2, 3)
    assert np.max(np.abs(got - want)) < 1e-13


def test_embed_pair_acts_on_the_right_slot():
    pair = pair_projector(2, 2, 4)
    dims = (3, 3, 3)
    h0 = embed_pair(pair, dims, 0)
    h1 = embed_pair(pair, dims, 1)
    assert h0.shape == (27, 27)
    # both embeddings annihilate the dressed two-site bond only on their slot
    assert np.max(np.abs(h0 @ h0 - h0)) < 1e-12
    assert np.max(np.abs(h1 @ h1 - h1)) < 1e-12
    assert np.max(np.abs(h0 - h1)) > 0.1  # genuinely different supports


# ---------------------------------------------------------------------------
# block Hamiltonian: ground space = dressed valence-bond states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("S,L", [(1, 2), (1, 3), (1, 4), (2, 2)])
def test_block_ground_space(S, L):
    h = block_hamiltonian(S, L)
    assert np.allclose(h, h.T, atol=1e-13)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] > -1e-10                      # positive semi-definite
    dim_null = int(np.sum(eigs < 1e-8))
    assert dim_null == (S + 1) ** 2
    for state in degenerate_states(S, L).values():
        vec = state.to_dense(normalized=True)
        assert np.max(np.abs(h @ vec)) < 1e-10


def test_block_null_space_spans_degenerate_states():
    h = block_hamiltonian(1, 3)
    kernel = null_space(h)
    assert kernel.shape[1] == 4
    proj = kernel @ kernel.T
    for state in degenerate_states(1, 3).values():
        vec = state.to_dense(normalized=True)
        assert np.max(np.abs(proj @ vec - vec)) < 1e-10


def test_block_coupling_weights_do_not_move_the_kernel():
    base = null_space(block_hamiltonian(2, 2))
    scaled = null_space(block_hamiltonian(2, 2, C=[3.5, 0.25]))
    assert base.shape == scaled.shape == (25, 9)
    # same span: projectors agree
    assert np.max(np.abs(base @ base.T - scaled @ scaled.T)) < 1e-10


def test_block_coupling_validation():
    with pytest.raises(ValueError):
        block_hamiltonian(2, 2, C=[1.0])            # needs S entries
    with pytest.raises(ValueError):
        block_hamiltonian(1, 2, C=[-1.0])           # positive weights only


# ---------------------------------------------------------------------------
# full-chain Hamiltonian: unique ground state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3])
def test_unique_ground_state_is_the_valence_bond_state(N):
    h = unique_hamiltonian(1, N)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] > -1e-10
    assert int(np.sum(eigs < 1e-8)) == 1
    kernel = null_space(h)
    vbs = build_full_vbs(1, N).to_dense(normalized=True)
    overlap = abs(float(kernel[:, 0] @ vbs))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_unique_hamiltonian_boundary_weights():
    h = unique_hamiltonian(1, 2, C=[2.0], D=[0.5])
    kernel = null_space(h)
    assert kernel.shape[1] == 1
    vbs = build_full_vbs(1, 2).to_dense(normalized=True)
    assert abs(float(kernel[:, 0] @ vbs)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        unique_hamiltonian(1, 2, D=[1.0, 1.0])


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_coupling_weights_must_be_finite(weight):
    for build in (
        lambda: unique_hamiltonian(1, 2, C=[weight]),
        lambda: unique_hamiltonian(1, 2, D=[weight]),
        lambda: block_hamiltonian(2, 2, C=[1.0, weight]),
    ):
        with pytest.raises(ValueError, match="positive and finite"):
            build()


# ---------------------------------------------------------------------------
# the bond rule: both builders against the projector sum written out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("S", [1, 2, 3])
def test_builders_sum_the_bond_projectors(S):
    # Bulk bonds carry J = S+1..2S with weights C, the two end bonds carry
    # twice-J = S+2..3S with weights D; bulk bonds are summed first, then
    # the left and the right end bond, so the floats agree bit for bit.
    C = [1.0 + 0.5 * k for k in range(S)]
    D = [0.3 + 0.7 * k for k in range(S)]
    bulk = sum(c * pair_projector(2 * S, 2 * S, 2 * J) for c, J in zip(C, range(S + 1, 2 * S + 1)))
    end_two_js = range(S + 2, 3 * S + 1, 2)
    left = sum(d * pair_projector(S, 2 * S, tj) for d, tj in zip(D, end_two_js))
    right = sum(d * pair_projector(2 * S, S, tj) for d, tj in zip(D, end_two_js))

    L = 3
    dims = (2 * S + 1,) * L
    want = np.zeros((math.prod(dims),) * 2)
    for site in range(L - 1):
        want += embed_pair(bulk, dims, site)
    assert np.array_equal(block_hamiltonian(S, L, C=C), want)

    for N in (1, 2):
        dims = (S + 1,) + (2 * S + 1,) * N + (S + 1,)
        want = np.zeros((math.prod(dims),) * 2)
        for site in range(1, N):
            want += embed_pair(bulk, dims, site)
        want += embed_pair(left, dims, 0)
        want += embed_pair(right, dims, N)
        assert np.array_equal(unique_hamiltonian(S, N, C=C, D=D), want), N


def _kron_reference(S, spins, C, D):
    """The bond sum of ``test_builders_sum_the_bond_projectors`` over any chain."""
    dims = tuple(ts + 1 for ts in spins)
    want = np.zeros((math.prod(dims),) * 2)
    for site, (a, b) in enumerate(zip(spins, spins[1:])):
        weights = C if a == b else D
        two_js = range(a + b - 2 * S + 2, a + b + 1, 2)
        pair = sum(w * pair_projector(a, b, tj) for w, tj in zip(weights, two_js))
        want += embed_pair(pair, dims, site)
    return want


@pytest.mark.parametrize("S", [1, 2, 3])
def test_sector_blocks_are_the_s_z_blocks_of_the_bond_sum(S):
    # Every block is H[idx, idx] of the Kronecker bond sum, the idx sets
    # partition the basis by ascending total twice-magnetization, and H is
    # zero outside the blocks.
    C = [1.0 + 0.5 * k for k in range(S)]
    D = [0.3 + 0.7 * k for k in range(S)]
    chains = [((2 * S,) * L, _block_sectors(S, L, C)) for L in (2, 3)]
    chains += [((S,) + (2 * S,) * N + (S,), _open_chain_sectors(S, N, C, D)) for N in (1, 2)]
    for spins, (dim, sectors) in chains:
        want = _kron_reference(S, spins, C, D)
        assert dim == len(want)
        site_tms = [np.arange(-ts, ts + 1, 2) for ts in reversed(spins)]
        tms = sum(np.meshgrid(*site_tms, indexing="ij")).ravel()  # site 0 fastest
        covered = np.zeros_like(want, dtype=bool)
        assert [tms[idx[0]] for idx, _ in sectors] == list(range(-sum(spins), sum(spins) + 1, 2))
        for idx, block in sectors:
            assert np.all(np.diff(idx) > 0) and np.all(tms[idx] == tms[idx[0]])
            assert np.allclose(block, want[np.ix_(idx, idx)], rtol=0, atol=1e-13)
            covered[np.ix_(idx, idx)] = True
        assert sum(len(idx) for idx, _ in sectors) == dim
        assert not want[~covered].any()


def test_hamiltonian_suite_stays_far_below_one_chain_matrix():
    # S=2, N=3: the open chain has 1125 states. The suite reads S^z blocks
    # only, so its traced peak stays under a quarter of one dense matrix.
    tracemalloc.start()
    try:
        checks = verify.suite_hamiltonian(spin=2, lengths=[3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(check["passed"] for check in checks)
    assert peak <= 0.25 * 1125**2 * 8


def test_pair_projector_hands_out_copies_of_one_memoized_matrix():
    first = pair_projector(2, 2, 4)
    first[0, 0] = 7.0
    second = pair_projector(2, 2, 4)
    assert second[0, 0] != 7.0 and second.flags.writeable
    assert np.array_equal(second, pair_projector(2, 2, 4))
    with pytest.raises(ValueError):
        pair_projector(2.0, 2, 4)


# ---------------------------------------------------------------------------
# dense null-space helper
# ---------------------------------------------------------------------------

def test_null_space_cutoff():
    mat = np.diag([0.0, 1e-12, 1.0])
    kernel = null_space(mat)
    assert kernel.shape == (3, 2)
    assert np.max(np.abs(mat @ kernel)) < 1e-11


def test_block_null_space_matches_dense_eigh_on_permuted_blocks():
    # PSD blocks of rank below their size, plus a zero block, scattered by a
    # random permutation: the kernel projector of the (idx, block) pairs must
    # equal the one from one dense eigh of the whole matrix.
    rng = np.random.default_rng(7)
    sizes, ranks = (1, 3, 4, 2, 5, 1), (0, 1, 3, 2, 2, 1)
    n = sum(sizes)
    position = np.argsort(rng.permutation(n))
    mat = np.zeros((n, n))
    sectors = []
    start = 0
    for size, rank in zip(sizes, ranks):
        factor = rng.normal(size=(size, rank))
        idx = position[start : start + size]
        sectors.append((idx, factor @ factor.T))
        mat[np.ix_(idx, idx)] = sectors[-1][1]
        start += size

    values, vectors = np.linalg.eigh(mat)
    dense = vectors[:, values < 1e-8]
    kernel = _sector_null_space(n, sectors)
    assert kernel.shape == dense.shape == (n, sum(sizes) - sum(ranks))
    assert np.max(np.abs(kernel.T @ kernel - np.eye(kernel.shape[1]))) < 1e-12
    assert np.max(np.abs(kernel @ kernel.T - dense @ dense.T)) < 1e-10


def test_null_space_of_the_zero_matrix_is_everything():
    kernel = null_space(np.zeros((6, 6)))
    assert kernel.shape == (6, 6)
    assert np.array_equal(kernel @ kernel.T, np.eye(6))


def test_shuffled_path_laplacian_has_the_constant_null_vector():
    # A path graph visited in shuffled order: every index is coupled to the
    # rest, but only through a chain as long as the matrix.
    n = 40
    order = np.random.default_rng(3).permutation(n)
    laplacian = np.zeros((n, n))
    for a, b in zip(order, order[1:]):
        laplacian[[a, b], [a, b]] += 1.0
        laplacian[a, b] = laplacian[b, a] = -1.0
    kernel = null_space(laplacian)
    assert kernel.shape == (n, 1)
    assert np.max(np.abs(np.abs(kernel[:, 0]) - 1 / math.sqrt(n))) < 1e-10


def test_hamiltonian_build_stays_near_one_matrix():
    # S=2, N=3: 1125 states. Bonds are summed into the S^z blocks in place,
    # so building the dense matrix allocates no second full-size temporary.
    matrix_bytes = 1125**2 * 8
    tracemalloc.start()
    try:
        h = unique_hamiltonian(2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (1125, 1125)
    assert peak <= 1.25 * matrix_bytes


@pytest.mark.parametrize("S", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_sector_null_space_matches_the_dense_reference(S, weighted):
    # The chains `verify hamiltonian` reads by default: block chains hold
    # (S+1)^2 null vectors spread over several S^z sectors, open chains one.
    C = [1.0 + 0.5 * k for k in range(S)] if weighted else None
    D = [0.3 + 0.7 * k for k in range(S)] if weighted else None
    for L in verify._default_hamiltonian_lengths(S):
        for sectors in (_block_sectors(S, L, C), _open_chain_sectors(S, L, C, D)):
            kernel = _sector_null_space(*sectors)
            dense = null_space(_dense(*sectors))
            assert kernel.shape == dense.shape, (S, L)
            assert np.max(np.abs(kernel @ kernel.T - dense @ dense.T)) < 1e-10, (S, L)


def test_require_hermitian_refuses_non_square_and_non_hermitian_matrices():
    with pytest.raises(ValueError, match="expected a square matrix"):
        require_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
