"""Valence-bond-solid states in the Schwinger-boson occupation basis.

A site of twice-spin ``ts`` carries ``ts`` bosons split between the two
Schwinger modes; the occupation (n_a, n_b) = ((ts+tm)/2, (ts-tm)/2) is
labelled by the twice-magnetization ``tm``. A basis monomial is therefore a
tuple of per-site tm values, with the per-site twice-spins stored once on the
state. Bond expansion and boundary-operator application stay exact: a
:class:`StateVector` holds integer or rational amplitudes over one positive
radical sqrt(scale_square) (a fixed (J, M) family shares a single radical,
so no sums of incompatible square roots ever arise). Converting to the
orthonormal |s,m> product basis, which multiplies the coefficient of
occupation (p, q) by sqrt(p! q!) per site, is the only exact-to-float
boundary: each dense entry is the root of one exact rational square.

Basis ordering is site-major with magnetization ascending from -s:
``index = sum_j i_j * prod_{j'<j} (ts_{j'}+1)`` with ``i_j = (tm_j+ts_j)/2``
(site 0 varies fastest); :func:`_monomial` computes it.

Public functions take the bulk spin S and the edge quantum numbers (J, M) as
plain integers; twice-values appear only in per-site spins, where the
boundary sites genuinely carry half-integer spin S/2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from ..angular import (
    _check_int,
    _coupling_prefactor_square,
    _racah_sum,
    _signed_root,
    _sqrt_exact,
    factorial,
)
from .dense import (
    DEFAULT_MAX_DIM,
    MAX_STATE_ENTRIES,
    factor_spectrum,
    require_dim,
)

__all__ = [
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
    "apply_spin_z",
    "apply_spin_raising",
    "apply_spin_lowering",
    "total_spin_checks",
    "ladder_residual",
    "linear_combine",
    "states_equal_exact",
]


def _monomial(spins: tuple[int, ...], tms: tuple[int, ...]) -> tuple[int, int]:
    """Site-major basis index and norm-square prod_j p_j! q_j! of one boson monomial."""
    index, stride, weight = 0, 1, 1
    for ts, tm in zip(spins, tms):
        p = (ts + tm) // 2
        index += p * stride
        stride *= ts + 1
        weight *= factorial(p) * factorial(ts - p)
    return index, weight


class StateVector(namedtuple("StateVector", "spins amps scale_square sector")):
    """Sparse exact state over the Schwinger occupation basis.

    ``amps`` maps per-site twice-magnetization tuples to integer or rational
    amplitudes; the physical coefficient of a monomial is
    ``sqrt(scale_square) * amps[key]``, with ``scale_square`` one shared
    positive rational. ``sector`` optionally tags the (J, M) edge quantum
    numbers once a boundary operator has been applied. Zero amplitudes are
    dropped on construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        spins: tuple[int, ...],
        amps: dict[tuple[int, ...], Fraction | int],
        scale_square: Fraction | int = Fraction(1),
        sector: tuple[int, int] | None = None,
    ) -> StateVector:
        if scale_square <= 0:
            raise ValueError(f"scale_square must be positive, got {scale_square}")
        amps = {k: v for k, v in amps.items() if v != 0}
        return super().__new__(cls, spins, amps, scale_square, sector)

    @property
    def nsites(self) -> int:
        return len(self.spins)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(ts + 1 for ts in self.spins)

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    def norm_square_exact(self) -> Fraction:
        """<psi|psi> in the orthonormal basis, as an exact rational.

        Distinct monomials are orthogonal with <(p,q)|(p,q)> = p! q! per
        site, so the norm-square needs only the squared amplitudes and no
        radical arithmetic.
        """
        total = Fraction(0)
        for key, amp in self.amps.items():
            total += amp * amp * _monomial(self.spins, key)[1]
        return total * self.scale_square

    def to_dense(self, normalized: bool = True) -> np.ndarray:
        """Dense orthonormal-basis vector (the exact-to-float boundary).

        One pass over the monomials gives each entry's exact square and the
        norm-square; with ``scale_square == 1`` both stay plain integers for
        integer amplitudes.
        """
        require_dim(self.dimension, MAX_STATE_ENTRIES, what="dense vector")
        out = np.zeros(self.dimension)
        scale, unscaled = self.scale_square, self.scale_square == 1
        norm_sq = 0
        for key, amp in self.amps.items():
            index, weight = _monomial(self.spins, key)
            square = amp * amp * weight
            norm_sq += square
            out[index] = _signed_root(amp, square if unscaled else square * scale)
        if normalized:
            if norm_sq == 0:
                raise ValueError("cannot normalize the zero state")
            out /= math.sqrt(float(norm_sq * scale))
        return out


def vacuum(nsites: int) -> StateVector:
    """Boson vacuum: every site has twice-spin 0 and amplitude 1."""
    _check_int("site count", nsites, 1)
    return StateVector(spins=(0,) * nsites, amps={(0,) * nsites: 1})


def _apply_pair(state: StateVector, i: int, j: int, terms, bosons: int, scale_square, sector=None):
    """Add ``bosons`` bosons at sites i and j, exactly, with the given terms.

    Each term (dtm_i, dtm_j, coefficient) shifts the twice-magnetizations of
    the two sites and multiplies the amplitude by the integer or rational
    coefficient. The amplitude map is capped at ``MAX_STATE_ENTRIES``.
    """
    new_amps: dict[tuple[int, ...], Fraction | int] = {}
    for di, dj, coeff in terms:
        for key, amp in state.amps.items():
            new_key = list(key)
            new_key[i] += di
            new_key[j] += dj
            new_key = tuple(new_key)
            new_amps[new_key] = new_amps.get(new_key, 0) + coeff * amp
    require_dim(len(new_amps), MAX_STATE_ENTRIES, what="amplitude map")
    spins = list(state.spins)
    spins[i] += bosons
    spins[j] += bosons
    return StateVector(tuple(spins), new_amps, scale_square, sector)


def valence_bond_power(state: StateVector, i: int, j: int, S: int) -> StateVector:
    """Multiply by the valence bond (a_i^+ b_j^+ - b_i^+ a_j^+)^S, exactly.

    Binomial expansion in commuting creation operators: the k-th term adds
    (S-k, k) bosons at site i and (k, S-k) at site j with the signed binomial
    coefficient, i.e. twice-magnetization shifts (S-2k, 2k-S).
    """
    _check_int("bond site i", i, 0, state.nsites - 1)
    _check_int("bond site j", j, 0, state.nsites - 1)
    if i == j:
        raise ValueError(f"bond sites must be distinct, got {(i, j)}")
    _check_int("bond power", S, 1)
    terms = [(S - 2 * k, 2 * k - S, (-1) ** k * math.comb(S, k)) for k in range(S + 1)]
    return _apply_pair(state, i, j, terms, S, state.scale_square)


def build_block_vbs(S: int, L: int) -> StateVector:
    """Block VBS state: L sites, L-1 valence bonds, raw integer amplitudes.

    End sites carry S bosons (spin S/2) and bulk sites 2S bosons (spin S).
    """
    _check_int("bulk spin", S, 1)
    _check_int("length", L, 2)
    state = vacuum(L)
    for site in range(L - 1):
        state = valence_bond_power(state, site, site + 1, S)
    return state


def build_full_vbs(S: int, N: int) -> StateVector:
    """Open-chain VBS state: N bulk spin-S sites, spin-S/2 ends, N+1 bonds (a block of N+2)."""
    _check_int("bulk spin", S, 1)
    _check_int("bulk site count N", N, 1)
    return build_block_vbs(S, N + 2)


def _pair_terms(S: int, J: int, M: int):
    """Coupling terms of the two spin-S/2 edge modes to total (J, M).

    Yields (tm1, tm2, rational) such that the boundary operator adds the
    monomial pair with that rational coefficient; the common radical of the
    family is returned separately as a prefactor square.
    """
    _check_int("edge-spin sector J", J, 0, S)
    _check_int("edge magnetization M", M, -J, J)
    tj, tJ, tM = S, 2 * J, 2 * M
    prefactor_square = _coupling_prefactor_square(tj, tj, tJ, tM)
    terms = []
    for tm1 in range(-tj, tj + 1, 2):
        tm2 = tM - tm1
        if abs(tm2) > tj:
            continue
        rational = _racah_sum(tj, tm1, tj, tm2, tJ)
        if rational != 0:
            terms.append((tm1, tm2, rational))
    return prefactor_square, terms


def edge_pair_state(S: int, J: int, M: int) -> StateVector:
    """Normalized two-site state of the boundary pair: |J, M> of two spin-S/2."""
    _check_int("bulk spin", S, 1)
    prefactor_square, terms = _pair_terms(S, J, M)
    amps = {(tm1, tm2): rational for tm1, tm2, rational in terms}
    return StateVector(
        spins=(S, S),
        amps=amps,
        scale_square=prefactor_square,
        sector=(J, M),
    )


def apply_psi_dagger(state: StateVector, J: int, M: int) -> StateVector:
    """Attach the edge-spin creation operator for sector (J, M), exactly.

    The input must be a block VBS state (end sites spin S/2, bulk spin S);
    the output carries spin S everywhere and is tagged with ``sector``.
    Amplitudes remain rational because the coupling coefficient divided by
    the boson monomial norms is rational times one (J, M)-dependent radical,
    whose square multiplies ``scale_square``.
    """
    S = state.spins[0]
    if state.nsites < 2 or state.spins[-1] != S or any(
        ts != 2 * S for ts in state.spins[1:-1]
    ):
        raise ValueError("expected a block VBS state with spin-S/2 end sites")
    prefactor_square, terms = _pair_terms(S, J, M)
    scale_square = state.scale_square * prefactor_square
    return _apply_pair(state, 0, state.nsites - 1, terms, S, scale_square, sector=(J, M))


def degenerate_states(S: int, L: int) -> dict[tuple[int, int], StateVector]:
    """All (S+1)^2 degenerate block VBS states keyed by (J, M)."""
    block = build_block_vbs(S, L)
    return {
        (J, M): apply_psi_dagger(block, J, M)
        for J in range(S + 1)
        for M in range(-J, J + 1)
    }


def _check_block(state: StateVector, start: int, length: int) -> None:
    """The block must be a contiguous run of the state's sites."""
    _check_int("block length", length, 1, state.nsites)
    _check_int("block start", start, 0, state.nsites - length)


def _block_factor(state: StateVector, start: int, length: int) -> np.ndarray:
    """Normalized dense state as a (block, environment) matrix F.

    Rows run site-major over the block (earliest block site fastest), columns
    over the sites outside it, so the block density matrix is F F^T. The
    caller checks the block and its cap.
    """
    dims = state.dims
    d_left = math.prod(dims[:start])
    d_block = math.prod(dims[start : start + length])
    d_right = math.prod(dims[start + length :])
    psi = state.to_dense(normalized=True).reshape((d_left, d_block, d_right), order="F")
    return psi.transpose(1, 0, 2).reshape(d_block, d_left * d_right)


def reduced_density_matrix(
    state: StateVector, start: int, length: int, max_dim: int = DEFAULT_MAX_DIM
) -> np.ndarray:
    """Partial trace onto a contiguous block of sites, as a dense matrix.

    The state is normalized first, so the result has unit trace. Row/column
    index is site-major over the block (earliest block site fastest).
    """
    _check_block(state, start, length)
    require_dim(math.prod(state.dims[start : start + length]), max_dim, what="density matrix")
    factor = _block_factor(state, start, length)
    return factor @ factor.T


def fock_block_spectrum(
    S: int,
    L: int,
    N: int | None = None,
    start: int = 1,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[float]:
    """Eigenvalues (descending) of the block density matrix, brute force.

    Builds the full chain with N bulk sites (default N = L) and cuts it into
    bulk sites start..start+L-1 and the rest. With F that (block x
    environment) factor, rho = F F^T, and :func:`~.dense.factor_spectrum`
    takes its eigenvalues from F; rho itself is never formed. ``max_dim``
    caps the block dimension (2S+1)^L, and ``MAX_STATE_ENTRIES`` the dense
    chain (S+1)^2 (2S+1)^N, both before the chain is built.
    """
    _check_int("length", L, 1)
    if N is None:
        N = L
    _check_int(f"block start for length {L} in N={N}", start, 1, N - L + 1)
    _check_int("bulk spin", S, 1)
    require_dim((2 * S + 1) ** L, max_dim, what="Fock block")
    require_dim((S + 1) ** 2 * (2 * S + 1) ** N, MAX_STATE_ENTRIES, what="dense vector")
    return factor_spectrum(_block_factor(build_full_vbs(S, N), start, L))


def correlator_reconstruction(
    state: StateVector, start: int, length: int, max_dim: int = DEFAULT_MAX_DIM
) -> np.ndarray:
    """Rebuild the block density matrix from multi-point correlators.

    Evaluates every correlator <G| prod_j |b_j><a_j| |G> from the sparse
    exact amplitudes, never from a dense vector: monomials sharing their
    environment part pair up, and entry (a, b) is the exact sum of
    amp_a amp_b w_env over those pairs, times sqrt(w_a w_b) over the exact
    norm-square, with w the p! q! occupation weights. Each entry becomes a
    float once. Agreement with :func:`reduced_density_matrix` is therefore a
    cross-check between two independent routes. Row/column index is
    site-major over the block (earliest block site fastest).
    """
    _check_block(state, start, length)
    stop = start + length
    block_spins = state.spins[start:stop]
    env_spins = state.spins[:start] + state.spins[stop:]
    d_block = math.prod(state.dims[start:stop])
    require_dim(d_block, max_dim, what="correlator matrix")
    environments: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
    block_weight = {}
    for key, amp in state.amps.items():
        index, weight = _monomial(block_spins, key[start:stop])
        block_weight[index] = weight
        environments.setdefault(key[:start] + key[stop:], []).append((index, amp))
    sums: dict[tuple[int, int], Fraction] = {}
    for env, members in environments.items():
        env_weight = _monomial(env_spins, env)[1]
        for a, amp_a in members:
            for b, amp_b in members:
                sums[a, b] = sums.get((a, b), 0) + amp_a * amp_b * env_weight
    scale = state.scale_square / state.norm_square_exact()
    rho = np.zeros((d_block, d_block))
    for (a, b), total in sums.items():
        value = total * scale
        rho[a, b] = _signed_root(value, value * value * block_weight[a] * block_weight[b])
    return rho


def partial_inner_identity_check(S: int, L: int, J: int, M: int) -> float:
    """Relative residual of the boundary-contraction identity.

    Contracting the full (N = L) VBS state with the boundary-pair state
    |J, M> must reproduce (-1)^(S-J+M) (S!)^2 times the degenerate block
    state for (J, -M). Both sides are built independently.
    """
    pair_state = edge_pair_state(S, J, M)
    full = build_full_vbs(S, L)
    dims = full.dims
    d_end = dims[0]
    d_block = math.prod(dims[1:-1])
    psi = full.to_dense(normalized=False).reshape((d_end, d_block, d_end), order="F")
    pair = pair_state.to_dense(normalized=False).reshape((d_end, d_end), order="F")
    lhs = np.einsum("abc,ac->b", psi, pair)
    block = build_block_vbs(S, L)
    rhs_state = apply_psi_dagger(block, J, -M)
    phase = -1.0 if (S - J + M) % 2 else 1.0
    rhs = phase * factorial(S) ** 2 * rhs_state.to_dense(normalized=False)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def _apply_site_ladder(state: StateVector, raise_spin: bool) -> StateVector:
    """Total S^+ (or S^-) on the monomial basis, exactly.

    On a monomial with occupation (p, q), a^+ b acts with integer coefficient
    q (and b^+ a with p), shifting the twice-magnetization by +-2.
    """
    new_amps: dict[tuple[int, ...], Fraction | int] = {}
    for key, amp in state.amps.items():
        for site, (ts, tm) in enumerate(zip(state.spins, key)):
            coeff = (ts - tm) // 2 if raise_spin else (ts + tm) // 2
            if coeff == 0:
                continue
            new_key = list(key)
            new_key[site] += 2 if raise_spin else -2
            new_key = tuple(new_key)
            new_amps[new_key] = new_amps.get(new_key, 0) + coeff * amp
    return StateVector(spins=state.spins, amps=new_amps, scale_square=state.scale_square)


def apply_spin_raising(state: StateVector) -> StateVector:
    """Total raising operator sum_j a_j^+ b_j, exact."""
    return _apply_site_ladder(state, raise_spin=True)


def apply_spin_lowering(state: StateVector) -> StateVector:
    """Total lowering operator sum_j b_j^+ a_j, exact."""
    return _apply_site_ladder(state, raise_spin=False)


def apply_spin_z(state: StateVector) -> StateVector:
    """Total S^z = sum_j (n_a - n_b)/2, exact (diagonal on monomials)."""
    new_amps = {
        key: amp * Fraction(sum(key), 2) for key, amp in state.amps.items()
    }
    return StateVector(spins=state.spins, amps=new_amps, scale_square=state.scale_square)


def linear_combine(
    u: StateVector, v: StateVector, cu: Fraction | int, cv: Fraction | int
) -> StateVector:
    """cu*u + cv*v exactly; the two scales must share a radical."""
    if u.spins != v.spins:
        raise ValueError("cannot combine states over different site spins")
    ratio = _sqrt_exact(v.scale_square / u.scale_square)
    if ratio is None:
        raise ValueError("cannot combine states with incompatible scale radicals")
    shift = Fraction(cv) * ratio
    amps = {key: Fraction(cu) * amp for key, amp in u.amps.items()}
    for key, amp in v.amps.items():
        amps[key] = amps.get(key, 0) + shift * amp
    return StateVector(spins=u.spins, amps=amps, scale_square=u.scale_square)


def states_equal_exact(u: StateVector, v: StateVector) -> bool:
    """Exact equality of two states as vectors (not up to phase)."""
    if u.spins != v.spins:
        return False
    try:
        diff = linear_combine(u, v, 1, -1)
    except ValueError:
        return False
    return not diff.amps


def total_spin_checks(state: StateVector) -> dict[str, float]:
    """Relative residuals of the edge quantum numbers of a degenerate state.

    Verifies (S^z_tot - M)|v> = 0 and (S^2_tot - J(J+1))|v> = 0 for the
    state's (J, M) ``sector`` tag, with S^2 = S^- S^+ + S^z(S^z + 1), all in
    exact arithmetic; the residual norms are converted to floats only for
    reporting.
    """
    if state.sector is None:
        raise ValueError("state carries no (J, M) tag")
    J, M = state.sector
    norm = math.sqrt(float(state.norm_square_exact()))
    if norm == 0:
        raise ValueError("zero state")

    z_diff = linear_combine(apply_spin_z(state), state, 1, -Fraction(M))
    sz_residual = math.sqrt(float(z_diff.norm_square_exact())) / norm

    casimir = apply_spin_lowering(apply_spin_raising(state))
    z_part = apply_spin_z(state)
    casimir = linear_combine(casimir, apply_spin_z(z_part), 1, 1)
    casimir = linear_combine(casimir, z_part, 1, 1)
    c_diff = linear_combine(casimir, state, 1, -Fraction(J * (J + 1)))
    casimir_residual = math.sqrt(float(c_diff.norm_square_exact())) / norm
    return {"sz_residual": sz_residual, "casimir_residual": casimir_residual}


def ladder_residual(lower: StateVector, upper: StateVector) -> float:
    """Relative residual of S^+|J,M> = sqrt((J-M)(J+M+1)) |J,M+1>.

    Phase-sensitive on purpose: it pins the relative phases of the (J, M)
    family produced by :func:`apply_psi_dagger`.
    """
    if lower.sector is None or upper.sector is None:
        raise ValueError("both states must carry (J, M) tags")
    J, M = lower.sector
    J2, M2 = upper.sector
    if J2 != J or M2 != M + 1:
        raise ValueError(f"expected sectors (J,M) and (J,M+1), got {lower.sector} and {upper.sector}")
    raised = apply_spin_raising(lower)
    target = StateVector(upper.spins, dict(upper.amps), upper.scale_square * (J - M) * (J + M + 1))
    diff = linear_combine(raised, target, 1, -1)
    scale_norm = math.sqrt(float(target.norm_square_exact()))
    return math.sqrt(float(diff.norm_square_exact())) / scale_norm
