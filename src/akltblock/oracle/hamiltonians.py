"""Projector-sum spin-chain Hamiltonians.

The models here are sums of two-site total-spin projectors with positive
weights: the block Hamiltonian couples L spin-S sites through the J = S+1..2S
projectors, and the open-chain variant adds boundary spin-S/2 sites with
J = S/2+1..3S/2 boundary projectors, which removes the ground-state
degeneracy. Matrices are real symmetric arrays over the same site-major
basis as the state vectors (site 0 fastest).

The projectors conserve total S^z, so one builder, :func:`_chain_sectors`,
adds every bond straight into one block per total-magnetization sector and
no chain-size matrix is formed; :func:`_sector_null_space` diagonalizes
those blocks one at a time; the verify suite reads only these sectors.
``block_hamiltonian`` and ``unique_hamiltonian`` scatter the blocks into
the dense matrix, and ``null_space`` is one dense ``eigh``: the plain
reference for the sector route. The cap applies to the full chain dimension.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..angular import TOL, _check_int, _triangle_ok, clebsch_gordan
from .dense import DEFAULT_MAX_DIM, require_dim

__all__ = [
    "pair_projector",
    "block_hamiltonian",
    "unique_hamiltonian",
    "null_space",
]


def pair_projector(two_j1: int, two_j2: int, two_jbond: int) -> np.ndarray:
    """Projector onto total spin jbond of a two-site pair (twice-values).

    Row/column index is i1 + (two_j1+1)*i2 with i = (tm + tj)/2, so the first
    site of the pair varies fastest, matching the chain basis ordering.
    Both site spins are explicit because boundary bonds pair a spin-S/2 site
    with a spin-S site. Returns a fresh copy of the memoized projector.
    """
    for name, tj in (("first site", two_j1), ("second site", two_j2), ("bond", two_jbond)):
        _check_int(f"twice-spin of {name}", tj, 0)
    if not _triangle_ok(two_j1, two_j2, two_jbond):
        raise ValueError(
            f"bond spin 2J={two_jbond} violates the triangle rule for sites "
            f"2j1={two_j1}, 2j2={two_j2}"
        )
    return _pair_projector(two_j1, two_j2, two_jbond).copy()


@lru_cache(maxsize=None)
def _pair_projector(two_j1: int, two_j2: int, two_jbond: int) -> np.ndarray:
    """Read-only :func:`pair_projector` for arguments it has validated."""
    d1, d2 = two_j1 + 1, two_j2 + 1
    proj = np.zeros((d1 * d2, d1 * d2))
    for tM in range(-two_jbond, two_jbond + 1, 2):
        vec = np.zeros(d1 * d2)
        for tm1 in range(-two_j1, two_j1 + 1, 2):
            tm2 = tM - tm1
            if abs(tm2) > two_j2:
                continue
            coeff = clebsch_gordan(two_j1, tm1, two_j2, tm2, two_jbond, tM)
            if coeff.sign:
                vec[(tm1 + two_j1) // 2 + d1 * ((tm2 + two_j2) // 2)] = float(coeff)
        proj += np.outer(vec, vec)
    proj.setflags(write=False)
    return proj


def _coefficients(weights: Sequence[float] | None, count: int, what: str) -> list[float]:
    if weights is None:
        return [1.0] * count
    weights = [float(w) for w in weights]
    if len(weights) != count:
        raise ValueError(f"expected {count} {what} coefficients, got {len(weights)}")
    if not all(w > 0 and math.isfinite(w) for w in weights):
        raise ValueError(f"{what} coefficients must be positive and finite, got {weights}")
    return weights


def _chain_sectors(S: int, spins: tuple[int, ...], C, D, max_dim: int, what: str):
    """Bond-projector sum over a chain of site twice-spins, one block per S^z sector.

    A neighbouring pair (a, b) carries the weighted projectors onto
    twice-J = a+b-2S+2..a+b, the spins that S valence bonds cannot reach:
    J = S+1..2S between spin-S sites (weights ``C``) and S/2+1..3S/2 where a
    spin-S/2 end meets the bulk (weights ``D``). The projectors conserve
    total S^z, so the sum is block diagonal over the total twice-magnetization.
    Returns ``(dim, [(idx, block)])`` with one pair per sector, by ascending
    magnetization: ``idx`` holds the sector's ascending site-major basis
    indices and ``block`` is the Hamiltonian restricted to them. The cap
    ``max_dim`` applies to the full dimension, checked before anything is
    built. Each bond's nonzero entries are added straight into the blocks,
    bulk bonds first, then the boundary bonds, so the float sum has one
    fixed order.
    """
    bulk_weights = _coefficients(C, S, "bulk projector")
    boundary_weights = _coefficients(D, S, "boundary projector")
    dims = tuple(ts + 1 for ts in spins)
    dim = math.prod(dims)
    require_dim(dim, max_dim, what=what)
    # A state's sector is its total occupation sum_j i_j; site 0 varies fastest.
    charge = np.zeros(1, dtype=np.intp)
    for d in dims:
        charge = (np.arange(d)[:, None] + charge).ravel()
    order = np.argsort(charge, kind="stable")
    sizes = np.bincount(charge)
    starts = np.cumsum(sizes) - sizes
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim) - np.repeat(starts, sizes)
    # All blocks live in one buffer; sector k's block starts at offsets[k].
    areas = sizes**2
    offsets = np.cumsum(areas) - areas
    flat = np.zeros(int(areas.sum()))
    pairs = {}
    for a, b in dict.fromkeys(zip(spins, spins[1:])):
        weights = bulk_weights if a == b else boundary_weights
        two_js = range(a + b - 2 * S + 2, a + b + 1, 2)
        pairs[a, b] = sum(w * _pair_projector(a, b, tj) for w, tj in zip(weights, two_js))
    for site in sorted(range(len(spins) - 1), key=lambda site: spins[site] != spins[site + 1]):
        # With site 0 fastest, the bond term is I_after (x) pair (x) I_before:
        # pair entry (p, q) sits at rows/columns before + d_before * (p|q + width * after).
        pair = pairs[spins[site], spins[site + 1]]
        p, q = np.nonzero(pair)
        d_before = math.prod(dims[:site])
        width = dims[site] * dims[site + 1]
        base = (np.arange(0, dim, d_before * width)[:, None] + np.arange(d_before)).ravel()[:, None]
        rows = (base + d_before * p).ravel()
        cols = (base + d_before * q).ravel()
        sector = charge[rows]
        flat[offsets[sector] + position[rows] * sizes[sector] + position[cols]] += np.tile(
            pair[p, q], len(base)
        )
    return dim, [
        (order[start : start + n], flat[offset : offset + n * n].reshape(n, n))
        for start, offset, n in zip(starts, offsets, sizes)
    ]


def _dense(dim: int, sectors) -> np.ndarray:
    """The full matrix of a block-diagonal operator given by its (idx, block) sectors."""
    mat = np.zeros((dim, dim))
    for idx, block in sectors:
        mat[np.ix_(idx, idx)] = block
    return mat


def _block_sectors(S: int, L: int, C=None, max_dim: int = DEFAULT_MAX_DIM):
    _check_int("bulk spin", S, 1)
    _check_int("length", L, 2)
    return _chain_sectors(S, (2 * S,) * L, C, None, max_dim, "block Hamiltonian")


def _open_chain_sectors(S: int, N: int, C=None, D=None, max_dim: int = DEFAULT_MAX_DIM):
    _check_int("bulk spin", S, 1)
    _check_int("bulk site count N", N, 1)
    spins = (S,) + (2 * S,) * N + (S,)
    return _chain_sectors(S, spins, C, D, max_dim, "open-chain Hamiltonian")


def block_hamiltonian(
    S: int, L: int, C: Sequence[float] | None = None, max_dim: int = DEFAULT_MAX_DIM
) -> np.ndarray:
    """Sum of bond projectors J = S+1..2S over L spin-S sites.

    ``C`` lists the projector weights in ascending J order (default all 1);
    the null space is the span of the degenerate block VBS states whatever
    the positive weights.
    """
    return _dense(*_block_sectors(S, L, C, max_dim))


def unique_hamiltonian(
    S: int,
    N: int,
    C: Sequence[float] | None = None,
    D: Sequence[float] | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> np.ndarray:
    """Open-chain Hamiltonian with spin-S/2 boundary sites; unique null vector.

    Bulk bonds carry the J = S+1..2S projectors with weights ``C``; the two
    boundary bonds carry the spin-(S/2)-spin-S projectors with J running over
    S/2+1..3S/2 (twice-values S+2..3S) and weights ``D``, both in ascending J
    order, default all 1.
    """
    return _dense(*_open_chain_sectors(S, N, C, D, max_dim))


def _sector_null_space(dim: int, sectors) -> np.ndarray:
    """Orthonormal null-space basis (columns) of a matrix given by (idx, block) pairs.

    The blocks are real, cover disjoint index sets and the matrix is zero
    outside them. Each block is screened with ``eigvalsh``; ``eigh`` runs
    only on a block whose lowest eigenvalue is below ``TOL.null_space``. The
    columns come block by block, in the order of ``sectors``.
    """
    found = []
    for idx, block in sectors:
        if np.linalg.eigvalsh(block)[0] < TOL.null_space:
            values, vectors = np.linalg.eigh(block)
            found.append((idx, vectors[:, values < TOL.null_space]))
    basis = np.zeros((dim, sum(vectors.shape[1] for _, vectors in found)))
    col = 0
    for idx, vectors in found:
        basis[idx, col : col + vectors.shape[1]] = vectors
        col += vectors.shape[1]
    return basis


def null_space(mat: np.ndarray, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space, from one dense ``eigh``.

    Intended for positive semi-definite projector sums, whose spectral gap
    above zero is O(0.1); the cutoff ``TOL.null_space`` sits far inside that
    gap. This is the plain reference that the sector route,
    :func:`_sector_null_space` over :func:`_chain_sectors`, is tested against.
    """
    mat = np.asarray(mat)
    require_dim(mat.shape[0], max_dim, what="null-space computation")
    values, vectors = np.linalg.eigh(mat)
    return vectors[:, values < TOL.null_space]
