"""Block entanglement spectrum of the spin-S valence-bond-solid chain, exact.

The reduced density matrix of a contiguous length-L block cut out of the
(open, boundary-spin-S/2) VBS chain has exactly (S+1)^2 nonzero eigenvalues:
one value Lambda(J) per total edge-spin sector J = 0..S, each with
multiplicity 2J+1. Both exact routes evaluate
Lambda(J) = sum_l c(S,J,l) lambda(l,S)^(L-1) with L-independent weights c,
tabulated once per S by independent integer builders:

* ``eigenvalue_recurrence`` — c from the values I_l(x(J)) of a three-term
  recurrence, run pointwise at the S+1 points x(J) (``_recurrence_weights``;
  ``i_polynomial`` builds the same I_l as polynomials, the tested
  reference);
* ``eigenvalue_closed`` — c from a sum over squared 3j symbols, no I_l
  (``_closed_weights``, summed in integers over (2S+1)! from the
  factorial-only ``angular._three_j_zero_square``).

The routes meet only in one integer kernel, ``_sector_numerators``. Each
builder returns row J of its table in lowest terms, as integers
(n_{J,0..S}, W_J) over one denominator, and lambda(l,S) is the ratio
a_l / C(2S+1,S) with a_l = (-1)^l C(2S+1,S-l). Over the one per-S
denominator M = lcm_J W_J, every sector of one L then shares

    Lambda(J) = N_J / D,   N_J = (M/W_J) sum_l n_{J,l} a_l^(L-1),
                           D = M C(2S+1,S)^(L-1):

one integer dot product per sector, with the powers stepped from one length
to the next. ``eigenvalue_recurrence`` and ``eigenvalue_closed`` read one
(S, L) at a time and reduce each N_J / D to a Fraction (one gcd);
``entropy._length_weights(S, lengths)`` walks its lengths in one pass,
checks sign and trace on the unreduced N_J in integers, and divides once
per sector, with no gcd. ``exact_suites.suite_conjecture1`` and
``suite_flat_limit`` walk theirs the same way and decide every cell on the
unreduced N_J and D; only a counterexample becomes a Fraction.

Everything here is exact integer and rational arithmetic; no floats enter
until entropy evaluation. Norm-squares of the underlying (unnormalized) VBS
states are also exposed since the eigenvalues are rescaled norms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .angular import _check_int, _three_j_zero_square, factorial

__all__ = [
    "IPolynomial",
    "BlockSpectrum",
    "lambda_coeff",
    "legendre_expansion_residual",
    "i_polynomial",
    "eigenvalue_recurrence",
    "eigenvalue_closed",
    "vbs_norm",
    "degenerate_norm",
    "spin1_closed",
    "block_spectrum",
    "flat_limit_bound",
    "saturation_value",
]

EXACT_METHODS = ("recurrence", "closed_form")


def lambda_coeff(l: int, S: int) -> Fraction:
    """Multipole damping coefficient lambda(l, S), exact.

    lambda(l, S) = (-1)^l S!(S+1)! / ((S-l)!(S+l+1)!); successive orders obey
    lambda(l+1)/lambda(l) = -(S-l)/(S+l+2), so the magnitude strictly decays
    with l. lambda(0, S) = 1 for every S.
    """
    _check_int("bulk spin", S, 0)
    _check_int("multipole order l", l, 0, S)
    value = Fraction(
        factorial(S) * factorial(S + 1), factorial(S - l) * factorial(S + l + 1)
    )
    return -value if l % 2 else value


def legendre_expansion_residual(S: int, t: float) -> float:
    """Float residual of the bond-kernel Legendre expansion at cos(angle) = t.

    Evaluates [ (1-t)/2 ]^S - (1/(S+1)) sum_{l=0}^{S} (2l+1) lambda(l,S) P_l(t)
    with P_l from the standard three-term recurrence. This is a numerical
    identity check; the exact pipeline never needs it.
    """
    _check_int("bulk spin", S, 1)
    lhs = (0.5 * (1.0 - t)) ** S
    acc = 0.0
    p_prev, p_cur = 0.0, 1.0  # P_{l-1}, P_l starting at l = 0
    for l in range(S + 1):
        acc += (2 * l + 1) * float(lambda_coeff(l, S)) * p_cur
        p_prev, p_cur = p_cur, ((2 * l + 1) * t * p_cur - l * p_prev) / (l + 1)
    return lhs - acc / (S + 1)


class IPolynomial(namedtuple("IPolynomial", "S l coefficients")):
    """Weight polynomial I_l(x) of the recurrence route, exact coefficients.

    ``coefficients[k]`` is the coefficient of x^k; the degree equals l.
    Instances are callable and evaluate by Horner's rule (exact when called
    with a Fraction).
    """

    __slots__ = ()

    def __call__(self, x: Fraction | float):
        acc: Fraction | float = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def i_polynomial(l: int, S: int) -> IPolynomial:
    """Build I_l for bulk spin S by the three-term recurrence, exactly.

    Seeds are I_0 = 1 and I_1 = x/((S/2)+1)^2; then

        I_{l+1} = (2l+1)/(S+l+2)^2 * (4x/(l+1) + l) * I_l
                  - l/(l+1) * ((S-l+1)/(S+l+2))^2 * I_{l-1}.
    """
    _check_int("bulk spin", S, 1)
    _check_int("multipole order l", l, 0, S)
    prev = [Fraction(1)]  # I_0
    if l == 0:
        return IPolynomial(S, 0, tuple(prev))
    cur = [Fraction(0), Fraction(4, (S + 2) ** 2)]  # I_1 = 4x/(S+2)^2
    for k in range(1, l):
        lead = Fraction(2 * k + 1, (S + k + 2) ** 2)
        nxt = [Fraction(0)] * (k + 2)
        for power, coeff in enumerate(cur):
            nxt[power + 1] += lead * Fraction(4, k + 1) * coeff
            nxt[power] += lead * k * coeff
        back = Fraction(k, k + 1) * Fraction((S - k + 1) ** 2, (S + k + 2) ** 2)
        for power, coeff in enumerate(prev):
            nxt[power] -= back * coeff
        prev, cur = cur, nxt
    return IPolynomial(S, l, tuple(cur))


def _lowest_terms(numerators: list[int], denominator: int) -> tuple[tuple[int, ...], int]:
    """The row numerators/denominator divided by their one common gcd."""
    g = math.gcd(denominator, *numerators)
    return tuple(n // g for n in numerators), denominator // g


@lru_cache(maxsize=None)
def _recurrence_weights(S: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Recurrence-route weights: row J is (n_{J,0..S}, W_J) in lowest terms.

    n_{J,l} / W_J = (2l+1) I_l(x(J)) / (S+1)^2 with x(J) = J(J+1)/2 -
    (S/2)(S/2+1). The recurrence of ``i_polynomial`` runs on the values
    I_l(x(J)), not on polynomials: O(S) steps per row. With
    y = 4x(J) an integer, I_k = N_k / D_k for D_k = prod_{j<k} (j+1)(S+j+2)^2
    and integers N_0 = 1, N_1 = y,

        N_{k+1} = (2k+1)(y + k(k+1)) N_k - k^2 (S-k+1)^2 (S+k+1)^2 N_{k-1},

    and D_S is a common denominator of the row.
    """
    norm = (S + 1) ** 2
    rows = []
    for J in range(S + 1):
        y = 2 * J * (J + 1) - S * (S + 2)
        prev, cur, den = 0, 1, norm
        entries = [(1, norm)]
        for k in range(S):
            back = (k * (S - k + 1) * (S + k + 1)) ** 2
            prev, cur = cur, (2 * k + 1) * (y + k * (k + 1)) * cur - back * prev
            den *= (k + 1) * (S + k + 2) ** 2
            entries.append(((2 * k + 3) * cur, den))
        rows.append(_lowest_terms([n * (den // d) for n, d in entries], den))
    return tuple(rows)


@lru_cache(maxsize=None)
def _closed_weights(S: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Closed-route weights from squared 3j symbols only; row J is (n_{J,l1}, W_J).

    In lowest terms, n_{J,l1} / W_J is prefactor(J) (2l1+1) times
    sum_{lL,l} (2lL+1) lambda(lL,S-J) (2l+1) lambda(l,J)^2 (l1 lL l; 0 0 0)^2,
    summed in integers. With K = S-J,

        (2lL+1) lambda(lL,K) = (2lL+1) (-1)^lL C(2K+1,K-lL) / C(2K+1,K),
        (2l+1) lambda(l,J)^2 = (2l+1) C(2J+1,J-l)^2 / C(2J+1,J)^2,
        (l1 lL l; 0 0 0)^2 = ``_three_j_zero_square``(l1, lL, l, S) / (2S+1)!,

    so every entry of row J is one integer sum over one denominator, and l
    runs over the triangle |l1-lL|..l1+lL (capped at J) in steps of 2 only.
    """

    @lru_cache(maxsize=None)
    def square(l1: int, lL: int, l: int) -> int:  # shared by every row J
        return _three_j_zero_square(l1, lL, l, S)

    rows = []
    for J in range(S + 1):
        K = S - J
        numerator = factorial(2 * J + 1) * factorial(S) ** 2
        denominator = (
            factorial(S + J + 1) * factorial(K + 1) * factorial(J + 1) ** 2
            * math.comb(2 * K + 1, K) * math.comb(2 * J + 1, J) ** 2 * factorial(2 * S + 1)
        )
        outer = [(-1) ** lL * (2 * lL + 1) * math.comb(2 * K + 1, K - lL) for lL in range(K + 1)]
        inner = [(2 * l + 1) * math.comb(2 * J + 1, J - l) ** 2 for l in range(J + 1)]
        row = []
        for l1 in range(S + 1):
            total = 0
            for lL, a in enumerate(outer):
                total += a * sum(
                    inner[l] * square(l1, lL, l)
                    for l in range(abs(l1 - lL), min(l1 + lL, J) + 1, 2)
                )
            row.append((2 * l1 + 1) * numerator * total)
        rows.append(_lowest_terms(row, denominator))
    return tuple(rows)


def _sector_numerators(weights, S: int, lengths):
    """Yield ([N_J for J = 0..S], D) for each L of ``lengths``: Lambda(J) = N_J / D.

    With the rows (n_{J,l}, W_J) of ``weights(S)``, M = lcm_J W_J and
    a_l = (-1)^l C(2S+1,S-l), so that lambda(l,S) = a_l / C(2S+1,S),

        N_J = (M/W_J) sum_l n_{J,l} a_l^(L-1),   D = M C(2S+1,S)^(L-1),

    left unreduced. Going up by dL multiplies every power by its base to the
    dL; only the first length, and one below the length before it, take the
    powers from scratch.
    """
    rows = weights(S)
    common = math.lcm(*(w for _, w in rows))
    scaled = [(row, common // w) for row, w in rows]
    n = 2 * S + 1
    bases = [(-1) ** l * math.comb(n, S - l) for l in range(S + 1)]
    previous = math.inf  # the first length starts from scratch
    for L in lengths:
        _check_int("length", L, 1)
        if L < previous:
            powers = [b ** (L - 1) for b in bases]
        else:
            powers = list(map(mul, powers, [b ** (L - previous) for b in bases]))
        previous = L
        yield [m * sum(map(mul, row, powers)) for row, m in scaled], common * powers[0]


@lru_cache(maxsize=2)
def _sector_values(weights, S: int, L: int) -> tuple[Fraction, ...]:
    """Every Lambda(J) of one route at one (S, L), one gcd each.

    Callers ask for the sectors one J at a time, and ``sweep`` asks both
    routes at one (S, L) before it moves on, so two entries hold its traffic.
    """
    numerators, denominator = next(_sector_numerators(weights, S, (L,)))
    return tuple(Fraction(n, denominator) for n in numerators)


def eigenvalue_recurrence(S: int, L: int, J: int) -> Fraction:
    """Block eigenvalue Lambda(J) via the multipole recurrence route, exact.

    Lambda(J) = (1/(S+1)^2) sum_{l=0}^{S} (2l+1) lambda(l,S)^(L-1) I_l(x(J))
    with x(J) = J(J+1)/2 - (S/2)(S/2+1).
    """
    _check_int("bulk spin", S, 1)
    _check_int("length", L, 1)
    _check_int("edge-spin sector J", J, 0, S)
    return _sector_values(_recurrence_weights, S, L)[J]


def eigenvalue_closed(S: int, L: int, J: int) -> Fraction:
    """Block eigenvalue Lambda(J) via the closed triple-sum route, exact.

    Independent of ``eigenvalue_recurrence``: only squared 3j symbols at zero
    projections enter, so the whole sum stays rational.
    """
    _check_int("bulk spin", S, 1)
    _check_int("length", L, 1)
    _check_int("edge-spin sector J", J, 0, S)
    return _sector_values(_closed_weights, S, L)[J]


def vbs_norm(S: int, N: int) -> Fraction:
    """Norm-square of the raw full-chain VBS state, exact.

    The chain has N bulk spin-S sites plus one spin-S/2 site at each end
    (N+1 valence bonds); the norm-square is [(2S+1)!/(S+1)]^N * S!(S+1)!.
    """
    _check_int("bulk spin", S, 1)
    _check_int("bulk site count N", N, 0)
    return Fraction(factorial(2 * S + 1), S + 1) ** N * (factorial(S) * factorial(S + 1))


def degenerate_norm(S: int, L: int, J: int) -> Fraction:
    """Norm-square of the degenerate block VBS state for sector (J, M), exact.

    The value is independent of M. It rescales to the block eigenvalue:
    Lambda(J) = [(S+1)/(2S+1)!]^L * (S!S!/(S+1)) * degenerate_norm(S, L, J).
    """
    _check_int("bulk spin", S, 1)
    _check_int("length", L, 2)
    scale = Fraction(factorial(2 * S + 1), S + 1) ** L * Fraction(S + 1, factorial(S) ** 2)
    return eigenvalue_closed(S, L, J) * scale


def spin1_closed(L: int, J: int) -> Fraction:
    """Spin-1 eigenvalues in closed form, exact.

    Lambda(0) = (1 + 3(-1/3)^L)/4 and Lambda(1) = (1 - (-1/3)^L)/4 (the
    latter triply degenerate).
    """
    _check_int("length", L, 1)
    _check_int("spin-1 sector J", J, 0, 1)
    damping = Fraction(-1, 3) ** L
    if J == 0:
        return (1 + 3 * damping) / 4
    return (1 - damping) / 4


def flat_limit_bound(S: int, J: int) -> Fraction:
    """Constant K(S, J) of the large-L deviation bound, exact.

    |Lambda(J) - 1/(S+1)^2| <= K(S,J) * |lambda(1,S)|^(L-1) with
    K(S,J) = (1/(S+1)^2) sum_{l=1}^{S} (2l+1) |I_l(x(J))|.
    """
    _check_int("bulk spin", S, 1)
    _check_int("edge-spin sector J", J, 0, S)
    numerators, common = _recurrence_weights(S)[J]
    return Fraction(sum(abs(n) for n in numerators[1:]), common)


class BlockSpectrum(namedtuple("BlockSpectrum", "S L entries method")):
    """Eigenvalues of the block density matrix grouped by edge-spin sector.

    ``entries`` holds (J, eigenvalue, multiplicity) with multiplicity 2J+1
    and an exact Fraction eigenvalue; ``method`` names the exact route that
    produced the values.
    """

    __slots__ = ()

    def trace(self) -> Fraction:
        """Sum of all eigenvalues with multiplicity."""
        return sum(mult * value for _, value, mult in self.entries)


def block_spectrum(S: int, L: int, method: str = "recurrence") -> BlockSpectrum:
    """Full exact spectrum (all sectors J = 0..S) by the named exact route."""
    if method == "recurrence":
        evaluate = eigenvalue_recurrence
    elif method == "closed_form":
        evaluate = eigenvalue_closed
    else:
        raise ValueError(
            f"method must be one of {EXACT_METHODS} for exact spectra, got {method!r}"
        )
    entries = tuple((J, evaluate(S, L, J), 2 * J + 1) for J in range(S + 1))
    return BlockSpectrum(S=S, L=L, entries=entries, method=method)


def saturation_value(S: int) -> float:
    """Large-L entropy plateau 2 ln(S+1) in nats."""
    _check_int("bulk spin", S, 1)
    return 2.0 * math.log(S + 1)
