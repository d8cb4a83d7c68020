"""Exact angular-momentum coupling coefficients.

Spins enter in the twice-integer convention: a (possibly half-integer)
angular momentum j is passed as the plain integer 2j, and a magnetization m
as 2m, so every quantum number stays exactly representable. Coefficients are
returned as :class:`SignedSqrtRational` values, i.e. ``sign * sqrt(square)``
with a rational ``square``, so the exact square is kept and the root is taken
only when a float is formed.
Phases follow the Condon-Shortley convention (the stretched-state coefficient
is +1 and lowering never introduces signs).

Every layer imports this module, so it also owns the package's policies:
``TOL``, the one table of float tolerances; ``_check_int``, the one
integer-range validator; and the size cap, ``DEFAULT_MAX_DIM`` with the
``ResourceCapError`` every layer raises past a cap.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "TOL",
    "DEFAULT_MAX_DIM",
    "ResourceCapError",
    "factorial",
    "SignedSqrtRational",
    "three_j_zero",
    "clebsch_gordan",
]


class Tolerances:
    """Float tolerances, one per meaning, as read-only constants.

    The exact eigenvalues are rationals, so each entry is a policy: how far a
    float oracle may stray from an exact value and still agree with it.
    """

    __slots__ = ()

    match = 1e-9  # oracle eigenvalue vs formula value, spectrum vs spectrum
    residual = 1e-9  # state norms, overlaps, eigen and quantum-number relations
    zero = 1e-10  # numerically zero: leftovers, rank, route differences
    roundoff = 1e-12  # Hermiticity, imaginary residue, projector algebra
    channel = 1e-13  # Pauli depolarizing-sum identity
    null_space = 1e-8  # eigenvalue cutoff of a projector-sum null space
    projector_gap = 1e-4  # ||rho_L - P/(S+1)^2||_2 bound at L = 10


TOL = Tolerances()

DEFAULT_MAX_DIM = 4096  # dense matrices


class ResourceCapError(RuntimeError):
    """A requested object exceeds the configured size caps."""


def _check_int(what: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) in low..high."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """Exact factorial of a non-negative integer (arbitrary precision)."""
    _check_int("factorial argument n", n, 0)
    return math.factorial(n)


def _tfact(twice: int) -> int:
    """Factorial of twice/2. ``twice`` must be an even non-negative integer."""
    if twice < 0 or twice % 2:
        raise ValueError(f"expected an even non-negative twice-value, got {twice}")
    return factorial(twice // 2)


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Square root of a non-negative rational if it is rational, else None."""
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class SignedSqrtRational(namedtuple("SignedSqrtRational", "sign square")):
    """Exact value ``sign * sqrt(square)`` with ``square`` a rational >= 0.

    A record, not a number: the coefficient routines read ``sign``,
    ``square`` and ``float()``. It has no arithmetic; the one exact sum this
    package forms, of Fock states on a shared radical, is done by
    ``oracle.fock.linear_combine`` on the rational amplitudes.
    """

    __slots__ = ()

    def __new__(cls, sign: int, square: Fraction | int) -> "SignedSqrtRational":
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        square = Fraction(square)
        if square < 0:
            raise ValueError("square must be non-negative")
        if (sign == 0) != (square == 0):
            raise ValueError("square == 0 exactly when sign == 0")
        return super().__new__(cls, sign, square)

    def __add__(self, other):
        return NotImplemented  # not the inherited tuple concatenation or repetition

    __mul__ = __rmul__ = __add__

    def __bool__(self) -> bool:
        return self.sign != 0

    def __float__(self) -> float:
        return _signed_root(self.sign, self.square)


def _signed_root(sign: Fraction | int, square: Fraction | int) -> float:
    """sqrt(square) with the sign of ``sign``; the exact square becomes a float once."""
    num, den = square.numerator, square.denominator
    try:
        root = math.sqrt(num / den)
    except OverflowError:
        # factorial ratios can exceed float range even when the root does not
        root = math.exp((math.log(num) - math.log(den)) / 2.0)
    return root if sign >= 0 else -root


_ZERO = SignedSqrtRational(0, 0)


def three_j_zero(l1: int, l2: int, l3: int) -> SignedSqrtRational:
    """Wigner 3j symbol (l1 l2 l3; 0 0 0) for integer orders, exact.

    Nonzero only when l1+l2+l3 = 2g is even and the triangle inequality
    holds; in that case the value is

        (-1)^g * sqrt[(2g-2l1)!(2g-2l2)!(2g-2l3)!/(2g+1)!]
               * g!/((g-l1)!(g-l2)!(g-l3)!).

    Any invalid triple (including negative orders) yields exact zero.
    """
    total = l1 + l2 + l3
    if total % 2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return _ZERO
    g = total // 2
    under_root = Fraction(
        factorial(2 * g - 2 * l1) * factorial(2 * g - 2 * l2) * factorial(2 * g - 2 * l3),
        factorial(2 * g + 1),
    )
    rational = Fraction(
        factorial(g), factorial(g - l1) * factorial(g - l2) * factorial(g - l3)
    )
    return SignedSqrtRational(-1 if g % 2 else 1, under_root * rational * rational)


def _three_j_zero_square(l1: int, l2: int, l3: int, n: int) -> int:
    """(2n+1)! (l1 l2 l3; 0 0 0)^2 as an integer, from factorials only.

    With l1+l2+l3 = 2g the value is

        (2g-2l1)!(2g-2l2)!(2g-2l3)! * (2n+1)!/(2g+1)!
            * [g!/((g-l1)!(g-l2)!(g-l3)!)]^2,

    an integer whenever g <= n (the bracket is a multinomial coefficient);
    ``ValueError`` for g > n. Off the triangle, at odd l1+l2+l3 or at a
    negative order (which the triangle test excludes) the symbol is zero.
    ``three_j_zero`` is the reference.
    """
    total = l1 + l2 + l3
    if total % 2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0
    g = total // 2
    if g > n:
        raise ValueError(f"(2n+1)! (l1 l2 l3; 0 0 0)^2 needs (l1+l2+l3)/2 <= n, got {g} > {n}")
    multinomial = factorial(g) // (factorial(g - l1) * factorial(g - l2) * factorial(g - l3))
    return (
        factorial(2 * g - 2 * l1)
        * factorial(2 * g - 2 * l2)
        * factorial(2 * g - 2 * l3)
        * (factorial(2 * n + 1) // factorial(2 * g + 1))
        * multinomial
        * multinomial
    )


def _check_jm(tj: int, tm: int, name: str) -> None:
    _check_int(f"twice-spin {name}", tj, 0)
    if (tj + tm) % 2:
        raise ValueError(
            f"parity mismatch for {name}: twice-spin {tj} and twice-magnetization {tm}"
        )
    if abs(tm) > tj:
        raise ValueError(f"|m| exceeds j for {name}: 2m={tm}, 2j={tj}")


def _triangle_ok(tj1: int, tj2: int, tj3: int) -> bool:
    return abs(tj1 - tj2) <= tj3 <= tj1 + tj2 and (tj1 + tj2 + tj3) % 2 == 0


def _racah_sum(tj1: int, tm1: int, tj2: int, tm2: int, tj: int) -> Fraction:
    """Alternating k-sum of the van der Waerden closed form, exact.

    The full Clebsch-Gordan coefficient is this rational sum times the square
    root of ``_coupling_prefactor_square * (j1-m1)!(j1+m1)!(j2-m2)!(j2+m2)!``.
    """
    kmin = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    kmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        tk = 2 * k
        den = (
            factorial(k)
            * _tfact(tj1 + tj2 - tj - tk)
            * _tfact(tj1 - tm1 - tk)
            * _tfact(tj2 + tm2 - tk)
            * _tfact(tj - tj2 + tm1 + tk)
            * _tfact(tj - tj1 - tm2 + tk)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    return total


def _coupling_prefactor_square(tj1: int, tj2: int, tj: int, tm: int) -> Fraction:
    """(2J+1) * Delta(j1 j2 J) * (J+M)!(J-M)!, exact.

    This is the part of the squared Clebsch-Gordan coefficient that does not
    depend on m1, m2 — the common radical of a fixed (J, M) coupling family.
    """
    delta = Fraction(
        _tfact(tj1 + tj2 - tj) * _tfact(tj1 - tj2 + tj) * _tfact(-tj1 + tj2 + tj),
        _tfact(tj1 + tj2 + tj + 2),
    )
    return (tj + 1) * delta * _tfact(tj + tm) * _tfact(tj - tm)


def clebsch_gordan(
    tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int
) -> SignedSqrtRational:
    """Clebsch-Gordan coefficient (J,M | j1,m1; j2,m2), exact.

    All six arguments are twice-values. Returns exact zero when M != m1+m2
    or when (j1, j2, J) violates the triangle rule; raises ValueError on
    parity mismatches, |m| > j, or negative twice-spins.
    """
    _check_jm(tj1, tm1, "j1")
    _check_jm(tj2, tm2, "j2")
    _check_jm(tj, tm, "J")
    if tm1 + tm2 != tm or not _triangle_ok(tj1, tj2, tj):
        return _ZERO
    racah = _racah_sum(tj1, tm1, tj2, tm2, tj)
    if racah == 0:
        return _ZERO
    mfacts = (
        _tfact(tj1 - tm1) * _tfact(tj1 + tm1) * _tfact(tj2 - tm2) * _tfact(tj2 + tm2)
    )
    square = racah * racah * _coupling_prefactor_square(tj1, tj2, tj, tm) * mfacts
    return SignedSqrtRational(1 if racah > 0 else -1, square)

