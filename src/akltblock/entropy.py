"""Entanglement entropies of a block spectrum (natural logarithms).

von Neumann: -sum_J (2J+1) Lambda(J) ln Lambda(J), with 0 ln 0 := 0.
Renyi:       (1/(1-alpha)) ln sum_J (2J+1) Lambda(J)^alpha for finite
             alpha > 0, alpha = 1 dispatching to the von Neumann value.

Exact eigenvalues are converted to floats at the very last step
(round-to-nearest, relative error below 2^-52 per entry); both entropies
saturate at 2 ln(S+1) as the block grows. One float routine (``_entropy``)
serves two exact sources, and both reach floats through one validator,
``_weights``, or through a certificate that implies what it checks:

* ``von_neumann`` / ``renyi`` take a ``BlockSpectrum`` of Fractions, and
  ``_weights`` checks that every entry is non-negative and the trace is
  exactly 1 before it rounds each entry;
* ``_length_weights(S, lengths)``, the path of the ``entropy`` command,
  builds no Fraction on a certified length. It refuses a table (T, M) off
  the trace law sum_J (2J+1) T_{J,l} == M delta_{l,0}, checked once in
  integers, which makes the trace exactly 1 at every L. Past a threshold
  L0 the flat-limit bound decides every float at once (the flat tail);
  below it, fixed-point weights and powers raised by square-and-multiply
  do. Either way each sector gets a proven error bound (Ziv's rounding
  test, ACM TOMS 17(3), 410, 1991): when both ends of the error interval
  round to one float, that float is the correctly rounded Lambda(J) and
  Lambda(J) > 0. A length with any sector left uncertified, such as the
  exact zeros at L = 1, takes the exact fallback
  ``_weights(block_spectrum(S, L))``, so on every path each float has the
  bits of the exact Fraction's float.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul

from .angular import _check_int
from .spectrum import (
    BlockSpectrum,
    InvalidSpectrumError,
    _power_steps,
    _recurrence_weights,
    block_spectrum,
)

__all__ = ["InvalidSpectrumError", "von_neumann", "renyi"]

Weights = tuple[tuple[float, int], ...]

# Bits after the binary point of the fixed-point weights and powers of
# ``_length_weights``, at most. A sector certifies when Lambda(J) is well above
# 2^(53 - precision); the smallest Lambda(J), at L = 2, is about 2^(-1.3 S), so
# spin S takes 96 + 4S/3 bits (about 40 to spare) up to this cap, and shorter
# products are cheaper. Every L = 2..300 certifies at S = 30, 60 and 100; at
# S = 200 only L = 2 and 3 take the exact path, where it is cheap.
_PRECISION = 256


def _weights(spec: BlockSpectrum) -> Weights:
    """Validate the spectrum and return (eigenvalue, multiplicity) floats.

    Every entry must be an exact Fraction and non-negative, and the entries
    must sum to exactly 1. Each float is the correctly rounded Fraction.
    """
    weights: list[tuple[float, int]] = []
    for J, value, mult in spec.entries:
        if not isinstance(value, Fraction):
            raise InvalidSpectrumError(f"eigenvalue {value!r} is not an exact Fraction")
        if value < 0:
            raise InvalidSpectrumError(
                f"negative exact eigenvalue {value} of Lambda({J}) at S={spec.S}, L={spec.L}"
            )
        weights.append((float(value), mult))
    trace = spec.trace()
    if trace != 1:
        raise InvalidSpectrumError(
            f"exact spectrum has trace {trace}, expected 1, at S={spec.S}, L={spec.L}"
        )
    return tuple(weights)


def _obeys_trace_law(table) -> bool:
    """Whether sum_J (2J+1) T_{J,l} == M delta_{l,0} for every l of the table (T, M).

    Then sum_J (2J+1) N_J = a_0^(L-1) M = D at every L: the trace of every
    length is exactly 1.
    """
    rows, common = table
    totals = [sum(map(mul, range(1, 2 * len(rows), 2), column)) for column in zip(*rows)]
    return totals[0] == common and not any(totals[1:])


def _fixed_power(ratio: int, k: int, precision: int) -> int:
    """(ratio / 2^precision)^k as a floor over 2^precision, by square-and-multiply.

    A floored product of floors x = X - e1, y = Y - e2 of X, Y <= 2^precision
    is off by less than e1 + e2 + 1 units, so the power is off by less than 2k.
    """
    power = 1 << precision
    for bit in bin(k)[2:]:
        power = power * power >> precision
        if bit == "1":
            power = power * ratio >> precision
    return power


def _flat_tail(S: int, precision: int, certify, start: int):
    """(L0, weights): every L >= L0 rounds to ``weights``; (inf, None) if no L does.

    For l >= 1, |lambda(l,S)| <= S/(S+2), so against the powers
    (2^P, 0, ..., 0), P = ``precision``, every power of L is off by at most
    R >= 2^P (S/(S+2))^(L-1) units: ``certify(R)`` tests the flat-limit
    interval K_J R around the table's own limit T_{J,0}/M. R shrinks with L,
    so a pass holds at every longer L with the same floats. If the least R,
    1, fails, every L fails; else the search steps up from ``start``, a
    lower bound of L0.
    """
    if certify(1) is None:
        return math.inf, None
    L, R = start, -(-(S ** (start - 1) << precision) // (S + 2) ** (start - 1))
    while (weights := certify(R)) is None:
        L, R = L + 1, -(-R * S // (S + 2))
    return L, weights


def _length_weights(S: int, lengths):
    """Yield the (Lambda(J), 2J+1) floats of each L of a sequence, each one certified.

    A table (T, M) off the trace law raises before the first length. The
    weights T_{J,l}/M, signed for the parity of L - 1, and the powers
    |lambda(l,S)|^(L-1) are floors over 2^P, P = ``precision``. From the
    threshold L0 of ``_flat_tail`` on, searched only once a length reaches
    a necessary bound of it, every length yields one shared tuple. Below
    it, on the schedule of ``_power_steps``, a fresh start or a step of k
    multiplies the powers by ``_fixed_power`` factors, adding under 3k units
    of error to each power but the exact 2^P of l = 0. So after ``error``
    units, while error S <= 2^P, the dot product v_J is within
    E_J = (error K_J + S + 2) 2^P of Lambda(J) 2^(2P), with
    K_J = sum_{l>=1} |T_{J,l}| / M. When v_J - E_J > 0 and
    float(v_J - E_J) == float(v_J + E_J), Lambda(J) > 0 and that float times
    2^(-2P) is the correctly rounded N_J / D: int-to-float conversion rounds
    correctly, and scaling by a power of two far above the subnormals is
    exact. A length with any sector left uncertified yields
    ``_weights(block_spectrum(S, L))``.
    """
    _check_int("bulk spin", S, 1)
    table = _recurrence_weights(S)
    if not _obeys_trace_law(table):
        raise InvalidSpectrumError(f"recurrence weight table at S={S} breaks the trace law")
    rows, common = table
    precision = min(_PRECISION, 96 + 4 * S // 3)
    scale, slack = 2.0 ** (-2 * precision), (S + 2) << precision
    # K_J 2^P, K_J = sum_{l>=1} |T_{J,l}| / M: the power of l = 0 is exactly 2^P
    bounds = [-(-(sum(map(abs, row[1:])) << precision) // common) for row in rows]
    # by the parity of L - 1: the weights with the signs of lambda(l,S)^(L-1)
    even = [[(t << precision) // common for t in row] for row in rows]
    fixed = even, [[-w if l % 2 else w for l, w in enumerate(row)] for row in even]
    top = math.comb(2 * S + 1, S)
    ratios = [(math.comb(2 * S + 1, S - l) << precision) // top for l in range(S + 1)]
    flat = [1 << precision]  # the limit L -> inf: every power of l >= 1 is 0

    def certify(error, signed=even, powers=flat):
        """Every sector's float if Ziv's test passes it at this power error, else None."""
        weights = []
        for row, bound, mult in zip(signed, bounds, range(1, 2 * S + 2, 2)):
            value = sum(map(mul, row, powers))
            error_J = error * bound + slack
            if value <= error_J:
                return None
            low = float(value - error_J)
            if low != float(value + error_J):
                return None
            weights.append((low * scale, mult))
        return tuple(weights)

    # A float's rounding interval is at most 2^-52 of it wide, and K_0 >= T_{0,0}/M
    # as Lambda(0) = 0 at L = 1, so L0 >= 1 + 53 / log2((S+2)/S).
    threshold, tail = math.floor(1 + 53 / math.log2((S + 2) / S)), None
    for L, fresh, k in _power_steps(lengths):
        if L >= threshold:
            if tail is None:
                threshold, tail = _flat_tail(S, precision, certify, threshold)
            if L >= threshold:
                yield tail  # a length below L0 after it is shorter, so it starts afresh
                continue
        if fresh:
            powers, error = [1 << precision] * (S + 1), 0
        factors = ratios if k == 1 else [_fixed_power(r, k, precision) for r in ratios]
        powers = [p * f >> precision for p, f in zip(powers, factors)]
        error += 3 * k
        weights = certify(error, fixed[(L - 1) % 2], powers)
        yield _weights(block_spectrum(S, L)) if weights is None else weights


def _entropy(weights: Weights, alpha: float) -> float:
    """Renyi entropy of order alpha (von Neumann at alpha = 1) of checked weights."""
    if alpha == 1:
        total = 0.0
        for value, mult in weights:
            if value > 0.0:
                total -= mult * value * math.log(value)
        return total
    positive = [(value, mult) for value, mult in weights if value > 0.0]
    power_sum = 0.0
    for value, mult in positive:
        power_sum += mult * value**alpha
    if power_sum >= sys.float_info.min:
        return math.log(power_sum) / (1.0 - alpha)
    # Every power underflows at large alpha: factor out the largest eigenvalue.
    top = max(value for value, _ in positive)
    scaled_sum = 0.0
    for value, mult in positive:
        scaled_sum += mult * (value / top) ** alpha
    return (alpha * math.log(top) + math.log(scaled_sum)) / (1.0 - alpha)


def von_neumann(spec: BlockSpectrum) -> float:
    """von Neumann entropy in nats."""
    return _entropy(_weights(spec), 1.0)


def renyi(spec: BlockSpectrum, alpha: float) -> float:
    """Renyi entropy of order alpha in nats (alpha = 1 gives von Neumann)."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"Renyi order must be positive and finite, got {alpha!r}")
    return _entropy(_weights(spec), alpha)
