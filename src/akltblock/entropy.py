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
  integers, which makes the trace exactly 1 at every L. It then holds the
  weights and the damping powers of ``spectrum._power_steps`` as
  fixed-point integers over 2^_PRECISION with a proven error bound per
  sector (Ziv's rounding test, ACM TOMS 17(3), 410, 1991): when both ends
  of the error interval round to one float, that float is the correctly
  rounded Lambda(J) and Lambda(J) > 0. A length with any sector left
  uncertified, such as the exact zeros at L = 1, yields
  ``_weights(block_spectrum(S, L))``, so on either path each float has the
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
# ``_length_weights``. A sector certifies when Lambda(J) is well above
# 2^(53 - _PRECISION); the smallest Lambda(J), at L = 2, is about 2^(-1.3 S).
# Every L = 2..300 certifies at S = 30, 60 and 100; at S = 200 only L = 2
# and 3 take the exact path, where it is cheap.
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


def _length_weights(S: int, lengths):
    """Yield the (Lambda(J), 2J+1) floats of each L of a sequence, each one certified.

    A table (T, M) off the trace law raises before the first length. Every
    weight T_{J,l}/M and every power lambda(l,S)^(L-1) is held as a
    floor-rounded integer over 2^_PRECISION, and the powers are stepped
    from one length to the next with one floor division each. Each step
    adds at most one unit to a power's error, so over ``steps`` divisions
    since the last start from scratch the dot product v_J is within
    E_J = (steps A_J + S + 2) 2^_PRECISION of Lambda(J) 2^(2 _PRECISION),
    A_J = ceil(sum_l |T_{J,l}| / M). When v_J - E_J > 0 and
    float(v_J - E_J) == float(v_J + E_J), Lambda(J) > 0 and that float times
    2^(-2 _PRECISION) is the correctly rounded N_J / D: int-to-float
    conversion is correctly rounded, and scaling by a power of two far
    above the subnormals is exact. A length with any sector left
    uncertified yields ``_weights(block_spectrum(S, L))``.
    """
    _check_int("bulk spin", S, 1)
    table = _recurrence_weights(S)
    if not _obeys_trace_law(table):
        raise InvalidSpectrumError(f"recurrence weight table at S={S} breaks the trace law")
    rows, common = table
    precision = _PRECISION
    scale, slack = 2.0 ** (-2 * precision), (S + 2) << precision
    fixed = [
        ([(t << precision) // common for t in row], -(-sum(map(abs, row)) // common) << precision, mult)
        for row, mult in zip(rows, range(1, 2 * S + 2, 2))
    ]
    for L, (fresh, factors) in zip(lengths, _power_steps(S, lengths)):
        divisor = factors[0]
        if fresh:
            steps, powers = 1, [(f << precision) // divisor for f in factors]
        else:
            steps, powers = steps + 1, [p * f // divisor for p, f in zip(powers, factors)]
        weights = []
        for row, bound, mult in fixed:
            value = sum(map(mul, row, powers))
            error = steps * bound + slack
            if value <= error:
                break
            low = float(value - error)
            if low != float(value + error):
                break
            weights.append((low * scale, mult))
        else:
            yield tuple(weights)
            continue
        yield _weights(block_spectrum(S, L))


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
