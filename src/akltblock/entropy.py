"""Entanglement entropies of a block spectrum (natural logarithms).

von Neumann: -sum_J (2J+1) Lambda(J) ln Lambda(J), with 0 ln 0 := 0.
Renyi:       (1/(1-alpha)) ln sum_J (2J+1) Lambda(J)^alpha for finite
             alpha > 0, alpha = 1 dispatching to the von Neumann value.

Exact eigenvalues are converted to floats at the very last step
(round-to-nearest, relative error below 2^-52 per entry); both entropies
saturate at 2 ln(S+1) as the block grows. One float routine (``_entropy``)
serves two exact sources, and each checks non-negativity and a trace of
exactly 1 before any float is formed:

* ``von_neumann`` / ``renyi`` take a ``BlockSpectrum`` of Fractions and
  check it on every call;
* ``_length_weights(S, lengths)``, the path of the ``entropy`` command,
  builds no Fraction: one pass of ``spectrum._sector_numerators`` over the
  lengths gives Lambda(J) = N_J / D on the recurrence table, with unreduced
  integers N_J and one denominator D per L, checked in integers at every L.
  Int true division is correctly rounded, so each float has the bits of the
  reduced Fraction's float, without its gcd.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul

from .angular import _check_int
from .spectrum import BlockSpectrum, _recurrence_weights, _sector_numerators

__all__ = ["InvalidSpectrumError", "von_neumann", "renyi"]

Weights = tuple[tuple[float, int], ...]


class InvalidSpectrumError(ValueError):
    """The spectrum does not look like a density-matrix spectrum."""


def _weights(spec: BlockSpectrum) -> Weights:
    """Validate the spectrum and return (eigenvalue, multiplicity) floats.

    Every entry must be an exact Fraction and non-negative, and the entries
    must sum to exactly 1.
    """
    weights: list[tuple[float, int]] = []
    for _, value, mult in spec.entries:
        if not isinstance(value, Fraction):
            raise InvalidSpectrumError(f"eigenvalue {value!r} is not an exact Fraction")
        if value < 0:
            raise InvalidSpectrumError(f"negative exact eigenvalue {value}")
        weights.append((float(value), mult))
    trace = spec.trace()
    if trace != 1:
        raise InvalidSpectrumError(f"exact spectrum has trace {trace}, expected 1")
    return tuple(weights)


def _length_weights(S: int, lengths):
    """Yield the (Lambda(J), 2J+1) floats of each L of a sequence, checked in integers.

    Lambda(J) = N_J / D from ``_sector_numerators`` on the rows of
    ``_recurrence_weights(S)``, left unreduced. At every L each N_J must be
    non-negative and sum_J (2J+1) N_J must equal D, the trace exactly 1.
    """
    _check_int("bulk spin", S, 1)
    multiplicities = range(1, 2 * S + 2, 2)
    for L, (numerators, denominator) in zip(
        lengths, _sector_numerators(_recurrence_weights, S, lengths)
    ):
        for J, numerator in enumerate(numerators):
            if numerator < 0:
                raise InvalidSpectrumError(f"negative exact eigenvalue Lambda({J}) at S={S}, L={L}")
        if sum(map(mul, multiplicities, numerators)) != denominator:
            raise InvalidSpectrumError(f"exact spectrum at S={S}, L={L} has trace other than 1")
        yield tuple(
            (numerator / denominator, mult) for numerator, mult in zip(numerators, multiplicities)
        )


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
