"""Entanglement entropies of a block spectrum (natural logarithms).

von Neumann: -sum_J (2J+1) Lambda(J) ln Lambda(J), with 0 ln 0 := 0.
Renyi:       (1/(1-alpha)) ln sum_J (2J+1) Lambda(J)^alpha for finite
             alpha > 0, alpha = 1 dispatching to the von Neumann value.

Exact rational eigenvalues are converted to floats at the very last step
(round-to-nearest, relative error below 2^-52 per entry); both entropies
saturate at 2 ln(S+1) as the block grows.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .spectrum import BlockSpectrum

__all__ = ["InvalidSpectrumError", "von_neumann", "renyi"]


class InvalidSpectrumError(ValueError):
    """The spectrum does not look like a density-matrix spectrum."""


# The last spectrum _weights validated and its weights. BlockSpectrum is
# frozen and this reference keeps its identity from being reused, so several
# entropies of one spectrum (one per Renyi order) validate it once. It is
# keyed by identity on purpose: an lru_cache keyed by the spectrum hashes
# every Fraction, one modular inverse of each ~4000-bit denominator at
# S = 11, L = 200, and ran `entropy --spin 11 --length 8..207` slower.
_validated: tuple[BlockSpectrum | None, tuple[tuple[float, int], ...]] = (None, ())


def _weights(spec: BlockSpectrum) -> tuple[tuple[float, int], ...]:
    """Validate the spectrum and return (eigenvalue, multiplicity) floats.

    Every entry must be an exact Fraction and non-negative, and the entries
    must sum to exactly 1.
    """
    global _validated
    if _validated[0] is spec:
        return _validated[1]
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
    _validated = (spec, tuple(weights))
    return _validated[1]


def von_neumann(spec: BlockSpectrum) -> float:
    """von Neumann entropy in nats."""
    total = 0.0
    for value, mult in _weights(spec):
        if value > 0.0:
            total -= mult * value * math.log(value)
    return total


def renyi(spec: BlockSpectrum, alpha: float) -> float:
    """Renyi entropy of order alpha in nats (alpha = 1 gives von Neumann)."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"Renyi order must be positive and finite, got {alpha!r}")
    if alpha == 1:
        return von_neumann(spec)
    weights = [(value, mult) for value, mult in _weights(spec) if value > 0.0]
    power_sum = 0.0
    for value, mult in weights:
        power_sum += mult * value**alpha
    if power_sum >= sys.float_info.min:
        return math.log(power_sum) / (1.0 - alpha)
    # Every power underflows at large alpha: factor out the largest eigenvalue.
    top = max(value for value, _ in weights)
    scaled_sum = 0.0
    for value, mult in weights:
        scaled_sum += mult * (value / top) ** alpha
    return (alpha * math.log(top) + math.log(scaled_sum)) / (1.0 - alpha)
