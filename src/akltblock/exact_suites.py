"""The exact verification suites and the one suite dispatcher, without numpy.

``suite_conjecture1`` and ``suite_flat_limit`` compare the formula routes
with each other and with their bounds in exact rationals; they need only
``spectrum``. ``run_suite`` runs any suite of the ``SUITES`` table: one
defined here directly, any other (the oracle suites) from ``verify``, which
is imported only then because it loads the numpy oracle. ``verify``
re-exports all three names, so ``verify conjecture1`` runs without numpy.
"""

from __future__ import annotations

from fractions import Fraction

from ._checks import SUITES, _Check
from .spectrum import block_spectrum, eigenvalue_recurrence, flat_limit_bound, lambda_coeff

__all__ = ["run_suite", "suite_conjecture1", "suite_flat_limit"]


def suite_conjecture1(max_spin: int = 5, max_length: int = 30) -> list[dict]:
    """Exact agreement of the two formula routes, plus the exact trace law.

    One recurrence spectrum per (S, L) cell feeds both checks; from L = 2 it
    is compared whole with the closed-form spectrum of the same cell.
    """
    checks = []
    trace = _Check("conjecture1", "trace_law")
    for S in range(1, max_spin + 1):
        routes = _Check("conjecture1", f"recurrence_equals_closed_spin{S}")
        for L in range(1, max_length + 1):
            spec = block_spectrum(S, L)
            total = spec.trace()
            trace.cell(total != 1, S=S, L=L, trace=str(total))
            if not routes.passed or L < 2:
                continue
            closed = block_spectrum(S, L, "closed_form")
            for (J, rec, _), (_, other, _) in zip(spec.entries, closed.entries):
                if not routes.cell(
                    rec != other, S=S, L=L, J=J, recurrence=str(rec), closed_form=str(other)
                ):
                    break
        checks.append(routes.record(f"exact equality over L=2..{max_length}, J=0..{S}"))
    checks.append(
        trace.record(f"sum_J (2J+1) Lambda(J) == 1 exactly, S<={max_spin}, L<={max_length}")
    )
    return checks


def suite_flat_limit(max_spin: int = 5, max_length: int = 40) -> list[dict]:
    """Exponential approach of Lambda(J) to the flat value 1/(S+1)^2.

    K(S,J) is computed once per (S, J) and the damping power |lambda(1,S)|^(L-1)
    is stepped by one multiply per L; only a failing cell formats its payload.
    """
    check = _Check("conjecture1", "flat_limit_bound")

    def cells():
        for S in range(1, max_spin + 1):
            flat = Fraction(1, (S + 1) ** 2)
            bounds = [flat_limit_bound(S, J) for J in range(S + 1)]
            damping = abs(lambda_coeff(1, S))
            power = Fraction(1)
            for L in range(2, max_length + 1):
                power *= damping
                for J, K in enumerate(bounds):
                    yield S, L, J, flat, K * power

    for S, L, J, flat, bound in cells():
        deviation = abs(eigenvalue_recurrence(S, L, J) - flat)
        if deviation > bound:
            check.cell(deviation, bound, S=S, L=L, J=J, deviation=str(deviation), bound=str(bound))
            break
        check.cell(deviation, bound)
    return [
        check.record(
            f"|Lambda(J) - 1/(S+1)^2| <= K(S,J) |lambda(1,S)|^(L-1), "
            f"S<={max_spin}, L<={max_length} (exact rational comparison)"
        )
    ]


def run_suite(name: str, **options) -> list[dict]:
    """Run one named suite, or all of them, passing each the options it takes."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    checks = []
    for suite in SUITES if name == "all" else (name,):
        for function, accepted in SUITES[suite]:
            kwargs = {key: options[key] for key in accepted if key in options}
            run = globals().get(function)
            if run is None:
                from . import verify

                run = getattr(verify, function)
            checks.extend(run(**kwargs))
    return checks
