"""The numpy-free verification layer: check records, suites table, exact suites.

``_Check`` builds every check record, the CLI's agreement records included.
``suite_conjecture1`` and ``suite_flat_limit`` compare the formula routes
with each other and with their bounds in exact rationals; they need only
``spectrum``. ``run_suite`` runs any suite of the ``SUITES`` table: one
defined here directly, any other (the oracle suites) from ``verify``, which
is imported only then because it loads the numpy oracle. ``verify``
re-exports all of these, so ``verify conjecture1`` runs without numpy.
"""

from __future__ import annotations

from fractions import Fraction

from .spectrum import block_spectrum, eigenvalue_recurrence, flat_limit_bound, lambda_coeff

__all__ = ["SUITES", "run_suite", "suite_conjecture1", "suite_flat_limit"]


class _Check:
    """One check record, fed one cell at a time.

    ``cell(deviation, tol, **where)`` fails the cell when ``deviation > tol``;
    the ``where`` of the first failing cell becomes the counterexample. A
    numeric deviation (float or exact Fraction) also feeds ``worst``, the
    running maximum. A pass/fail cell feeds ``not ok`` against the default
    tolerance 0 and leaves ``worst`` alone. ``deviation`` and ``tol`` are
    positional-only because cells may carry a ``deviation`` key of their own.
    """

    def __init__(self, suite: str, name: str) -> None:
        self.suite = suite
        self.name = name
        self.worst = 0.0
        self.counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def cell(self, deviation, tol=0, /, **where) -> bool:
        """Feed one cell; returns whether it is within its tolerance."""
        if not isinstance(deviation, bool):
            self.worst = max(self.worst, deviation)
        failed = deviation > tol
        if failed and self.counterexample is None:
            self.counterexample = where
        return not failed

    def record(self, detail: str) -> dict:
        """The check record; a failing cell with no coordinates adds no counterexample."""
        record = {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": detail}
        if self.counterexample:
            record["counterexample"] = self.counterexample
        return record


# Suite name -> (suite function name, options it takes), run in order.
# ``run_suite`` looks each function up by name at call time: in this module,
# else in ``verify`` (imported only then). Their defaults live only in their
# signatures; ``all`` runs every suite with the same options.
SUITES = {
    "conjecture1": (
        ("suite_conjecture1", ("max_spin", "max_length")),
        ("suite_flat_limit", ("max_spin",)),
    ),
    "oracle": (("suite_oracle", ("spin", "max_length", "max_dim")),),
    "hamiltonian": (("suite_hamiltonian", ("spin", "lengths", "max_dim")),),
    "appendix": (("suite_appendix", ("max_spin",)),),
}


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
