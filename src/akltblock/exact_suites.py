"""The numpy-free verification layer: check records, suites table, exact suites.

``_Check`` builds every check record, the CLI's included, and ``_exact_text``
writes every exact value. ``suite_conjecture1`` compares the two weight
tables once per S; it and ``suite_flat_limit`` decide each per-L cell in
integers, on the unreduced N_J / D of ``spectrum._sector_numerators``, and
format Fractions only for a counterexample. ``run_suite`` runs any suite of the
``SUITES`` table: one defined here, any other from ``verify``, imported only
then because it loads the numpy oracle. The CLI imports ``run_suite`` and
``SUITES`` from here, so ``verify conjecture1`` runs without numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from operator import mul

from .spectrum import _closed_weights, _recurrence_weights, _sector_numerators
from .spectrum import flat_limit_bound, lambda_coeff

__all__ = ["SUITES", "run_suite", "suite_conjecture1", "suite_flat_limit"]


class _Check:
    """One check record, fed one cell at a time.

    ``cell(deviation, tol, **where)`` fails the cell unless ``deviation <= tol``;
    the ``where`` of the first failing cell becomes the counterexample. A
    numeric deviation also feeds ``worst``, the running maximum; a NaN
    deviation makes ``worst`` NaN for good. A pass/fail cell feeds ``not ok``
    against the default tolerance 0 and leaves ``worst`` alone.
    ``deviation`` and ``tol`` are positional-only because cells may carry a
    ``deviation`` key of their own.
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
        if not (isinstance(deviation, bool) or deviation <= self.worst or math.isnan(self.worst)):
            self.worst = deviation
        failed = not deviation <= tol  # a NaN deviation fails
        if failed and self.counterexample is None:
            self.counterexample = where
        return not failed

    def record(self, detail: str) -> dict:
        """The check record; a failing cell with no coordinates adds no counterexample."""
        record = {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": detail}
        if self.counterexample:
            record["counterexample"] = self.counterexample
        return record


def _exact_text(value: Fraction) -> str:
    """Exact "p/q" of a Fraction, with the int-to-str digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


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

    One kernel evaluates both routes' weight tables (T, M) and (T', M'), so
    they agree at every L when T_{J,l} M' == T'_{J,l} M for every J, l. Per
    S, the recurrence kernel walks its lengths once for the trace law
    sum_J (2J+1) N_J == D, until the law first fails.
    """
    checks = []
    trace = _Check("conjecture1", "trace_law")
    for S in range(1, max_spin + 1):
        routes = _Check("conjecture1", f"recurrence_equals_closed_spin{S}")
        (rows, common), (others, other) = _recurrence_weights(S), _closed_weights(S)
        for J, l in itertools.product(range(S + 1), repeat=2):
            if rows[J][l] * other != others[J][l] * common:
                routes.cell(True, S=S, J=J, l=l,
                            recurrence=_exact_text(Fraction(rows[J][l], common)),
                            closed_form=_exact_text(Fraction(others[J][l], other)))
                break
        checks.append(routes.record(f"exact equality over L=2..{max_length}, J=0..{S}"))
        if not trace.passed:  # no later cell can change a failed trace law
            continue
        kernel = _sector_numerators(_recurrence_weights, S, range(1, max_length + 1))
        for L, (numerators, D) in enumerate(kernel, 1):
            total = sum(map(mul, range(1, 2 * S + 2, 2), numerators))
            if total != D:
                trace.cell(True, S=S, L=L, trace=_exact_text(Fraction(total, D)))
                break
    checks.append(
        trace.record(f"sum_J (2J+1) Lambda(J) == 1 exactly, S<={max_spin}, L<={max_length}")
    )
    return checks


def suite_flat_limit(max_spin: int = 5, max_length: int = 40) -> list[dict]:
    """Exponential approach of Lambda(J) = N_J / D to the flat value 1/n, n = (S+1)^2.

    With K(S,J) = k / w and |lambda(1,S)|^(L-1) = p / q, stepped per L, a
    cell passes when |n N_J - D| / (n D) <= k p / (w q), cross-multiplied.
    The walk stops at the first failing cell.
    """
    check = _Check("conjecture1", "flat_limit_bound")
    detail = (
        f"|Lambda(J) - 1/(S+1)^2| <= K(S,J) |lambda(1,S)|^(L-1), "
        f"S<={max_spin}, L<={max_length} (exact rational comparison)"
    )
    for S in range(1, max_spin + 1):
        n, p, q = (S + 1) ** 2, 1, 1
        dp, dq = abs(lambda_coeff(1, S)).as_integer_ratio()
        bounds = [flat_limit_bound(S, J).as_integer_ratio() for J in range(S + 1)]
        kernel = _sector_numerators(_recurrence_weights, S, range(2, max_length + 1))
        for L, (numerators, D) in enumerate(kernel, 2):
            p, q = p * dp, q * dq
            for J, (N, (k, w)) in enumerate(zip(numerators, bounds)):
                if abs(n * N - D) * w * q > k * p * n * D:
                    deviation, bound = Fraction(abs(n * N - D), n * D), Fraction(k * p, w * q)
                    check.cell(True, S=S, L=L, J=J, deviation=_exact_text(deviation),
                               bound=_exact_text(bound))
                    return [check.record(detail)]
    return [check.record(detail)]


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
