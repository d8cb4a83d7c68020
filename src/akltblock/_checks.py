"""The check-record accumulator and the suite table.

:mod:`akltblock.exact_suites`, :mod:`akltblock.verify` and the CLI read
them. They live here, apart from ``verify`` (which imports the numpy oracle
at load), so the CLI's exact commands build their agreement records, list
the suites and run the exact suites without loading numpy.
"""

from __future__ import annotations


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
# ``exact_suites.run_suite`` looks each function up by name at call time: in
# ``exact_suites`` itself, else in ``verify`` (imported only then). Their
# defaults live only in their signatures; ``all`` runs every suite with the
# same options.
SUITES = {
    "conjecture1": (
        ("suite_conjecture1", ("max_spin", "max_length")),
        ("suite_flat_limit", ("max_spin",)),
    ),
    "oracle": (("suite_oracle", ("spin", "max_length", "max_dim")),),
    "hamiltonian": (("suite_hamiltonian", ("spin", "lengths", "max_dim")),),
    "appendix": (("suite_appendix", ("max_spin",)),),
}
