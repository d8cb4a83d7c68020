"""Span tracer for the traced benchmark run.

Spans are taken from the benchmark's own files: :func:`instrument` rebinds
every attribute of every loaded ``akltblock`` module that refers to a
traced function -- including names brought in by ``from ... import`` such
as ``cli.block_spectrum`` -- and replaces traced methods on their class, so
calls made through any of those names enter a span. Hot leaves
(``factorial``, ``lambda_coeff``, ``Fraction`` arithmetic) are deliberately
not traced; their cost lands in the self time of the traced caller.

Spans are aggregated as they close, not stored: a span's self time is its
duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path). Span names use the layer, not the
# submodule: oracle.fock.degenerate_states is "oracle.degenerate_states".
TARGETS = (
    ("angular.three_j_zero", "akltblock.angular", "three_j_zero"),
    ("angular.clebsch_gordan", "akltblock.angular", "clebsch_gordan"),
    ("spectrum.i_polynomial", "akltblock.spectrum", "i_polynomial"),
    ("spectrum.eigenvalue_recurrence", "akltblock.spectrum", "eigenvalue_recurrence"),
    ("spectrum.eigenvalue_closed", "akltblock.spectrum", "eigenvalue_closed"),
    ("spectrum.block_spectrum", "akltblock.spectrum", "block_spectrum"),
    ("entropy.von_neumann", "akltblock.entropy", "von_neumann"),
    ("entropy.renyi", "akltblock.entropy", "renyi"),
    ("oracle.build_full_vbs", "akltblock.oracle.fock", "build_full_vbs"),
    ("oracle.degenerate_states", "akltblock.oracle.fock", "degenerate_states"),
    ("oracle.StateVector.to_dense", "akltblock.oracle.fock", "StateVector.to_dense"),
    ("oracle.reduced_density_matrix", "akltblock.oracle.fock", "reduced_density_matrix"),
    ("oracle.fock_block_spectrum", "akltblock.oracle.fock", "fock_block_spectrum"),
    ("oracle.eigenspectrum", "akltblock.oracle.dense", "eigenspectrum"),
    ("oracle.pauli_density_matrix_spin1", "akltblock.oracle.pauli", "pauli_density_matrix_spin1"),
    ("oracle.block_hamiltonian", "akltblock.oracle.hamiltonians", "block_hamiltonian"),
    ("oracle.unique_hamiltonian", "akltblock.oracle.hamiltonians", "unique_hamiltonian"),
    ("oracle.null_space", "akltblock.oracle.hamiltonians", "null_space"),
    ("verify.match_spectrum", "akltblock.verify", "match_spectrum"),
    ("verify.suite_conjecture1", "akltblock.verify", "suite_conjecture1"),
    ("verify.suite_flat_limit", "akltblock.verify", "suite_flat_limit"),
    ("verify.suite_oracle", "akltblock.verify", "suite_oracle"),
    ("verify.suite_hamiltonian", "akltblock.verify", "suite_hamiltonian"),
    ("verify.suite_appendix", "akltblock.verify", "suite_appendix"),
    ("cli.main", "akltblock.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """Aggregates nested spans into per-name calls, self time and total time.

    ``total_s`` counts a span only when no span of the same name is open
    around it, so recursion does not count time twice.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._open: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        self._open[name] -= 1
        if not self._open[name]:
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def snapshot(self) -> dict:
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s.get(name, 0.0)}
            for name in self.calls
        }


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def instrument(tracer: Tracer) -> list[str]:
    """Rebind every reference to each target; return the rebound sites."""
    # Load every module first: a module imported after a target was rebound
    # would still hold the original.
    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)
    sites = []
    for name, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            sites.append(f"{owner.__module__}.{path}")
            continue
        for module in list(sys.modules.values()):
            module_name_seen = getattr(module, "__name__", "")
            if module_name_seen != "akltblock" and not module_name_seen.startswith("akltblock."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites.append(f"{module_name_seen}.{key}")
    return sites
