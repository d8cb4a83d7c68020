"""Workload plans: the CLI invocations one benchmark pass makes.

A plan is a function of (workload, seed) only. The seed picks inputs from
each workload's fixed ranges -- window offsets, Renyi orders, method
order, output formats, run order -- while the spins, window widths and
suite sizes that set the cost of a pass stay fixed, so total work stays
comparable across seeds. Every plan has an odd number of invocations so
the median invocation time of a pass is one invocation, not the average
of two unlike ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    """One `python -m akltblock` run and what its output must contain."""

    args: tuple[str, ...]
    command: str
    spin: int = 0
    lengths: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()
    output_format: str = "json"

    @property
    def key(self) -> str:
        """Stable identifier, used to look up recorded result hashes."""
        return " ".join(self.args)


def _window(low: int, count: int) -> tuple[int, ...]:
    return tuple(range(low, low + count))


def _range_arg(lengths: tuple[int, ...]) -> str:
    return f"{lengths[0]}..{lengths[-1]}" if len(lengths) > 1 else str(lengths[0])


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _spectrum(command: str, spin: int, lengths: tuple[int, ...], methods: str, fmt: str) -> Invocation:
    args = (command, "--spin", str(spin), "--length", _range_arg(lengths), "--method", methods, "--format", fmt)
    return Invocation(args, command, spin, lengths, methods=tuple(methods.split(",")), output_format=fmt)


def _verify(suite: str, extra: tuple[str, ...], fmt: str, spin: int = 1) -> Invocation:
    return Invocation(("verify", suite, *extra, "--format", fmt), "verify", spin, output_format=fmt)


# exact_sweep: (spin, number of lengths) per sweep. Closed-form cost grows
# like S^4 per length and barely with L below ~12, so windows start in 2..9.
SWEEP_LADDER = ((8, 4), (13, 3), (18, 2), (23, 2))
SWEEP_START = (2, 9)
# Sized to run between the S=18 and S=23 sweeps, so the median invocation
# (the S=18 sweep) stays well apart from its neighbours in time.
CONJECTURE1_ARGS = ("--max-spin", "7", "--max-length", "20")

# entropy_scan: (spin, number of lengths). The per-length cost grows with
# the digits of lambda^(L-1), so the start offset range is kept small.
ENTROPY_LADDER = ((5, 300), (8, 250), (11, 200))
ENTROPY_START = (2, 8)
ALPHA_POOL = (0.25, 0.5, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
ALPHA_COUNT = 3

# oracle_verify: the dense cases grow by 3x (S=1) or 5x (S=2) per length, so
# any seed-chosen length would change the cost of a pass and the median
# invocation; every plan runs the same suites and spectra (S=1 L=2..7,
# S=2 L=2..5, the largest cases within the 4096 cap set peak RSS), and the
# seed picks formats, method order, the appendix spin bound and run order.
ORACLE_S1_TOP = 7
ORACLE_S2_TOP = 5


def _exact_sweep(rng: random.Random) -> list[Invocation]:
    plan = []
    for spin, count in SWEEP_LADDER:
        lengths = _window(rng.randint(*SWEEP_START), count)
        methods = rng.choice(("recurrence,closed_form", "closed_form,recurrence"))
        plan.append(_spectrum("sweep", spin, lengths, methods, _fmt(rng)))
    plan.append(_verify("conjecture1", CONJECTURE1_ARGS, _fmt(rng)))
    return plan


def _entropy_scan(rng: random.Random) -> list[Invocation]:
    plan = []
    for spin, count in ENTROPY_LADDER:
        lengths = _window(rng.randint(*ENTROPY_START), count)
        alphas = tuple(sorted(rng.sample(ALPHA_POOL, ALPHA_COUNT)))
        fmt = _fmt(rng)
        args = (
            "entropy", "--spin", str(spin), "--length", _range_arg(lengths),
            "--alpha", ",".join(repr(a) for a in alphas), "--format", fmt,
        )
        plan.append(Invocation(args, "entropy", spin, lengths, alphas, output_format=fmt))
    return plan


def _oracle_verify(rng: random.Random) -> list[Invocation]:
    s1_methods = ",".join(rng.sample(("fock_oracle", "pauli_oracle"), 2))
    return [
        _verify("oracle", ("--spin", "1", "--max-length", "6"), _fmt(rng), spin=1),
        _verify("oracle", ("--spin", "2", "--max-length", "4"), _fmt(rng), spin=2),
        _verify("hamiltonian", ("--spin", "1"), _fmt(rng), spin=1),
        _verify("hamiltonian", ("--spin", "2"), _fmt(rng), spin=2),
        _verify("appendix", ("--max-spin", str(rng.randint(2, 3))), _fmt(rng)),
        _spectrum("spectrum", 1, tuple(range(2, ORACLE_S1_TOP + 1)), s1_methods, _fmt(rng)),
        _spectrum("spectrum", 2, tuple(range(2, ORACLE_S2_TOP + 1)), "fock_oracle", _fmt(rng)),
    ]


WORKLOADS = {
    "exact_sweep": _exact_sweep,
    "entropy_scan": _entropy_scan,
    "oracle_verify": _oracle_verify,
}


def plan(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of `workload` for `seed`, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    invocations = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(f"{workload}:{seed}:order").shuffle(invocations)
    return invocations

