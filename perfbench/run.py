"""akltblock benchmark: real CLI invocations, end-to-end and per-layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_sweep --seed 0 --seconds 40 --trace 0

A workload pass is the seed's plan (see workloads.py) run as one closed
loop with a single client: every `python -m akltblock ...` invocation is a
fresh child process, started only after the previous one has exited, so
each pays the cold caches and imports a user pays. Children get
PYTHONPATH=src and BLAS thread variables pinned to the core count.

--trace 0 cycles through the plan until --seconds have elapsed and prints
the end-to-end metrics, measured with spans off, from each invocation's
times relative to the calibration probes around it (see end_to_end).
--trace 1 alternates untraced and traced passes and prints per-layer
counts and self times (see tracer.py), the time no span covers, and the
tracing overhead (fastest traced pass minus fastest untraced pass).

Every invocation's document is checked (see checks.py); a nonzero exit, a
failed check record or a failed output check counts it as failed. The last
stdout line is one JSON object: correct, attempted, failed, metrics. The
line before it records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Calibration probe: a bare interpreter that imports numpy and exits. It
# runs none of akltblock's code, and like every invocation it is dominated
# by interpreter start-up, imports and bytecode, so its time measures how
# fast the host runs that kind of work at that moment.
CALIBRATION_ARGS = ["-c", "import numpy"]
# Calibration-probe time on the reference host when it is fast (2-vCPU
# x86-64 VM, Python 3.11.7, numpy 2.4.6); scaled timings are in seconds at
# that speed.
REFERENCE_PROBE_S = 0.125
# Hard stop for the whole run; the child in flight is killed and counted
# as failed, so the run still ends with a result well inside 180 s.
RUN_LIMIT_S = 170.0
TOTAL_SPANS = ("spectrum.block_spectrum",) + tuple(n for n in SPAN_NAMES if n.startswith("verify.suite_"))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stats: dict = field(default_factory=dict)


class Runner:
    """Starts children one at a time and always reaps the one in flight."""

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline
        self._proc: subprocess.Popen | None = None

    def run(self, argv: list[str], traced: bool = False, module: bool = True) -> Child:
        """Run `python -m akltblock ARGV` (or `python ARGV` without `module`) to exit."""
        stats_r = stats_w = None
        pass_fds: tuple[int, ...] = ()
        if traced:
            stats_r, stats_w = os.pipe()
            pass_fds = (stats_w,)
            argv = [sys.executable, str(HERE / "trace_child.py"), str(stats_w), *argv]
        elif module:
            argv = [sys.executable, "-m", "akltblock", *argv]
        else:
            argv = [sys.executable, *argv]
        start = time.perf_counter()
        try:
            self._proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT, pass_fds=pass_fds
            )
        finally:
            if stats_w is not None:
                os.close(stats_w)
        out_fd, err_fd = self._proc.stdout.fileno(), self._proc.stderr.fileno()
        streams: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
        if stats_r is not None:
            streams[stats_r] = []
        killed = self._drain(streams)
        _, status, usage = os.wait4(self._proc.pid, 0)
        wall = time.perf_counter() - start
        self._proc.returncode = code = -9 if killed else os.waitstatus_to_exitcode(status)
        self._proc.stdout.close()
        self._proc.stderr.close()
        self._proc = None
        stats = {}
        if stats_r is not None:
            os.close(stats_r)
            raw = b"".join(streams[stats_r])
            stats = json.loads(raw) if raw else {}
        out, err = b"".join(streams[out_fd]), b"".join(streams[err_fd])
        return Child(code, out, err, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stats)

    def _drain(self, streams: dict[int, list[bytes]]) -> bool:
        """Read every stream to EOF; kill the child if the run deadline passes."""
        with selectors.DefaultSelector() as selector:
            for fd in streams:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                remaining = self.deadline - time.perf_counter()
                if remaining <= 0:
                    self._proc.kill()
                    return True
                for key, _ in selector.select(timeout=min(remaining, 1.0)):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        streams[key.fd].append(chunk)
                    else:
                        selector.unregister(key.fd)
        return False

    def running(self, start: float, seconds: float, next_s: float) -> bool:
        """True if work expected to take `next_s` still ends within `seconds` of `start`."""
        now = time.perf_counter()
        return now - start + next_s < seconds and now < self.deadline

    def kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for name in BLAS_THREAD_VARS:
        env[name] = threads
    return env


_ENV_PROBE = """
import json, platform, numpy
blas = {}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def environment(env: dict[str, str]) -> dict:
    probe = subprocess.run([sys.executable, "-c", _ENV_PROBE], env=env, capture_output=True, text=True, timeout=60)
    record = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr[-500:]}
    record["blas_threads"] = {name: env[name] for name in BLAS_THREAD_VARS}
    record["nproc"] = len(os.sched_getaffinity(0))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        record["commit"] = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except OSError:
        record["commit"] = "unknown"
    return record


@dataclass
class Pass:
    wall_s: float = 0.0
    children: list[Child] = field(default_factory=list)


class Tally:
    """Attempted and failed invocations over the whole run."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def record(self, inv: workloads.Invocation, child: Child) -> int:
        """Check one invocation; return the cells it completed correctly."""
        self.attempted += 1
        outcome = checks.check_output(inv, child.code, child.stdout, self.golden)
        if not outcome.ok:
            self.failed += 1
            detail = "; ".join(outcome.problems)[:2000]
            print(f"FAILED {inv.key}: {detail} stderr={child.stderr[-500:]!r}", file=sys.stderr)
        return outcome.cells


def run_pass(runner: Runner, tally: Tally, plan: list[workloads.Invocation], traced: bool) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for inv in plan:
        child = runner.run(list(inv.args), traced=traced)
        result.children.append(child)
        tally.record(inv, child)
        if time.perf_counter() >= runner.deadline:
            break
    result.wall_s = time.perf_counter() - start
    return result


def end_to_end(runner: Runner, tally: Tally, plan, seconds: float) -> tuple[dict, dict]:
    """Cycle through the plan until `seconds` have passed, probing around each invocation.

    Before each invocation run one `python -m akltblock --version` (set-up
    time) and then one calibration probe; one more calibration probe ends
    the run. On a shared host the speed of each vCPU drifts by up to half
    within seconds, which moves even best times from one run to the next;
    the ratio of a timing to the calibration probes around it cancels most
    of that drift. So an invocation's time is the median over its samples
    of (wall / mean of the calibration probes just before and just after
    it), and the set-up time the median of (set-up probe / the calibration
    probe just after it), each times REFERENCE_PROBE_S: seconds at the
    reference host speed. `wall_s` is the sum of the invocation times over
    the plan, `op_p50_s` their median. Raw medians and all samples go out
    with the environment.
    """
    setup: list[float] = []
    calibration: list[float] = []
    walls: list[list[float]] = [[] for _ in plan]
    probes_before: list[list[int]] = [[] for _ in plan]  # index into calibration
    cells: list[list[int]] = [[] for _ in plan]
    peak_rss = 0.0

    def probe(args: list[str], module: bool) -> float:
        child = runner.run(args, module=module)
        if child.code != 0:
            raise SystemExit(f"probe {args} exited {child.code}: {child.stderr[-500:]!r}")
        return child.wall_s

    start = time.perf_counter()
    done = 0
    while done < len(plan) or runner.running(
        start, seconds, walls[done % len(plan)][-1] + setup[-1] + 2 * calibration[-1]
    ):
        index = done % len(plan)
        setup.append(probe(["--version"], module=True))
        calibration.append(probe(CALIBRATION_ARGS, module=False))
        child = runner.run(list(plan[index].args))
        walls[index].append(child.wall_s)
        probes_before[index].append(len(calibration) - 1)
        cells[index].append(tally.record(plan[index], child))
        peak_rss = max(peak_rss, child.maxrss_mb)
        done += 1
    calibration.append(probe(CALIBRATION_ARGS, module=False))

    scaled = [
        statistics.median(w / ((calibration[k] + calibration[k + 1]) / 2) for w, k in zip(ws, ks)) * REFERENCE_PROBE_S
        for ws, ks in zip(walls, probes_before)
    ]
    raw = [statistics.median(w) for w in walls]
    wall_s = sum(scaled)
    metrics = {
        "wall_s": wall_s,
        "cells_per_s": sum(min(c) for c in cells) / wall_s,
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(s / c for s, c in zip(setup, calibration)) * REFERENCE_PROBE_S,
    }
    samples = {
        "raw": {"wall_s": sum(raw), "op_p50_s": statistics.median(raw), "setup_s": statistics.median(setup)},
        "setup_s": setup,
        "calibration_s": calibration,
        "invocation_wall_s": walls,
    }
    return metrics, samples


def per_layer_names() -> list[str]:
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in TOTAL_SPANS:
            names.append(f"{span}.total_s")
    return names + [
        "spectrum.i_polynomial.builds",
        "cli.out_bytes",
        "cli.cpu_s",
        "other.self_s",
        "trace.traced_wall_s",
        "trace.untraced_wall_s",
        "trace.overhead_s",
    ]


def per_layer(runner: Runner, tally: Tally, plan, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; report the fastest of each.

    All span figures come from the one fastest traced pass, so its self
    times and `other.self_s` add up to `trace.traced_wall_s` exactly.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or runner.running(start, seconds, untraced[-1].wall_s + traced[-1].wall_s):
        untraced.append(run_pass(runner, tally, plan, traced=False))
        traced.append(run_pass(runner, tally, plan, traced=True))
    bare = min(untraced, key=lambda p: p.wall_s)
    spans = min(traced, key=lambda p: p.wall_s)
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        stats = [c.stats.get("spans", {}).get(span, {}) for c in spans.children]
        metrics[f"{span}.calls"] = sum(s.get("calls", 0) for s in stats)
        metrics[f"{span}.self_s"] = sum(s.get("self_s", 0.0) for s in stats)
        if span in TOTAL_SPANS:
            metrics[f"{span}.total_s"] = sum(s.get("total_s", 0.0) for s in stats)
    metrics["spectrum.i_polynomial.builds"] = sum(c.stats.get("coefficient_builds", 0) for c in spans.children)
    metrics["cli.out_bytes"] = sum(len(c.stdout) for c in bare.children)
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in bare.children)
    metrics["other.self_s"] = spans.wall_s - sum(metrics[f"{span}.self_s"] for span in SPAN_NAMES)
    metrics["trace.traced_wall_s"] = spans.wall_s
    metrics["trace.untraced_wall_s"] = bare.wall_s
    metrics["trace.overhead_s"] = spans.wall_s - bare.wall_s
    samples = {"traced_pass_wall_s": [p.wall_s for p in traced], "untraced_pass_wall_s": [p.wall_s for p in untraced]}
    return metrics, samples


def _unit(name: str) -> str:
    if name.endswith((".calls", ".builds")):
        return "count"
    if name == "cli.out_bytes":
        return "bytes"
    return "s"


E2E_UNITS = {"wall_s": "s", "cells_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "akltblock" / "cli.py").is_file():
        print(f"error: no akltblock sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    plan = workloads.plan(args.workload, args.seed)
    env = child_env()
    runner = Runner(env, deadline=time.perf_counter() + RUN_LIMIT_S)
    tally = Tally(checks.load_golden())
    try:
        record = environment(env)
        if args.trace:
            metrics, samples = per_layer(runner, tally, plan, args.seconds)
            units = {name: _unit(name) for name in metrics}
        else:
            metrics, samples = end_to_end(runner, tally, plan, args.seconds)
            units = E2E_UNITS
    finally:
        runner.kill()
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, plan=[inv.key for inv in plan])
    print(json.dumps({"environment": record, "samples": samples}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
