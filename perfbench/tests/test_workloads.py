import json
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SEEDS = range(20)


def _shape(plan):
    """What sets the cost of a pass: invocations and cells per (command, spin)."""
    shape = Counter()
    for inv in plan:
        kind = (inv.command, inv.args[1] if inv.command == "verify" else "", inv.spin, len(inv.alphas))
        shape[kind + ("invocations",)] += 1
        shape[kind + ("lengths",)] += len(inv.lengths)
    return shape


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_plan(name):
    assert workloads.plan(name, 7) == workloads.plan(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seeds_give_other_inputs_of_comparable_size(name):
    plans = [workloads.plan(name, seed) for seed in SEEDS]
    assert len({tuple(inv.key for inv in p) for p in plans}) > len(plans) // 2
    shapes = {tuple(sorted(_shape(p).items())) for p in plans}
    assert len(shapes) == 1
    assert all(len(p) % 2 == 1 for p in plans)


def test_window_offsets_stay_in_their_ranges():
    for seed in SEEDS:
        for inv in workloads.plan("exact_sweep", seed):
            if inv.lengths:
                assert workloads.SWEEP_START[0] <= inv.lengths[0] <= workloads.SWEEP_START[1]
        for inv in workloads.plan("entropy_scan", seed):
            assert workloads.ENTROPY_START[0] <= inv.lengths[0] <= workloads.ENTROPY_START[1]


def test_golden_covers_exactly_the_default_seed_plans():
    keys = {inv.key for name in workloads.WORKLOADS for inv in workloads.plan(name, workloads.DEFAULT_SEED)}
    assert set(checks.load_golden()) == keys


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_UNITS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in BENCHMARK["end_to_end"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in BENCHMARK["per_layer"])
