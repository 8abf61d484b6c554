"""Smoke tests of the flow benchmark on scaled-down designs.

Each workload runs once untraced and once traced through ``run.py`` (the
same command the benchmark is invoked with), on designs shrunk by
``--scale`` so the whole module takes well under a minute.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from flowbench.ledger import ENTRY_POINTS, Ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tdp_xl", "dmp4_xl_pool", "suite_mini")
SCALE = {"tdp_xl": "0.02", "dmp4_xl_pool": "0.02", "suite_mini": "0.05"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

# Self times that, with flow.unattributed_s, partition the traced flow wall.
SELF_TIMES = (
    "flow.stage.timing_weight_self_s",
    "flow.stage.global_place_self_s",
    "flow.stage.legalize_self_s",
    "flow.stage.evaluate_self_s",
    "placement.wirelength_s",
    "placement.density_s",
    "placement.optimizer_s",
    "placement.legalize_s",
    "timing.sta_s",
    "core.extract_s",
    "core.pin_pair_update_s",
    "core.attraction_s",
    "weighting.net_weight_s",
    "parallel.dispatch_s",
    "evaluation.evaluate_s",
    "flow.unattributed_s",
)


def run_bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "flowbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """(untraced, traced) results per workload, computed once."""
    return {w: (result_of(run_bench(w, 0)), result_of(run_bench(w, 1))) for w in WORKLOADS}


def assert_declared(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    plain, traced = runs[workload]
    assert_declared(plain, SPEC["end_to_end"])
    assert_declared(traced, SPEC["per_layer"])
    assert plain["metrics"]["pass_rate"]["value"] == 1.0
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_partition_the_traced_flow(runs, workload):
    layers = {name: m["value"] for name, m in runs[workload][1]["metrics"].items()}
    assert layers["flow.unattributed_s"] >= 0.0
    assert sum(layers[name] for name in SELF_TIMES) == pytest.approx(layers["flow.traced_s"], rel=1e-9)
    uses_extraction = workload != "dmp4_xl_pool"
    assert (layers["core.extract_s"] > 0) == uses_extraction
    assert (layers["core.paths"] > 0) == uses_extraction
    assert (layers["parallel.dispatches"] > 0) == (not uses_extraction)
    assert (layers["weighting.net_weight_s"] > 0) == (not uses_extraction)
    assert layers["placement.legalize_fallbacks"] == 0


def test_same_seed_repeats_quality_exactly(runs):
    first = runs["tdp_xl"][1]["metrics"]
    again = result_of(run_bench("tdp_xl", 1))["metrics"]
    for name in ("evaluation.hpwl_dbu", "evaluation.tns_ps", "evaluation.wns_ps", "placement.iterations"):
        assert again[name]["value"] == first[name]["value"]


def test_ledger_restores_the_wrapped_methods():
    def current():
        return [
            getattr(importlib.import_module(module), cls).__dict__.get(method)
            for module, cls, method, _key in ENTRY_POINTS
        ]

    before = current()
    with Ledger():
        assert current() != before
    assert current() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "flowbench"), tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("suite_mini", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cpu_seconds_counts_child_processes():
    from flowbench import measure

    busy = (
        "import sys, time\n"
        "end = time.process_time() + 0.5\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('busy', flush=True)\n"
        "sys.stdin.read()\n"
    )
    before = measure.cpu_seconds()
    child = subprocess.Popen([sys.executable, "-c", busy], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "busy\n"
        assert measure.cpu_seconds() - before >= 0.5  # live child, from /proc
    finally:
        child.communicate(timeout=30)
    assert measure.cpu_seconds() - before >= 0.5  # reaped child, from getrusage


def test_loop_seconds_weights_cpus_by_busy_time():
    from flowbench.speed import LOOP_EXPONENT, REF_LOOP_S, Reading, loop_seconds, normalise

    start = Reading({0: (10, 10_000_000), 1: (10, 20_000_000)}, {0: 100, 1: 100})
    end = Reading({0: (20, 20_000_000), 1: (20, 40_000_000)}, {0: 130, 1: 110})
    # 1 ms loops on CPU 0 (30 busy ticks), 2 ms on CPU 1 (10 busy ticks).
    assert loop_seconds(start, end) == pytest.approx(1.25e-3)
    assert loop_seconds(start, start) is None
    assert normalise(3.0, REF_LOOP_S) == 3.0
    assert normalise(3.0, 2 * REF_LOOP_S) == pytest.approx(3.0 / 2 ** LOOP_EXPONENT)


def test_speed_probe_measures_and_stops_its_processes():
    from flowbench.speed import SpeedProbe

    with SpeedProbe() as probe:
        pids = probe.pids
        start = probe.reading()
        loop_s = probe.loop_seconds_since(start)
    assert len(pids) == len(os.sched_getaffinity(0))
    assert 1e-5 < loop_s < 1.0
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)


def test_failing_flows_are_counted_not_fatal(monkeypatch):
    from flowbench import measure

    class Broken:
        def run(self, design):
            raise RuntimeError("boom")

    monkeypatch.setattr(measure, "build_flow", lambda *args, **kwargs: Broken())
    record = measure.run_pass(measure.WORKLOADS["suite_mini"], 3, 0.02, traced=False)
    assert record["attempted"] == 8 and record["failed"] == 8
    assert all("boom" in error for error in record["errors"])


def test_overlapping_cells_fail_the_placement_check():
    from flowbench import measure

    [(design, runner)], *_ = measure.set_up(measure.WORKLOADS["tdp_xl"], 3, 0.02)
    result = runner.run(design)
    assert measure.placement_problem(design, result) is None
    ctx = result.context
    first, second = design.arrays.movable_index[:2]
    ctx.x, ctx.y = ctx.x.copy(), ctx.y.copy()
    ctx.x[second], ctx.y[second] = ctx.x[first], ctx.y[first]
    assert measure.placement_problem(design, result) == "overlapping cells"
