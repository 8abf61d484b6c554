"""One measurement process of the flow benchmark.

``python -m flowbench.measure --workload W --mode M [--seed N] [--seconds S]
[--scale F]`` generates the workload's designs, runs its flow preset over
them and prints one JSON record as its last stdout line.  ``flowbench/run.py``
starts this module in a fresh process with the BLAS/OpenMP thread counts
pinned to 1, so every measurement (and every forked kernel-pool worker)
starts from the same state.

Times are CPU seconds (user plus system) of this process and its child
processes, the kernel-pool workers included, with wall times beside them.
On a shared virtual machine the hypervisor takes vCPUs away for seconds at
a time (steal), which stretches wall time, most of all for the pool's
cross-process round trips; the kernel does not count stolen time as CPU
time.  The vCPUs' speed also swings by tens of percent without any steal,
and CPU time with it, so in ``timed`` mode the CPU times are also rescaled
to a reference CPU speed measured while they run (:mod:`flowbench.speed`);
``run.py`` reports those as the end-to-end metrics.  A serial workload is
pinned to one CPU, so only the probe on that CPU times it.

Every mode first runs one untimed warm-up pass on designs shrunk to
``WARMUP_SCALE``.  Modes:

* ``timed``  — closed loop: one client, passes back to back until
  ``--seconds`` have elapsed (at least one pass).  A pass generates every
  design of the workload, builds its flows (the set-up) and runs them.
* ``once``   — one untraced pass.
* ``traced`` — one pass with the per-layer :class:`~flowbench.ledger.Ledger`
  installed around the flows.

Every flow is checked: it must not raise, Abacus must legalize without the
greedy fallback, the placement must be legal (checked here from the
design's arrays, not by the program's evaluator) and HPWL/TNS/WNS must be
finite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import glob
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from flowbench.ledger import LayerRecord, Ledger
from flowbench.speed import SpeedProbe, normalise
from repro.benchgen import SB_MINI_SUITE, CircuitSpec, generate_circuit
from repro.benchgen.xl import XL_SUITE, generate_xl_circuit
from repro.flow import FlowResult, build_flow
from repro.parallel import shutdown_kernel_pools

# Extra design generations after the timed loop, so the set-up median has
# at least this many samples even when only two passes fit in the run.
MIN_SETUP_SAMPLES = 5
# Size of the designs of the untimed warm-up pass, relative to the workload's.
WARMUP_SCALE = 0.05


@dataclass(frozen=True)
class Workload:
    preset: str
    designs: Tuple[str, ...]
    scale: float
    kernel_workers: int


WORKLOADS: Dict[str, Workload] = {
    # The paper's flow at XL size: extraction-heavy, serial.
    "tdp_xl": Workload("efficient_tdp", ("sb_xl_1",), 0.25, 0),
    # DREAMPlace 4.0 momentum net weighting with the kernel pool: the only
    # workload that dispatches to ``repro.parallel``; no path extraction.
    "dmp4_xl_pool": Workload("dreamplace4", ("sb_xl_1",), 0.25, 2),
    # The paper's Table II designs at full size: per-design fixed costs.
    "suite_mini": Workload("efficient_tdp", tuple(SB_MINI_SUITE), 1.0, 0),
}


def design_spec(name: str, seed: Optional[int], scale: float) -> CircuitSpec:
    """The spec of design ``name`` at ``scale``, re-seeded by ``seed``.

    Scaling follows :func:`repro.benchgen.load_benchmark`.  ``seed=None``
    keeps the spec's own seed; otherwise the design seed is
    ``spec.seed + 1000 * seed``, distinct for every design of a workload.
    """
    spec = SB_MINI_SUITE.get(name) or XL_SUITE[name]
    if scale != 1.0:
        spec = dataclasses.replace(
            spec,
            num_cells=max(10, int(spec.num_cells * scale)),
            num_primary_inputs=max(4, int(spec.num_primary_inputs * scale)),
            num_primary_outputs=max(4, int(spec.num_primary_outputs * scale)),
        )
    if seed is not None:
        spec = dataclasses.replace(spec, seed=spec.seed + 1000 * int(seed))
    return spec


def kernel_workers(workload: Workload) -> int:
    return min(workload.kernel_workers, os.cpu_count() or 1)


def child_pids(exclude: Sequence[int] = ()) -> List[str]:
    """Live child processes of this process, less ``exclude``."""
    skip = {str(pid) for pid in exclude}
    pids = []
    for children in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(children) as handle:
            pids += [pid for pid in handle.read().split() if pid not in skip]
    return pids


def cpu_seconds(exclude: Sequence[int] = ()) -> float:
    """CPU time of this process plus every child, live or reaped.

    Live children (the kernel-pool workers) are read from
    ``/proc/<pid>/task/*/schedstat``, whose first field is the task's
    run time in nanoseconds.  ``exclude`` names live children to leave out
    (the speed probes).
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live_ns = 0
    for pid in child_pids(exclude):
        for schedstat in glob.glob(f"/proc/{pid}/task/*/schedstat"):
            try:
                with open(schedstat) as handle:
                    live_ns += int(handle.read().split()[0])
            except (OSError, IndexError, ValueError):
                continue  # the task ended while it was read
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live_ns / 1e9


def set_up(workload: Workload, seed: Optional[int], scale: float, probe: Optional[SpeedProbe] = None):
    """Generate every design and build its flow.

    Returns ``(pairs, generate_s, setup_s, setup_cpu_s, setup_ref_s)``: the
    ``(design, runner)`` pairs, generation wall, set-up wall, set-up CPU
    time and, with a ``probe``, set-up CPU time at the reference speed
    (else None).
    """
    exclude = probe.pids if probe is not None else ()
    probe_start = probe.reading() if probe is not None else None
    generate_s = setup_s = setup_cpu_s = 0.0
    pairs = []
    for name in workload.designs:
        spec = design_spec(name, seed, workload.scale * scale)
        generate = generate_xl_circuit if name in XL_SUITE else generate_circuit
        cpu_start = cpu_seconds(exclude)
        start = time.perf_counter()
        design = generate(spec)
        generated = time.perf_counter()
        runner = build_flow(workload.preset, kernel_workers=kernel_workers(workload))
        done = time.perf_counter()
        setup_cpu_s += cpu_seconds(exclude) - cpu_start
        generate_s += generated - start
        setup_s += done - start
        pairs.append((design, runner))
    setup_ref_s = None
    if probe is not None:
        setup_ref_s = normalise(setup_cpu_s, probe.loop_seconds_since(probe_start))
    return pairs, generate_s, setup_s, setup_cpu_s, setup_ref_s


def placement_problem(design, result: FlowResult) -> Optional[str]:
    """Why the flow's placement fails the benchmark's checks, or None."""
    legal = result.context.metadata.get("legalization", {})
    if legal.get("fallback", True):
        return "Abacus did not legalize without the greedy fallback"
    core = design.arrays
    x, y = result.x, result.y
    movable = core.movable_index
    die = core.die
    xl, yl = x[movable], y[movable]
    xh = xl + core.inst_width[movable]
    yh = yl + core.inst_height[movable]
    eps = 1e-6
    if np.any((xl < die.xl - eps) | (yl < die.yl - eps) | (xh > die.xh + eps) | (yh > die.yh + eps)):
        return "cell outside the die"
    rows = (yl - die.yl) / core.row_height
    if np.any(np.abs(rows - np.round(rows)) > eps):
        return "cell off the row grid"
    order = np.lexsort((xl, yl))
    same_row = yl[order][1:] == yl[order][:-1]
    if np.any(same_row & (xl[order][1:] < xh[order][:-1] - eps)):
        return "overlapping cells"
    ev = result.evaluation
    if ev is None or not all(math.isfinite(v) for v in (ev.hpwl, ev.tns, ev.wns)):
        return "HPWL/TNS/WNS not finite"
    return None


def worker_peak_rss_mb() -> float:
    """Largest high-water RSS among this process's live child processes."""
    peak_kb = 0
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def run_pass(
    workload: Workload, seed: Optional[int], scale: float, traced: bool,
    probe: Optional[SpeedProbe] = None,
) -> dict:
    """Set up and run every flow of the workload once.

    With a ``probe``, the record also holds the set-up and flow CPU times at
    the reference speed (``setup_ref_s``, ``flow_ref_s``) and the probe loop
    time during the flows (``probe_loop_s``).
    """
    exclude = probe.pids if probe is not None else ()
    pairs, generate_s, setup_s, setup_cpu_s, setup_ref_s = set_up(workload, seed, scale, probe)
    record = {
        "generate_s": generate_s, "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s, "setup_ref_s": setup_ref_s,
        "flow_s": 0.0, "flow_cpu_s": 0.0,
        "attempted": 0, "failed": 0, "errors": [], "quality": [],
    }
    results = []
    ledger = Ledger()
    steal_start, total_start = cpu_ticks()
    probe_start = probe.reading() if probe is not None else None
    with ledger if traced else contextlib.nullcontext():
        for design, runner in pairs:
            record["attempted"] += 1
            cpu_start = cpu_seconds(exclude)
            start = time.perf_counter()
            try:
                result = runner.run(design)
            except Exception as exc:  # a failing flow is counted, not fatal
                record["flow_s"] += time.perf_counter() - start
                record["flow_cpu_s"] += cpu_seconds(exclude) - cpu_start
                record["failed"] += 1
                record["errors"].append(f"{design.name}: {type(exc).__name__}: {exc}")
                continue
            record["flow_s"] += time.perf_counter() - start
            record["flow_cpu_s"] += cpu_seconds(exclude) - cpu_start
            problem = placement_problem(design, result)
            if problem is not None:
                record["failed"] += 1
                record["errors"].append(f"{design.name}: {problem}")
            ev = result.evaluation
            if ev is not None:
                record["quality"].append([design.name, ev.hpwl, ev.tns, ev.wns])
            results.append(result)
    steal_end, total_end = cpu_ticks()
    # Share of CPU time the hypervisor took during the flows (diagnostic).
    record["steal_share"] = (steal_end - steal_start) / max(1, total_end - total_start)
    if probe is not None:
        record["probe_loop_s"] = probe.loop_seconds_since(probe_start)
        record["flow_ref_s"] = normalise(record["flow_cpu_s"], record["probe_loop_s"])
    if traced:
        record["layers"] = layer_metrics(ledger, results, record["flow_s"])
    return record


def layer_metrics(ledger: Ledger, results: Sequence[FlowResult], flow_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (summed over its flows)."""

    def layer(key: str) -> LayerRecord:
        return ledger.records.get(key, LayerRecord())

    out: Dict[str, float] = {}
    for stage in ("timing_weight", "global_place", "legalize", "evaluate"):
        out[f"flow.stage.{stage}_s"] = layer(f"flow.stage.{stage}").wall
        out[f"flow.stage.{stage}_self_s"] = layer(f"flow.stage.{stage}").self
    out["flow.traced_s"] = flow_s
    out["flow.unattributed_s"] = flow_s - ledger.self_seconds()

    steps_ms = [1e3 * d for d in layer("placement.optimizer").durations]
    deciles = statistics.quantiles(steps_ms, n=10) if len(steps_ms) >= 2 else [0.0] * 9
    out.update({
        "placement.wirelength_s": layer("placement.wirelength").self,
        "placement.density_s": layer("placement.density").self,
        "placement.optimizer_s": layer("placement.optimizer").self,
        "placement.step_p50_ms": statistics.median(steps_ms) if steps_ms else 0.0,
        "placement.step_p90_ms": deciles[8],
        "placement.step_samples": len(steps_ms),
        "placement.legalize_s": layer("placement.legalize").self,
        "placement.legalize_fallbacks": sum(
            bool(r.context.metadata.get("legalization", {}).get("fallback")) for r in results
        ),
        "placement.iterations": sum(r.placement.iterations for r in results if r.placement),
    })

    updates = layer("timing.sta").calls
    counts = ledger.counts
    out.update({
        "timing.sta_s": layer("timing.sta").self,
        "timing.sta_updates": updates,
        "timing.sta_incremental_share": counts["timing.sta_incremental"] / updates if updates else 0.0,
        "timing.sta_pins_recomputed": counts["timing.sta_pins_recomputed"],
        "timing.failing_endpoints": sum(
            r.evaluation.num_failing_endpoints for r in results if r.evaluation
        ),
    })

    analyzed = counts["core.paths_analyzed"]
    out.update({
        "core.extract_s": layer("core.extract").self,
        "core.paths": counts["core.paths"],
        "core.paths_analyzed": analyzed,
        "core.extract_yield": counts["core.paths"] / analyzed if analyzed else 0.0,
        "core.pin_pair_update_s": layer("core.pin_pair_update").self,
        "core.pin_pairs": sum(len(r.context.pin_pairs) for r in results if r.context.pin_pairs is not None),
        "core.attraction_s": layer("core.attraction").self,
        "weighting.net_weight_s": layer("weighting.net_weight").self,
        "parallel.dispatch_s": layer("parallel.dispatch").self,
        "parallel.dispatches": layer("parallel.dispatch").calls,
        "parallel.tasks": counts["parallel.tasks"],
        "parallel.worker_peak_rss_mb": worker_peak_rss_mb(),
        "evaluation.evaluate_s": layer("evaluation.evaluate").self,
        "evaluation.hpwl_dbu": sum(r.evaluation.hpwl for r in results if r.evaluation),
        "evaluation.tns_ps": sum(r.evaluation.tns for r in results if r.evaluation),
        "evaluation.wns_ps": sum(r.evaluation.wns for r in results if r.evaluation),
    })
    return out


def package_version(name: str) -> Optional[str]:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def measure(workload_name: str, mode: str, seed: Optional[int], seconds: float, scale: float) -> dict:
    workload = WORKLOADS[workload_name]
    if kernel_workers(workload) == 0:
        # A serial flow runs on one CPU, the one whose speed probe it is timed by.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    passes: List[dict] = []
    setup_samples: List[float] = []
    # Lazy imports, caches and the kernel pool are ready before anything is timed.
    warm_up = functools.partial(run_pass, workload, seed, min(scale, WARMUP_SCALE), traced=False)
    if mode == "timed":
        with SpeedProbe() as probe:
            warm_up()
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                gc.collect()
                passes.append(run_pass(workload, seed, scale, traced=False, probe=probe))
            setup_samples = [p["setup_ref_s"] for p in passes]
            while len(setup_samples) < MIN_SETUP_SAMPLES:
                gc.collect()
                setup_samples.append(set_up(workload, seed, scale, probe)[4])
    else:
        warm_up()
        passes.append(run_pass(workload, seed, scale, traced=mode == "traced"))
    record = {
        "workload": workload_name,
        "mode": mode,
        "passes": passes,
        "setup_ref_samples": setup_samples,
        "cpus": sorted(os.sched_getaffinity(0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": package_version("scipy"),
        },
    }
    shutdown_kernel_pools()
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("timed", "once", "traced"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.mode, args.seed, args.seconds, args.scale)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
