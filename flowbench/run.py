"""Flow-level benchmark: whole placement flows, end to end and layer by layer.

Usage (from the repository root)::

    python3 flowbench/run.py --workload tdp_xl --seed 1 --seconds 30 --trace 0

Workloads are ``tdp_xl``, ``dmp4_xl_pool`` and ``suite_mini`` (see
``flowbench/README.md``).  Each measurement runs in a fresh Python process
(``flowbench/measure.py``) with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to 1; forked kernel-pool workers inherit them.

``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics: CPU times of the measurement process and its
kernel-pool workers, rescaled to a reference CPU speed that is measured
while they run (see ``flowbench/measure.py`` and ``flowbench/speed.py``).
``--trace 1`` runs one untraced and one traced pass, each in its own fresh
process, requires their HPWL/TNS/WNS to match bit for bit, and reports the
per-layer metrics.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run environment and the raw samples.  The
exit code is non-zero when a measurement process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tdp_xl", "dmp4_xl_pool", "suite_mini")
# Every run must end within this many seconds, measurement processes included.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "flow_ref_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_rate": "ratio",
}

PER_LAYER_UNITS = {
    "benchgen.generate_s": "s",
    "flow.stage.timing_weight_s": "s",
    "flow.stage.global_place_s": "s",
    "flow.stage.legalize_s": "s",
    "flow.stage.evaluate_s": "s",
    "flow.stage.timing_weight_self_s": "s",
    "flow.stage.global_place_self_s": "s",
    "flow.stage.legalize_self_s": "s",
    "flow.stage.evaluate_self_s": "s",
    "flow.wall_s": "s",
    "flow.cpu_s": "s",
    "flow.traced_s": "s",
    "flow.unattributed_s": "s",
    "flow.tracing_overhead": "ratio",
    "placement.wirelength_s": "s",
    "placement.density_s": "s",
    "placement.optimizer_s": "s",
    "placement.step_p50_ms": "ms",
    "placement.step_p90_ms": "ms",
    "placement.step_samples": "count",
    "placement.legalize_s": "s",
    "placement.legalize_fallbacks": "count",
    "placement.iterations": "count",
    "timing.sta_s": "s",
    "timing.sta_updates": "count",
    "timing.sta_incremental_share": "ratio",
    "timing.sta_pins_recomputed": "count",
    "timing.failing_endpoints": "count",
    "core.extract_s": "s",
    "core.paths": "count",
    "core.paths_analyzed": "count",
    "core.extract_yield": "ratio",
    "core.pin_pair_update_s": "s",
    "core.pin_pairs": "count",
    "core.attraction_s": "s",
    "weighting.net_weight_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.dispatches": "count",
    "parallel.tasks": "count",
    "parallel.worker_peak_rss_mb": "MiB",
    "evaluation.evaluate_s": "s",
    "evaluation.hpwl_dbu": "dbu",
    "evaluation.tns_ps": "ps",
    "evaluation.wns_ps": "ps",
}


class MeasurementError(RuntimeError):
    pass


def pinned_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_measurement(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run ``flowbench.measure`` in a fresh process and parse its record."""
    cmd = [
        sys.executable, "-m", "flowbench.measure",
        "--workload", args.workload, "--mode", mode,
        "--seconds", str(args.seconds), "--scale", str(args.scale),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise MeasurementError(f"{mode} measurement exceeded the {RUN_LIMIT_S:.0f} s limit")
    finally:
        # Reap anything the measurement left behind (kernel-pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise MeasurementError(f"{mode} measurement exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise MeasurementError(f"{mode} measurement printed no record")
    return json.loads(lines[-1])


def environment(record: dict) -> dict:
    """What the numbers were measured on (threads and versions as the measurement saw them)."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "threads": record["threads"],
        "versions": record["versions"],
        "git_commit": git_commit(),
    }


def git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def totals(record: dict) -> tuple:
    attempted = sum(p["attempted"] for p in record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    return attempted, failed


def end_to_end(record: dict) -> Dict[str, float]:
    attempted, failed = totals(record)
    return {
        "flow_ref_cpu_s": statistics.median(p["flow_ref_s"] for p in record["passes"]),
        "setup_s": statistics.median(record["setup_ref_samples"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "pass_rate": (attempted - failed) / attempted,
    }


def per_layer(plain: dict, traced: dict) -> Dict[str, float]:
    traced_pass = traced["passes"][0]
    metrics = dict(traced_pass["layers"])
    metrics["benchgen.generate_s"] = traced_pass["generate_s"]
    metrics["flow.wall_s"] = plain["passes"][0]["flow_s"]
    metrics["flow.cpu_s"] = plain["passes"][0]["flow_cpu_s"]
    metrics["flow.tracing_overhead"] = traced_pass["flow_s"] / metrics["flow.wall_s"]
    return metrics


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="design seed offset (default: each spec's own seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the closed loop with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra design-size factor (smoke tests shrink the designs)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"flowbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace == 0:
            record = run_measurement(args, "timed", deadline)
            records = [record]
            metrics = with_units(end_to_end(record), END_TO_END_UNITS)
        else:
            plain = run_measurement(args, "once", deadline)
            traced = run_measurement(args, "traced", deadline)
            records = [plain, traced]
            if plain["passes"][0]["quality"] != traced["passes"][0]["quality"]:
                raise MeasurementError(
                    "traced HPWL/TNS/WNS differ from the untraced run: "
                    f"{traced['passes'][0]['quality']} != {plain['passes'][0]['quality']}"
                )
            metrics = with_units(per_layer(plain, traced), PER_LAYER_UNITS)
    except MeasurementError as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    errors: List[str] = []
    for record in records:
        a, f = totals(record)
        attempted += a
        failed += f
        errors += [e for p in record["passes"] for e in p["errors"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(records[0]),
        "errors": errors,
        "samples": [
            {
                "mode": r["mode"],
                "cpus": r["cpus"],
                "flow_s": [p["flow_s"] for p in r["passes"]],
                "flow_cpu_s": [p["flow_cpu_s"] for p in r["passes"]],
                "flow_ref_s": [p.get("flow_ref_s") for p in r["passes"]],
                "probe_loop_s": [p.get("probe_loop_s") for p in r["passes"]],
                "setup_cpu_s": [p["setup_cpu_s"] for p in r["passes"]],
                "setup_ref_s": r["setup_ref_samples"],
                "steal_share": [p["steal_share"] for p in r["passes"]],
                "quality": [p["quality"] for p in r["passes"]],
            }
            for r in records
        ],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
