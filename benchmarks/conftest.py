"""Shared fixtures for the benchmark harness.

The expensive part — running every placer on every sb_mini design — is done
once per pytest session and reused by the Table II / Table IV / Fig. 4 /
Fig. 5 benchmarks.  Results (tables and machine-readable JSON) are written to
the untracked ``benchmarks/results/latest/``, so a test run never rewrites
the committed tables in ``benchmarks/results/``; re-record those by copying
the fresh files over them (see the README).
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.benchgen import benchmark_names, load_benchmark
from repro.flow import build_flow

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results", "latest")

# The designs every cross-method table uses (the full sb_mini suite).
SUITE = benchmark_names()

METHODS = ["DREAMPlace", "DREAMPlace 4.0", "Differentiable-TDP", "Efficient-TDP (ours)"]

# method -> (flow preset, config overrides)
METHOD_FLOWS = {
    "DREAMPlace": ("dreamplace", dict(max_iterations=450, seed=1, record_timing_every=15)),
    "DREAMPlace 4.0": ("dreamplace4", {}),
    "Differentiable-TDP": ("differentiable_tdp", {}),
    "Efficient-TDP (ours)": ("efficient_tdp", {}),
}


def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def save_json(name: str, payload) -> str:
    path = os.path.join(results_dir(), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def save_text(name: str, text: str) -> str:
    path = os.path.join(results_dir(), name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def run_method(method: str, design_name: str):
    """Run one placer flow on a freshly generated copy of ``design_name``."""
    try:
        preset, overrides = METHOD_FLOWS[method]
    except KeyError as exc:
        raise ValueError(f"Unknown method {method!r}") from exc
    return build_flow(preset, **overrides).run(load_benchmark(design_name))


@pytest.fixture(scope="session")
def suite_results() -> Dict[str, Dict[str, object]]:
    """``results[design][method] -> flow result`` for the whole suite."""
    results: Dict[str, Dict[str, object]] = {}
    for design_name in SUITE:
        results[design_name] = {}
        for method in METHODS:
            results[design_name][method] = run_method(method, design_name)
    return results
