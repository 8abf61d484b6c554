"""Fig. 3 — optimizing one critical path with different distance losses.

The paper visualizes the most critical path of a coarse placement optimized
to convergence under the HPWL, linear-Euclidean, and quadratic losses, and
reports the resulting path slack.  This benchmark regenerates the series:
slack before optimization and slack after each loss, plus the path geometry
statistics (total length and the longest single segment) that explain why the
quadratic loss wins (it equalizes segment lengths instead of letting one
segment stay very long).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_json, save_text
from repro.benchgen import load_benchmark
from repro.core import SinglePathOptimizer
from repro.evaluation import format_table
from repro.flow import build_flow


@pytest.fixture(scope="module")
def coarse_design():
    # The paper uses superblue16 for this figure; sb_mini_16 is its stand-in.
    design = load_benchmark("sb_mini_16")
    build_flow("dreamplace", max_iterations=200, seed=1).run(design)
    return design


def _segment_stats(optimizer, path, positions):
    x, y = positions
    graph = optimizer.engine.graph
    px, py = optimizer.design.pin_positions(x, y)
    lengths = [
        abs(px[i] - px[j]) + abs(py[i] - py[j]) for i, j in path.pin_pairs(graph)
    ]
    return float(sum(lengths)), float(max(lengths)) if lengths else 0.0


def test_fig3_loss_comparison(coarse_design, benchmark):
    optimizer = SinglePathOptimizer(coarse_design)
    path = optimizer.worst_path()

    results = benchmark.pedantic(
        lambda: optimizer.compare_losses(max_iterations=250), rounds=1, iterations=1
    )

    rows = [["before", round(results[0].slack_before, 1), "-", "-"]]
    payload = {"before_slack": results[0].slack_before, "losses": {}}
    for outcome in results:
        total_len, max_seg = _segment_stats(optimizer, path, outcome.positions)
        rows.append(
            [outcome.loss_name, round(outcome.slack_after, 1), round(total_len, 1), round(max_seg, 1)]
        )
        payload["losses"][outcome.loss_name] = {
            "slack_after": outcome.slack_after,
            "path_length_after": outcome.path_length_after,
            "longest_segment": max_seg,
            "iterations": outcome.iterations,
        }

    table = format_table(
        ["Loss", "Path slack (ps)", "Path length", "Longest segment"],
        rows,
        title="Fig. 3 — single critical path optimized with different losses (sb_mini_16)",
    )
    print("\n" + table)
    save_text("fig3_loss_comparison.txt", table)
    save_json("fig3_loss_comparison.json", payload)

    by_name = {r.loss_name: r for r in results}
    # Geometric claim of Fig. 3 (this is what reproduces at sb_mini scale):
    # the quadratic loss equalizes segment lengths, so its longest segment and
    # total path length are no larger than the direction-only losses'.
    _, quad_max = _segment_stats(optimizer, path, by_name["quadratic"].positions)
    quad_len, _ = _segment_stats(optimizer, path, by_name["quadratic"].positions)
    _, lin_max = _segment_stats(optimizer, path, by_name["linear"].positions)
    lin_len, _ = _segment_stats(optimizer, path, by_name["linear"].positions)
    assert quad_max <= lin_max + 1e-6
    assert quad_len <= lin_len + 1e-6
    # Slack claim: at the sb_mini die scale, net Elmore delays are negligible
    # next to load-dependent cell delays, so the per-path slack ordering of the
    # paper's Fig. 3 does NOT reproduce here: the committed series
    # (benchmarks/results/fig3_loss_comparison.txt) has the quadratic loss
    # moving path slack from -94 to -134 ps, and ROADMAP.md tracks the
    # timing-technology calibration that would give the loss something to
    # act on.  Only sanity (finiteness) is asserted.
    for outcome in results:
        assert outcome.slack_after == outcome.slack_after  # not NaN
        assert outcome.iterations > 0
