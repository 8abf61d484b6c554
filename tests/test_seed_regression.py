"""Pre-PR-4 regression anchors: routability must not perturb existing flows.

The goldens below were recorded from the repository state *before* the
routability subsystem landed (PR 3 head, commit b0983c6).  With routability
disabled — i.e. simply not using the new preset/stages — every existing
preset and the synthetic generator must reproduce them:

* the four original presets' evaluation metrics and position checksums on
  ``sb_mini_18`` (fast settings, seed 0) — verified bitwise against the old
  code at recording time; asserted here with a tight relative tolerance so
  a BLAS/FFT library swap does not flake CI while any semantic change
  (different RNG stream, different default code path) still fails loudly;
* SHA-256 checksums over the generator's output arrays — these involve only
  elementwise IEEE arithmetic and the versioned-stable NumPy ``Generator``
  stream, so they are asserted exactly.

The ``sb_mini_18`` goldens do not exercise any timing-feedback math: no
endpoint fails during global placement there, so pin pairs stay empty, net
weights stay at 1 and the three timing presets coincide bit for bit.  The
*acting* goldens further down use ``sb_mini_1``, where every feedback fires
and changes the placement.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.benchgen import load_benchmark
from repro.flow.presets import build_flow
from repro.obs import start_tracing, stop_tracing

_FAST = dict(
    max_iterations=60,
    timing_start_iteration=20,
    min_timing_iterations=20,
    timing_update_interval=10,
)

# Recorded from commit b0983c6 (pre-PR-4) on sb_mini_18 scale 0.4, seed 0.
# No endpoint fails during GP on this design, so these entries guard the
# placement engine and the stage plumbing but not the feedback math: the
# three timing presets below are identical for that reason.
_PRESET_GOLDEN = {
    "efficient_tdp": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
    "dreamplace": {
        "hpwl": 23378.92692307692,
        "tns": -399.60016925352295,
        "wns": -58.640564283402796,
        "x_sum": 25181.46153846154,
        "y_sum": 25575.46153846154,
        "x_dot": 3829118.3846153845,
    },
    "dreamplace4": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
    "differentiable_tdp": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
}

# SHA-256 over (x, y, inst_cell_id, net_pin_offsets, net_pin_index, pin_net,
# clock_period, die) of the freshly generated design (pre-PR-4 values).
_GENERATOR_GOLDEN = {
    "sb_mini_18": "37855458d855090892ec667471bed8b79aad93fea273dc978cf7e59e5c6210d9",
    "sb_mini_10": "e94bd82a40ca074410f30be8c510b9b0089f29cf1e1418694f3983956c33c673",
    "sb_mini_1": "3b1e2db3720e7bf2c71601c76c830982024989c31e569bc2f3dbbd1efb0a7930",
}


def _design_checksum(name: str) -> str:
    design = load_benchmark(name)
    core = design.core
    digest = hashlib.sha256()
    for array in (
        core.x,
        core.y,
        core.inst_cell_id,
        core.net_pin_offsets,
        core.net_pin_index,
        core.pin_net,
    ):
        digest.update(array.tobytes())
    digest.update(repr(design.clock_period).encode())
    die = core.die
    digest.update(repr((die.xl, die.yl, die.xh, die.yh)).encode())
    return digest.hexdigest()


class TestGeneratorBitExact:
    @pytest.mark.parametrize("name", sorted(_GENERATOR_GOLDEN))
    def test_generated_design_matches_pre_pr4_checksum(self, name):
        assert _design_checksum(name) == _GENERATOR_GOLDEN[name]


class TestPresetRegression:
    @pytest.mark.parametrize("preset", sorted(_PRESET_GOLDEN))
    def test_preset_matches_pre_pr4_golden(self, preset):
        overrides = dict(_FAST) if preset != "dreamplace" else {"max_iterations": 60}
        design = load_benchmark("sb_mini_18", scale=0.4)
        result = build_flow(preset, **overrides).run(design, seed=0)
        golden = _PRESET_GOLDEN[preset]
        ev = result.evaluation
        assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
        assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
        assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)
        assert float(np.sum(result.x)) == pytest.approx(golden["x_sum"], rel=1e-9)
        assert float(np.sum(result.y)) == pytest.approx(golden["y_sum"], rel=1e-9)
        assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
            golden["x_dot"], rel=1e-9
        )
        # Congestion metrics must stay absent unless explicitly requested.
        assert ev.congestion_peak_overflow is None


class TestPresetRegressionTraced:
    """The same goldens with the tracing subsystem active.

    Tracing performs no array arithmetic, so enabling it must leave every
    preset's metrics and position checksums untouched (the observability
    PR's bit-exactness contract).
    """

    @pytest.mark.parametrize("preset", sorted(_PRESET_GOLDEN))
    def test_preset_golden_unchanged_under_tracing(self, preset):
        overrides = dict(_FAST) if preset != "dreamplace" else {"max_iterations": 60}
        design = load_benchmark("sb_mini_18", scale=0.4)
        stop_tracing()
        tracer = start_tracing()
        try:
            result = build_flow(preset, **overrides).run(design, seed=0)
        finally:
            stop_tracing()
        golden = _PRESET_GOLDEN[preset]
        ev = result.evaluation
        assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
        assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
        assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)
        assert float(np.sum(result.x)) == pytest.approx(golden["x_sum"], rel=1e-9)
        assert float(np.sum(result.y)) == pytest.approx(golden["y_sum"], rel=1e-9)
        assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
            golden["x_dot"], rel=1e-9
        )
        # The run actually traced: the GP loop produced iteration spans.
        assert "gp.iteration" in tracer.metrics()["spans"]


# ----------------------------------------------------------------------
# Goldens where the timing feedback acts (sb_mini_1 scale 0.4, seed 0).
# ----------------------------------------------------------------------
_ROUTABILITY_GP_ACTING = dict(
    max_iterations=60,
    timing_start=20,
    timing_interval=10,
    congestion_start=10,
    congestion_interval=10,
    inflate=False,
)

# ``gp_*`` are checksums of the pre-legalization global-placement positions;
# ``max_net_weight`` is the largest net weight the placer ended with.
_ACTING_GOLDEN = {
    "efficient_tdp": {
        "gp_x_sum": 32825.78485692758,
        "gp_y_sum": 34636.51603384758,
        "gp_x_dot": 6268040.906473625,
        "gp_y_dot": 6548567.9952567695,
        "pin_pairs": 10,
        "max_net_weight": 1.0,
        "hpwl": 32405.856140350872,
        "tns": -1719.1598192249048,
        "wns": -101.92468112314094,
    },
    "dreamplace4": {
        "gp_x_sum": 32791.06133446671,
        "gp_y_sum": 34659.453935003556,
        "gp_x_dot": 6261853.547640845,
        "gp_y_dot": 6553387.072303004,
        "pin_pairs": 0,
        "max_net_weight": 1.1875,
        "hpwl": 33129.33947368422,
        "tns": -1851.2739696150918,
        "wns": -104.42874270503847,
    },
    "differentiable_tdp": {
        "gp_x_sum": 32821.81265516352,
        "gp_y_sum": 34642.72642198291,
        "gp_x_dot": 6267929.15114964,
        "gp_y_dot": 6549708.992143976,
        "pin_pairs": 10,
        "max_net_weight": 1.0,
        "hpwl": 32414.956140350878,
        "tns": -1751.0839493949732,
        "wns": -101.8309158455528,
    },
    "routability-gp": {
        "gp_x_sum": 32854.150036402236,
        "gp_y_sum": 34560.74567196716,
        "gp_x_dot": 6268301.432743297,
        "gp_y_dot": 6532665.126143207,
        "pin_pairs": 0,
        "max_net_weight": 1.5311816406249998,
        "hpwl": 32487.95,
        "tns": -1645.2863468544576,
        "wns": -82.96630223282278,
    },
}

_TIMING_PRESETS = ("efficient_tdp", "dreamplace4", "differentiable_tdp")


@pytest.fixture(scope="module")
def acting_runs():
    """One run per preset on sb_mini_1 at 0.4 scale, shared by the tests."""
    runs = {}
    for preset in sorted(_ACTING_GOLDEN):
        overrides = _ROUTABILITY_GP_ACTING if preset == "routability-gp" else _FAST
        design = load_benchmark("sb_mini_1", scale=0.4)
        runs[preset] = build_flow(preset, **overrides).run(design, seed=0)
    return runs


class TestActingFeedbackRegression:
    """Goldens on a design where every timing feedback changes the placement."""

    @pytest.mark.parametrize("preset", sorted(_ACTING_GOLDEN))
    def test_acting_preset_matches_golden(self, acting_runs, preset):
        result = acting_runs[preset]
        ctx = result.context
        golden = _ACTING_GOLDEN[preset]
        gx, gy = ctx.placement.x, ctx.placement.y
        assert float(np.sum(gx)) == pytest.approx(golden["gp_x_sum"], rel=1e-9)
        assert float(np.sum(gy)) == pytest.approx(golden["gp_y_sum"], rel=1e-9)
        assert float(np.dot(gx, np.arange(gx.size))) == pytest.approx(
            golden["gp_x_dot"], rel=1e-9
        )
        assert float(np.dot(gy, np.arange(gy.size))) == pytest.approx(
            golden["gp_y_dot"], rel=1e-9
        )
        pin_pairs = len(ctx.pin_pairs) if ctx.pin_pairs is not None else 0
        assert pin_pairs == golden["pin_pairs"]
        assert float(ctx.placer.net_weights.max()) == pytest.approx(
            golden["max_net_weight"], rel=1e-9
        )
        ev = result.evaluation
        assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
        assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
        assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)

    def test_timing_presets_place_differently(self, acting_runs):
        placements = {
            preset: (acting_runs[preset].context.placement.x,
                     acting_runs[preset].context.placement.y)
            for preset in _TIMING_PRESETS
        }
        for i, first in enumerate(_TIMING_PRESETS):
            for second in _TIMING_PRESETS[i + 1:]:
                ax, ay = placements[first]
                bx, by = placements[second]
                assert not (np.array_equal(ax, bx) and np.array_equal(ay, by)), (
                    f"{first} and {second} produced the same placement"
                )
