"""Timing signals as placement-feedback components.

The paper's method and its baselines share one mechanism: run STA every
``m`` placement iterations and fold the result back into the GP loop.  They
differ only in *how* the result is folded in, so each is one
:class:`TimingFeedback` subclass:

* :class:`PinPairAttractionFeedback` — the paper: critical path extraction
  with ``report_timing_endpoint(n, k)``, the Eq. 9 pin-pair weight update,
  and the pin-to-pin attraction term (Eq. 6/8/10);
* :class:`MomentumNetWeightFeedback` — DREAMPlace 4.0 (Liao et al.,
  DATE'22): Eq. 5 momentum net weights, compounded on the current weights
  and applied to the placer directly;
* :class:`SmoothPinPairFeedback` — Differentiable-TDP (Guo & Lin, DAC'22):
  path-free attraction over every net arc, weighted by a smoothed sink
  criticality;
* :class:`RecordTimingFeedback` — observation only (TNS/WNS trajectories
  for Fig. 5);
* :class:`TimingCriticalityWeighting` — the *composable* signal: proposes
  ``1 + max_boost * criticality`` per net and leaves momentum, clamping and
  application to the shared :class:`~repro.feedback.composer.WeightComposer`,
  so it merges with congestion weighting.

The base class owns what they share: the flow's STA engine, the profiler
sections, ``ctx.sta_result``, and the TNS/WNS history and trajectory rows.
Whether a firing resets the optimizer's momentum is the scheduler's call
(``resets_momentum``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.losses import LinearLoss, make_loss
from repro.core.path_extraction import CriticalPathExtractor, ExtractionConfig
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.feedback.base import FeedbackUpdate, PlacementFeedback
from repro.timing.mcmm import MultiCornerResult, MultiCornerSTA
from repro.timing.report import PathSet
from repro.timing.sta import STAResult
from repro.utils.logging import get_logger
from repro.weighting.net_weighting import MomentumNetWeighting, net_criticality
from repro.weighting.pin_weighting import smooth_pin_pair_weights

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.placement.global_placer import GlobalPlacer

__all__ = [
    "MomentumNetWeightFeedback",
    "PinPairAttractionFeedback",
    "RecordTimingFeedback",
    "SmoothPinPairFeedback",
    "TimingCriticalityWeighting",
    "TimingFeedback",
    "calibrate_attraction_weight",
    "merged_result",
]

logger = get_logger("feedback.timing")


def merged_result(result: "STAResult | MultiCornerResult") -> STAResult:
    """Single-corner view of a timing result.

    Multi-corner results collapse to their pessimistic merge (per-pin worst
    slack over corners) — the quantity MCMM-aware timing feedback optimizes;
    single-corner results pass through unchanged.
    """
    return result.merged if isinstance(result, MultiCornerResult) else result


def calibrate_attraction_weight(
    placer: "GlobalPlacer",
    attraction: PinAttractionObjective,
    num_pairs: int,
    ratio: float,
    x: np.ndarray,
    y: np.ndarray,
) -> bool:
    """Scale the attraction weight so the *average per-pair* force is
    ``ratio`` times the *average per-cell* wirelength force.

    The paper's absolute ``beta = 2.5e-5`` is tied to DREAMPlace's internal
    gradient scaling; reproducing the relative strength of the two forces is
    what transfers across engines.  Normalizing per pair / per cell keeps
    the calibration independent of how many pairs have been extracted so
    far.  Both attraction feedbacks calibrate through this one helper so
    their comparison is about *which* pins are attracted, not about force
    magnitudes.  Returns True once calibrated.
    """
    wl = placer.wirelength.evaluate(x, y, net_weights=placer.net_weights)
    wl_norm = float(np.abs(wl.grad_x).sum() + np.abs(wl.grad_y).sum())
    num_movable = max(int(placer.design.arrays.movable_mask.sum()), 1)
    pp_norm = attraction.gradient_norm(x, y)
    num_pairs = max(num_pairs, 1)
    if pp_norm > 1e-12 and wl_norm > 1e-12:
        attraction.weight = ratio * (wl_norm / num_movable) / (pp_norm / num_pairs)
        logger.debug("calibrated attraction weight to %.3e", attraction.weight)
        return True
    return False


@dataclass
class TimingFeedback(PlacementFeedback):
    """STA on the flow's shared engine, then one fold-in step.

    Subclasses implement :meth:`apply`, which runs in the profiler's
    ``weighting`` section and may return a per-net weight proposal for the
    composer; :meth:`analyze` runs after STA in the ``timing_analysis``
    section.  ``sta_incremental`` / ``sta_move_tolerance`` select the
    engine's incremental mode between firings (exact with tolerance 0).
    """

    sta_incremental: bool = False
    sta_move_tolerance: float = 0.0

    # Bound by prepare(): the flow context and its shared STA engine.
    ctx = None
    sta = None

    def prepare(self, ctx: Any) -> None:
        self.ctx = ctx
        with ctx.profiler.section("io"):
            self.sta = ctx.require_sta(
                incremental=self.sta_incremental,
                move_tolerance=self.sta_move_tolerance,
            )

    def analyze(self, result: "STAResult | MultiCornerResult") -> None:
        """Extra analysis of a fresh timing result (default: none)."""

    def apply(
        self,
        placer: "GlobalPlacer",
        result: "STAResult | MultiCornerResult",
        x: np.ndarray,
        y: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Fold the timing result into the placer; optionally propose weights."""
        return None

    def update(
        self,
        placer: "GlobalPlacer",
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Optional[FeedbackUpdate]:
        if self.sta is None:
            raise RuntimeError(
                f"{type(self).__name__}.update before prepare(): the feedback "
                "needs the flow's shared STA engine"
            )
        ctx = self.ctx
        with ctx.profiler.section("timing_analysis"):
            result = self.sta.update_timing(x, y)
            self.analyze(result)
        with ctx.profiler.section("weighting"):
            proposal = self.apply(placer, result, x, y)
        ctx.sta_result = result
        placer.history.record_extra("tns", iteration, result.tns)
        placer.history.record_extra("wns", iteration, result.wns)
        return FeedbackUpdate(
            proposal=proposal,
            metrics={"tns": float(result.tns), "wns": float(result.wns)},
        )


@dataclass
class PinPairAttractionFeedback(TimingFeedback):
    """The paper's feedback: critical path extraction feeding pin pairs.

    Every firing runs STA, extracts critical paths with
    ``report_timing_endpoint(n, k)``, applies the Eq. 9 pin-pair weight
    update, and (once, in ``beta_mode="auto"``) calibrates the attraction
    strength against the wirelength gradient.
    """

    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    w0: float = 10.0
    w1: float = 0.2
    loss: str = "quadratic"
    beta: float = 2.5e-5
    beta_mode: str = "auto"
    beta_auto_ratio: float = 4.0
    verbose: bool = False

    name = "pin_pair"

    def prepare(self, ctx: Any) -> None:
        super().prepare(ctx)
        with ctx.profiler.section("io"):
            # One extractor per corner: critical paths are corner-specific
            # (a path failing only at the slow corner must still attract its
            # pins), so MCMM extraction walks every corner's annotations and
            # pools the pin pairs.  Single-corner flows keep one extractor.
            if isinstance(self.sta, MultiCornerSTA):
                self.extractors = [
                    CriticalPathExtractor(self.sta.corner_view(index), self.extraction)
                    for index in range(self.sta.num_corners)
                ]
            else:
                self.extractors = [CriticalPathExtractor(self.sta, self.extraction)]
            self.pairs = PinPairSet(w0=self.w0, w1=self.w1)
            self.attraction = PinAttractionObjective(
                ctx.design,
                self.pairs,
                loss=make_loss(self.loss),
                beta=self.beta,
            )
        ctx.pin_pairs = self.pairs
        self.beta_calibrated = self.beta_mode != "auto"
        self.paths: Optional[PathSet] = None

    def attach(self, placer: "GlobalPlacer") -> None:
        placer.add_objective_term(self.attraction)

    def analyze(self, result: "STAResult | MultiCornerResult") -> None:
        corner_paths = []
        for index, extractor in enumerate(self.extractors):
            corner_result = (
                result.corner_result(index)
                if isinstance(result, MultiCornerResult)
                else result
            )
            paths, stats = extractor.extract(corner_result)
            corner_paths.append(paths)
            self.ctx.extraction_stats.append(stats)
        self.paths = PathSet.concat(corner_paths, self.sta.graph)

    def apply(self, placer, result, x, y) -> None:
        # Consume the firing's paths so they are not kept alive between
        # firings.
        paths, self.paths = self.paths, None
        self.pairs.update_from_paths(paths, self.sta.graph, result.wns)
        if not self.beta_calibrated and len(self.pairs) > 0:
            self.beta_calibrated = calibrate_attraction_weight(
                placer, self.attraction, len(self.pairs), self.beta_auto_ratio, x, y
            )
        if self.verbose:
            logger.info(
                "timing update: tns=%.1f wns=%.1f pairs=%d",
                result.tns,
                result.wns,
                len(self.pairs),
            )


@dataclass
class MomentumNetWeightFeedback(TimingFeedback):
    """DREAMPlace 4.0-style momentum net weighting (Eq. 5).

    Compounds on the placer's current weights and applies them itself (see
    :class:`~repro.weighting.MomentumNetWeighting`), so it never proposes to
    the composer.
    """

    momentum_decay: float = 0.75
    max_boost: float = 0.75
    max_weight: float = 6.0

    name = "net_weight"

    def prepare(self, ctx: Any) -> None:
        super().prepare(ctx)
        self.weighting = MomentumNetWeighting(
            decay=self.momentum_decay,
            max_boost=self.max_boost,
            max_weight=self.max_weight,
        )

    def apply(self, placer, result, x, y) -> None:
        placer.set_net_weights(
            self.weighting.update(self.ctx.design, merged_result(result), placer.net_weights)
        )


@dataclass
class SmoothPinPairFeedback(TimingFeedback):
    """Differentiable-TDP-style smoothed, path-free pin-pair attraction.

    Every firing rebuilds the attraction set over *all* net arcs, weighted
    by a sigmoid criticality of the sink pin's slack, with a linear
    distance loss: every path counts implicitly, but through a smoothed
    timing signal rather than explicitly extracted paths.
    """

    temperature: float = 0.25
    criticality_threshold: float = 0.05
    attraction_ratio: float = 0.15

    name = "smooth_pair"

    def prepare(self, ctx: Any) -> None:
        super().prepare(ctx)
        self.pairs = PinPairSet()
        self.attraction = PinAttractionObjective(
            ctx.design, self.pairs, loss=LinearLoss(), beta=1.0
        )
        self.calibrated = False
        ctx.pin_pairs = self.pairs

    def attach(self, placer: "GlobalPlacer") -> None:
        placer.add_objective_term(self.attraction)

    def apply(self, placer, result, x, y) -> None:
        weights = smooth_pin_pair_weights(
            self.ctx.design,
            self.sta.graph,
            merged_result(result),
            temperature=self.temperature,
            threshold=self.criticality_threshold,
        )
        self.pairs.set_weights(weights)
        if not self.calibrated and weights:
            self.calibrated = calibrate_attraction_weight(
                placer, self.attraction, len(self.pairs), self.attraction_ratio, x, y
            )


@dataclass
class RecordTimingFeedback(TimingFeedback):
    """Pure observation: run STA and record TNS/WNS, change nothing."""

    name = "record"
    resets_momentum = False


@dataclass
class TimingCriticalityWeighting(TimingFeedback):
    """Composable timing-criticality net-weight proposal (momentum-free).

    Proposes ``1 + max_boost * criticality`` per net, with the Eq. 5
    criticality of :func:`~repro.weighting.net_criticality` on the merged
    (worst-over-corners) slack.  Nets below ``criticality_threshold``
    propose exactly 1.  The shared composer applies momentum toward this
    *absolute* target and clamps the result (to ``[1, 6]`` with the target
    capped at 4 by default), so the composed weights are bounded by what
    the signal currently says.  :class:`MomentumNetWeightFeedback` instead
    compounds on the current weights; the two recurrences differ.
    """

    max_boost: float = 0.75
    # Composing timing with congestion is a fight over the same HPWL budget,
    # and boosting the long tail of mildly-critical nets spends that budget
    # without moving WNS; 0 keeps the full Eq. 5 criticality profile.
    criticality_threshold: float = 0.0

    name = "timing"

    def __post_init__(self) -> None:
        if self.max_boost < 0.0:
            raise ValueError("max_boost must be non-negative")
        if not 0.0 <= self.criticality_threshold < 1.0:
            raise ValueError("criticality_threshold must be within [0, 1)")

    def apply(self, placer, result, x, y) -> np.ndarray:
        criticality = net_criticality(self.ctx.design, merged_result(result))
        if self.criticality_threshold > 0.0:
            criticality[criticality < self.criticality_threshold] = 0.0
        return 1.0 + self.max_boost * criticality
