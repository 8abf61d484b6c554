"""Unified placement-feedback architecture.

Everything that periodically analyzes an in-progress placement and folds the
result back into the optimization — timing criticality, routing congestion,
and whatever comes next (density targets, IR drop, ECO deltas) — goes
through one composition seam:

* :class:`~repro.feedback.base.PlacementFeedback` — the component protocol
  (``prepare`` / ``attach`` / ``update`` / ``finalize``);
* :class:`~repro.feedback.base.FeedbackCadence` — warmup / every-K /
  cooldown firing windows;
* :class:`~repro.feedback.scheduler.FeedbackScheduler` — owned by the
  global placer; dispatches slots on cadence, applies composed weights,
  and keeps per-feedback runtime + trajectory accounting;
* :class:`~repro.feedback.composer.WeightComposer` — merges several per-net
  weight proposals (timing criticality x congestion penalty) with shared
  momentum, clamping, and log-proportional normalization;
* :mod:`~repro.feedback.timing` — the timing feedbacks of the paper and
  its baselines (pin-pair attraction, momentum net weighting, smoothed
  pin pairs, record-only) plus the composable
  :class:`~repro.feedback.timing.TimingCriticalityWeighting`;
* :class:`~repro.feedback.congestion.CongestionNetWeighting` — the
  composable congestion signal.

Flow integration lives in :class:`repro.flow.stages.FeedbackWeightStage`,
the one stage every feedback-driven preset uses.
"""

from repro.feedback.base import FeedbackCadence, FeedbackUpdate, PlacementFeedback
from repro.feedback.composer import WeightComposer, WeightComposerConfig
from repro.feedback.congestion import CongestionNetWeighting
from repro.feedback.scheduler import FeedbackScheduler, FeedbackSlot, feedback_record
from repro.feedback.timing import (
    MomentumNetWeightFeedback,
    PinPairAttractionFeedback,
    RecordTimingFeedback,
    SmoothPinPairFeedback,
    TimingCriticalityWeighting,
    TimingFeedback,
)

__all__ = [
    "CongestionNetWeighting",
    "FeedbackCadence",
    "FeedbackScheduler",
    "FeedbackSlot",
    "FeedbackUpdate",
    "MomentumNetWeightFeedback",
    "PinPairAttractionFeedback",
    "PlacementFeedback",
    "RecordTimingFeedback",
    "SmoothPinPairFeedback",
    "TimingCriticalityWeighting",
    "TimingFeedback",
    "WeightComposer",
    "WeightComposerConfig",
    "feedback_record",
]
