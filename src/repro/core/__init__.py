"""The paper's contribution: efficient critical path extraction driving a
fine-grained pin-to-pin attraction objective with a quadratic distance loss.

Public API:

* :class:`CriticalPathExtractor` — wraps the STA engine's reporting commands,
  including the proposed ``report_timing_endpoint(n, k)``.
* :class:`PinPairSet` — the maintained set ``P`` of attracted pin pairs and
  the path-sharing-aware weight update of Eq. 9.
* :class:`QuadraticLoss` / :class:`LinearLoss` / :class:`HPWLPairLoss` — the
  pin-to-pin distance losses compared in Sec. III-C.
* :class:`PinAttractionObjective` — the ``beta * PP(x, y)`` placement
  objective term (Eq. 6/10).
* :class:`SinglePathOptimizer` — the single-path study behind Fig. 3.

The complete flow of Fig. 1 (global placement -> periodic path-level timing
analysis -> pin-pair weighting -> legalization -> evaluation) is the
``efficient_tdp`` preset: ``repro.flow.build_flow("efficient_tdp")``, with
the feedback itself in :class:`repro.feedback.PinPairAttractionFeedback`.
"""

from repro.core.losses import HPWLPairLoss, LinearLoss, PairLoss, QuadraticLoss, make_loss
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.core.path_extraction import CriticalPathExtractor, ExtractionConfig
from repro.core.path_optimizer import SinglePathOptimizer, PathOptimizationResult

__all__ = [
    "PairLoss",
    "QuadraticLoss",
    "LinearLoss",
    "HPWLPairLoss",
    "make_loss",
    "PinPairSet",
    "PinAttractionObjective",
    "CriticalPathExtractor",
    "ExtractionConfig",
    "SinglePathOptimizer",
    "PathOptimizationResult",
]
