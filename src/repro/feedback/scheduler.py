"""Cadenced dispatch of placement feedbacks inside the placer loop.

The :class:`FeedbackScheduler` is owned by
:class:`~repro.placement.global_placer.GlobalPlacer` and invoked once per
placement iteration.  It owns everything the feedback components must not:

* **cadence** — each slot pairs a feedback with a
  :class:`~repro.feedback.base.FeedbackCadence` (warmup / every-K /
  cooldown) and only fires when the cadence says so;
* **composition** — weight proposals from fired slots are merged by the
  shared :class:`~repro.feedback.composer.WeightComposer` and applied via
  ``placer.set_net_weights`` in one place, instead of every feedback
  clobbering the weight vector independently.  Proposals are cached per
  slot, so a slot on a slower cadence keeps contributing its last opinion
  while faster slots fire — neither signal starves between its own firings;
* **momentum** — one rule: after a dispatch in which any fired slot whose
  feedback ``resets_momentum`` returned an update, the optimizer's Nesterov
  momentum is reset once (the objective just changed under it);
* **accounting** — per-feedback wall-clock seconds, call counts, and the
  per-update trajectory rows (iteration, WNS, peak overflow, weight norm)
  that ``repro run --profile`` and the evaluation report surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.composer import WeightComposer
from repro.obs import clock, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.placement.global_placer import GlobalPlacer

__all__ = ["FeedbackSlot", "FeedbackScheduler", "feedback_record"]


@dataclass
class FeedbackSlot:
    """One scheduled feedback: the component plus when it fires."""

    feedback: PlacementFeedback
    cadence: FeedbackCadence


def feedback_record(ctx: Any) -> Dict[str, Any]:
    """The flow-level feedback accounting record (shared across placers).

    Stored in ``ctx.metadata["feedback"]`` so the main placement run and any
    warm-started refine runs (routability repair) accumulate into the same
    trajectory/seconds containers, and so the CLI/evaluation layers can read
    it without holding a placer.
    """
    return ctx.metadata.setdefault(
        "feedback", {"trajectory": [], "seconds": {}, "calls": {}}
    )


class FeedbackScheduler:
    """Dispatch scheduled feedback slots for one placer (see module doc)."""

    def __init__(self, composer: Optional[WeightComposer] = None) -> None:
        self.slots: List[FeedbackSlot] = []
        self.composer = composer
        self.trajectory: List[Dict[str, Any]] = []
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._last_proposals: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add(
        self,
        feedback: PlacementFeedback,
        cadence: Optional[FeedbackCadence] = None,
    ) -> FeedbackSlot:
        slot = FeedbackSlot(
            feedback=feedback,
            cadence=cadence if cadence is not None else FeedbackCadence(),
        )
        self.slots.append(slot)
        return slot

    def bind(
        self,
        *,
        composer: Optional[WeightComposer] = None,
        trajectory: Optional[List[Dict[str, Any]]] = None,
        seconds: Optional[Dict[str, float]] = None,
        calls: Optional[Dict[str, int]] = None,
    ) -> None:
        """Share composer / accounting containers across placer instances.

        Refine placements (the inflation loop) construct fresh placers, each
        with its own scheduler; binding them to the flow-level containers
        keeps one continuous weight state and one trajectory per run.
        """
        if composer is not None:
            self.composer = composer
        if trajectory is not None:
            self.trajectory = trajectory
        if seconds is not None:
            self.seconds = seconds
        if calls is not None:
            self.calls = calls

    # ------------------------------------------------------------------
    # Per-iteration dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self,
        placer: "GlobalPlacer",
        iteration: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        proposals: Dict[str, np.ndarray] = {}
        metrics: Dict[str, float] = {}
        fired: List[str] = []
        reset_momentum = False
        for slot in self.slots:
            if not slot.cadence.fires(iteration):
                # A slot past its cooldown boundary is retired: drop its
                # cached proposal so the composer's momentum glides the
                # signal back out instead of freezing the last boost in.
                if (
                    slot.cadence.end is not None
                    and iteration > slot.cadence.end
                ):
                    self._last_proposals.pop(slot.feedback.name, None)
                continue
            feedback = slot.feedback
            start = clock()
            with span(f"feedback.{feedback.name}", i=iteration):
                update = feedback.update(placer, iteration, x, y)
            elapsed = clock() - start
            self.seconds[feedback.name] = self.seconds.get(feedback.name, 0.0) + elapsed
            self.calls[feedback.name] = self.calls.get(feedback.name, 0) + 1
            if update is None:
                continue
            fired.append(feedback.name)
            metrics.update(update.metrics)
            reset_momentum = reset_momentum or feedback.resets_momentum
            if update.proposal is not None:
                proposals[feedback.name] = update.proposal
                self._last_proposals[feedback.name] = update.proposal
        if proposals:
            if self.composer is None:
                self.composer = WeightComposer()
            # Compose the fired proposals together with the cached latest
            # proposal of every slower slot, so interleaved cadences still
            # produce jointly-weighted nets.
            weights = self.composer.compose(dict(self._last_proposals))
            placer.set_net_weights(weights)
            metrics.update(self.composer.summary())
        if reset_momentum:
            placer.reset_optimizer_momentum()
        if fired:
            row: Dict[str, Any] = {"iteration": int(iteration), "fired": fired}
            row.update(metrics)
            self.trajectory.append(row)

    def finalize(self, placer: "GlobalPlacer") -> None:
        for slot in self.slots:
            slot.feedback.finalize(placer)
