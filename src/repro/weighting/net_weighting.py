"""Momentum-based net weighting (DREAMPlace 4.0 style).

DREAMPlace 4.0 periodically queries the timer for pin slacks, derives a
criticality per net from the worst slack of the net's pins, and folds it into
the net weights with a momentum term so weights grow smoothly across timing
iterations (Eq. 5 of the paper).  This module reimplements that interface on
top of the :class:`repro.timing.STAEngine`; it is used both by the
``dreamplace4`` preset and by the paper's "w/o Path Extraction" ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.design import Design
from repro.timing.sta import STAResult


def net_worst_slack(design: Design, result: STAResult) -> np.ndarray:
    """Worst (most negative) pin slack of each net.

    Pins on unconstrained cones carry +inf-like slacks; nets with no
    constrained pin keep a large positive value and therefore zero
    criticality.
    """
    arrays = design.arrays
    num_nets = arrays.num_nets
    worst = np.full(num_nets, np.inf, dtype=np.float64)
    csr_net = np.repeat(np.arange(num_nets), np.diff(arrays.net_pin_offsets))
    pin_slack = result.slack[arrays.net_pin_index]
    np.minimum.at(worst, csr_net, pin_slack)
    return worst


def net_criticality(design: Design, result: STAResult) -> np.ndarray:
    """Eq. 5 criticality of each net: its share of the worst negative slack.

    ``clip(worst_slack / WNS, 0, 1)`` — 1 at the WNS net, 0 for nets whose
    worst slack is non-negative or that carry no constrained pin.
    """
    worst = net_worst_slack(design, result)
    wns = min(result.wns, -1e-12)
    criticality = np.clip(worst / wns, 0.0, 1.0)
    criticality[~np.isfinite(worst)] = 0.0
    return criticality


@dataclass
class MomentumNetWeighting:
    """Momentum-guided multiplicative net weighting.

    Each timing iteration, a net's criticality is its share of the worst
    negative slack, and its weight is pushed toward ``w * (1 + max_boost *
    criticality)`` with momentum ``decay``:

        w_e  <-  decay * w_e + (1 - decay) * w_e * (1 + max_boost * crit_e)

    Non-critical nets keep their weight, so repeated applications compound on
    persistently critical nets — the "momentum" behaviour of DREAMPlace 4.0.
    """

    decay: float = 0.75
    max_boost: float = 3.0
    max_weight: float = 16.0

    def update(
        self,
        design: Design,
        result: STAResult,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Return updated net weights (the input array is not modified)."""
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must be within [0, 1]")
        criticality = net_criticality(design, result)
        target = weights * (1.0 + self.max_boost * criticality)
        updated = self.decay * weights + (1.0 - self.decay) * target
        return np.minimum(updated, self.max_weight)
