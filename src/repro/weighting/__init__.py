"""Net-based timing-driven weighting schemes (the interface DREAMPlace 4.0 uses)."""

from repro.weighting.net_weighting import (
    MomentumNetWeighting,
    net_criticality,
    net_worst_slack,
)
from repro.weighting.pin_weighting import pin_criticality, smooth_pin_pair_weights

__all__ = [
    "MomentumNetWeighting",
    "net_criticality",
    "net_worst_slack",
    "pin_criticality",
    "smooth_pin_pair_weights",
]
