"""DREAMPlace-style analytical global placement substrate.

The package provides the nonlinear placement machinery the paper builds on
(Sec. II-A): a smoothed wirelength model with analytic gradients, an
electrostatics-based density penalty, a Nesterov-accelerated optimizer, and
row-based legalization.  The timing feedbacks in :mod:`repro.feedback` plug
net weights or pin-to-pin attraction terms into :class:`GlobalPlacer`.
"""

from repro.placement.wirelength import (
    hpwl_per_net,
    total_hpwl,
    WeightedAverageWirelength,
)
from repro.placement.density import ElectrostaticDensity, DensityResult
from repro.placement.nesterov import NesterovOptimizer
from repro.placement.initial import initial_placement
from repro.placement.objective import ObjectiveTerm, PlacementObjective
from repro.placement.global_placer import GlobalPlacer, PlacementConfig, PlacementHistory
from repro.placement.legalization.abacus import AbacusLegalizer
from repro.placement.legalization.greedy import GreedyLegalizer
from repro.placement.detailed import DetailedPlacer

__all__ = [
    "hpwl_per_net",
    "total_hpwl",
    "WeightedAverageWirelength",
    "ElectrostaticDensity",
    "DensityResult",
    "NesterovOptimizer",
    "initial_placement",
    "ObjectiveTerm",
    "PlacementObjective",
    "GlobalPlacer",
    "PlacementConfig",
    "PlacementHistory",
    "AbacusLegalizer",
    "GreedyLegalizer",
    "DetailedPlacer",
]
