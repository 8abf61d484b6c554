"""Named flow presets: the paper's flow and its baselines as stage lists.

A preset couples a default config class with a function that expands the
config into stages.  The three timing-driven presets share one schedule
(:class:`TimingFlowConfig`) and one stage shape — ``feedback_weight ->
global_place -> legalize -> evaluate`` — and differ only in the timing
feedback they schedule.  Four presets mirror the Table II methods, plus two
for the routability workload:

* ``efficient_tdp``       — the paper's flow (path extraction + pin pairs);
* ``dreamplace``          — wirelength/density only;
* ``dreamplace4``         — momentum net weighting (DREAMPlace 4.0 style);
* ``differentiable_tdp``  — smoothed path-free pin attraction;
* ``routability``         — congestion-driven placement: RUDY congestion
  maps feeding a cell-inflation repair loop;
* ``routability-gp``      — congestion + timing net weighting composed
  *inside* the global-place loop (feedback scheduler + weight composer),
  with the inflation loop as post-place cleanup.

``build_flow("efficient_tdp", max_iterations=300, seed=7)`` returns a ready
:class:`FlowRunner`; unknown override keys raise immediately, which is what
makes the CLI's ``--set key=value`` safe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.path_extraction import ExtractionConfig
from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.timing import (
    MomentumNetWeightFeedback,
    PinPairAttractionFeedback,
    RecordTimingFeedback,
    SmoothPinPairFeedback,
)
from repro.flow.runner import FlowRunner
from repro.flow.stage import FlowStage
from repro.flow.stages import (
    CongestionStage,
    EvaluateStage,
    FeedbackWeightStage,
    GlobalPlaceStage,
    LegalizeStage,
    RoutabilityRepairStage,
)
from repro.placement.global_placer import PlacementConfig
from repro.route.flow import RoutabilityConfig, RoutabilityGPConfig


@dataclass(frozen=True)
class FlowPreset:
    """A named, configurable stage composition."""

    name: str
    description: str
    config_factory: Callable[[], Any]
    stage_factory: Callable[[Any], List[FlowStage]]

    def default_config(self) -> Any:
        return self.config_factory()


_PRESETS: Dict[str, FlowPreset] = {}


def register_preset(preset: FlowPreset) -> FlowPreset:
    if preset.name in _PRESETS:
        raise ValueError(f"Preset {preset.name!r} is already registered")
    _PRESETS[preset.name] = preset
    return preset


def get_preset(name: str) -> FlowPreset:
    try:
        return _PRESETS[name]
    except KeyError as exc:
        raise KeyError(
            f"Unknown flow preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from exc


def preset_names() -> List[str]:
    return sorted(_PRESETS)


def make_config(preset_name: str, config: Any = None, **overrides: Any) -> Any:
    """Build (or copy) a preset config and apply field overrides."""
    preset = get_preset(preset_name)
    cfg = preset.default_config() if config is None else copy.deepcopy(config)
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise AttributeError(
                f"{type(cfg).__name__} has no field {key!r} (preset {preset_name!r})"
            )
        setattr(cfg, key, value)
    return cfg


def build_stages(preset_name: str, config: Any = None, **overrides: Any) -> List[FlowStage]:
    """Expand a preset into its stage list."""
    preset = get_preset(preset_name)
    cfg = make_config(preset_name, config, **overrides)
    return preset.stage_factory(cfg)


def build_flow(preset_name: str, config: Any = None, **overrides: Any) -> FlowRunner:
    """Build a ready-to-run :class:`FlowRunner` from a preset."""
    preset = get_preset(preset_name)
    cfg = make_config(preset_name, config, **overrides)
    return FlowRunner(
        preset.stage_factory(cfg),
        name=preset_name,
        kernel_workers=int(getattr(cfg, "kernel_workers", 0) or 0),
    )


# ----------------------------------------------------------------------
# Preset configs
# ----------------------------------------------------------------------
@dataclass
class TimingFlowConfig:
    """The schedule every timing-driven preset shares.

    Placement runs at least ``timing_start_iteration +
    min_timing_iterations`` iterations; timing feedback fires from
    ``timing_start_iteration`` every ``timing_update_interval`` (``m``)
    iterations.
    """

    max_iterations: int = 450
    timing_start_iteration: int = 150
    min_timing_iterations: int = 120
    stop_overflow: float = 0.08
    target_density: float = 1.0
    seed: int = 0
    timing_update_interval: int = 15   # m
    # MCMM analysis corners: None (single-corner), a preset string such as
    # "fast,typ,slow", or a sequence of Corner objects.  Timing feedback
    # then optimizes against the merged (worst-over-corners) slack.
    corners: Optional[object] = None
    verbose: bool = False
    # Kernel-pool workers for the density / congestion / STA hot paths
    # (0 = serial; see repro.parallel for the bit-exactness guarantee).
    kernel_workers: int = 0
    # Record placement history every N iterations (1 = every iteration;
    # the optimization trajectory is bitwise unaffected).
    history_every: int = 1

    def placement_config(self) -> PlacementConfig:
        return PlacementConfig(
            max_iterations=self.max_iterations,
            min_iterations=self.timing_start_iteration + self.min_timing_iterations,
            stop_overflow=self.stop_overflow,
            target_density=self.target_density,
            seed=self.seed,
            verbose=self.verbose,
            kernel_workers=self.kernel_workers,
            history_every=self.history_every,
        )


@dataclass
class EfficientTDPConfig(TimingFlowConfig):
    """The paper's flow; hyper-parameter defaults follow Sec. IV."""

    beta: float = 2.5e-5
    beta_mode: str = "auto"        # "auto": rescale beta against the WL gradient
    beta_auto_ratio: float = 4.0   # per-pair attraction force vs per-cell WL force
    w0: float = 10.0
    w1: float = 0.2
    loss: str = "quadratic"
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    # STA engine mode between timing iterations (exact with tolerance 0).
    incremental_sta: bool = False
    sta_move_tolerance: float = 0.0
    legalize: bool = True


@dataclass
class DreamPlace4Config(TimingFlowConfig):
    """Momentum net weighting (DREAMPlace 4.0 style)."""

    # The weighting aggressiveness is calibrated so the baseline lands in the
    # operating envelope DREAMPlace 4.0 itself reports (~6% HPWL overhead on
    # the contest designs).  At these defaults it already beats the paper's
    # method on TNS/WNS on the sb_mini suite (Table II,
    # benchmarks/results/table2_main.txt), a measured negative result
    # tracked in ROADMAP.md.
    momentum_decay: float = 0.75
    max_boost: float = 0.75
    max_weight: float = 6.0


@dataclass
class DifferentiableTDPConfig(TimingFlowConfig):
    """Smoothed, path-free pin attraction (Differentiable-TDP style)."""

    temperature: float = 0.25
    criticality_threshold: float = 0.05
    attraction_ratio: float = 0.15


@dataclass
class DreamPlaceConfig(PlacementConfig):
    """Placement config plus the optional TNS/WNS recording interval."""

    record_timing_every: Optional[int] = None
    # MCMM corners spec (None, "fast,typ,slow", or Corner objects); affects
    # timing recording and evaluation (placement itself is timing-free).
    corners: Optional[object] = None


# ----------------------------------------------------------------------
# Stage factories
# ----------------------------------------------------------------------
def _timing_stages(
    config: TimingFlowConfig, feedback: PlacementFeedback, *, legalize: bool = True
) -> List[FlowStage]:
    """``feedback_weight -> global_place -> [legalize] -> evaluate``."""
    cadence = FeedbackCadence(
        start=config.timing_start_iteration, interval=config.timing_update_interval
    )
    stages: List[FlowStage] = [
        FeedbackWeightStage([(feedback, cadence)], corners=config.corners),
        GlobalPlaceStage(config.placement_config()),
    ]
    if legalize:
        stages.append(LegalizeStage())
    stages.append(EvaluateStage(corners=config.corners))
    return stages


def _efficient_tdp_stages(config: EfficientTDPConfig) -> List[FlowStage]:
    feedback = PinPairAttractionFeedback(
        sta_incremental=config.incremental_sta,
        sta_move_tolerance=config.sta_move_tolerance,
        extraction=config.extraction,
        w0=config.w0,
        w1=config.w1,
        loss=config.loss,
        beta=config.beta,
        beta_mode=config.beta_mode,
        beta_auto_ratio=config.beta_auto_ratio,
        verbose=config.verbose,
    )
    return _timing_stages(config, feedback, legalize=config.legalize)


def _dreamplace4_stages(config: DreamPlace4Config) -> List[FlowStage]:
    return _timing_stages(
        config,
        MomentumNetWeightFeedback(
            momentum_decay=config.momentum_decay,
            max_boost=config.max_boost,
            max_weight=config.max_weight,
        )
    )


def _differentiable_tdp_stages(config: DifferentiableTDPConfig) -> List[FlowStage]:
    return _timing_stages(
        config,
        SmoothPinPairFeedback(
            temperature=config.temperature,
            criticality_threshold=config.criticality_threshold,
            attraction_ratio=config.attraction_ratio,
        )
    )


def _dreamplace_stages(config: Any) -> List[FlowStage]:
    corners = getattr(config, "corners", None)
    stages: List[FlowStage] = []
    if getattr(config, "record_timing_every", None):
        stages.append(
            FeedbackWeightStage(
                [(RecordTimingFeedback(), FeedbackCadence(interval=config.record_timing_every))],
                corners=corners,
            )
        )
    stages.extend([GlobalPlaceStage(config), LegalizeStage(), EvaluateStage(corners=corners)])
    return stages


def _routability_stages(config: RoutabilityConfig) -> List[FlowStage]:
    placement_config = config.placement_config()
    stages: List[FlowStage] = [GlobalPlaceStage(placement_config)]
    return _routability_tail(config, stages, placement_config)


def _routability_gp_stages(config: RoutabilityGPConfig) -> List[FlowStage]:
    placement_config = config.placement_config()
    stages: List[FlowStage] = [
        FeedbackWeightStage(config.feedback_slots(), composer=config.composer_config()),
        GlobalPlaceStage(placement_config),
    ]
    return _routability_tail(config, stages, placement_config)


def _routability_tail(
    config: Any, stages: List[FlowStage], placement_config: PlacementConfig
) -> List[FlowStage]:
    """``[routability_repair] -> [legalize] -> congestion -> evaluate``."""
    if config.inflate:
        stages.append(
            RoutabilityRepairStage(
                congestion=config.congestion_config(),
                inflation=config.inflation_config(),
                refine_iterations=config.refine_iterations,
                placement_config=placement_config,
            )
        )
    if config.legalize:
        stages.append(LegalizeStage())
    stages.append(CongestionStage(config=config.congestion_config()))
    stages.append(EvaluateStage(corners=config.corners, congestion=config.congestion_config()))
    return stages


register_preset(
    FlowPreset(
        name="efficient_tdp",
        description="Efficient-TDP (ours): critical path extraction + pin-pair attraction",
        config_factory=EfficientTDPConfig,
        stage_factory=_efficient_tdp_stages,
    )
)
register_preset(
    FlowPreset(
        name="dreamplace",
        description="DREAMPlace-style wirelength/density placement (no timing feedback)",
        config_factory=DreamPlaceConfig,
        stage_factory=_dreamplace_stages,
    )
)
register_preset(
    FlowPreset(
        name="dreamplace4",
        description="DREAMPlace 4.0-style momentum net weighting",
        config_factory=DreamPlace4Config,
        stage_factory=_dreamplace4_stages,
    )
)
register_preset(
    FlowPreset(
        name="differentiable_tdp",
        description="Differentiable-TDP-style smoothed pin attraction",
        config_factory=DifferentiableTDPConfig,
        stage_factory=_differentiable_tdp_stages,
    )
)
register_preset(
    FlowPreset(
        name="routability",
        description=(
            "Routability-driven placement: RUDY congestion maps feeding a "
            "congestion-driven cell-inflation loop"
        ),
        config_factory=RoutabilityConfig,
        stage_factory=_routability_stages,
    )
)
register_preset(
    FlowPreset(
        name="routability-gp",
        description=(
            "Routability-driven global placement: congestion + timing net "
            "weighting composed inside the placement loop, inflation as "
            "post-place cleanup"
        ),
        config_factory=RoutabilityGPConfig,
        stage_factory=_routability_gp_stages,
    )
)
