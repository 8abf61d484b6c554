"""Per-layer ledger: wall time, self time and call counts at layer boundaries.

The ledger wraps the public entry points of each ``repro`` layer (the stage
``run`` methods, the gradient models, the optimizer step, STA, path
extraction, pin-pair upkeep, net weighting, kernel dispatch, legalization
and evaluation) for the duration of one traced flow.  Each wrapper records

* ``wall``  — summed duration of the calls;
* ``self``  — ``wall`` minus the part covered by nested wrapped calls;
* ``calls`` — number of calls,

plus counts read from the call's public return value or the engine's public
state right after the call (``PathExtractionStats``,
``STAEngine.last_update_stats``, the kernel results list).  No span name of
the program's own tracer is used, so a refactor that renames spans leaves
these metrics intact.  The program's code is never modified: the wrappers
are installed on the classes on entry and removed on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# (module, class, method, layer key).  The key's prefix is the ``repro``
# package the entry point belongs to.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.flow", "TimingWeightStage", "run", "flow.stage.timing_weight"),
    ("repro.flow", "GlobalPlaceStage", "run", "flow.stage.global_place"),
    ("repro.flow", "LegalizeStage", "run", "flow.stage.legalize"),
    ("repro.flow", "EvaluateStage", "run", "flow.stage.evaluate"),
    ("repro.placement", "WeightedAverageWirelength", "evaluate", "placement.wirelength"),
    ("repro.placement", "ElectrostaticDensity", "evaluate", "placement.density"),
    ("repro.placement", "NesterovOptimizer", "step_once", "placement.optimizer"),
    ("repro.placement", "AbacusLegalizer", "legalize", "placement.legalize"),
    ("repro.placement", "GreedyLegalizer", "legalize", "placement.legalize"),
    ("repro.timing", "STAEngine", "update_timing", "timing.sta"),
    ("repro.core", "CriticalPathExtractor", "extract", "core.extract"),
    ("repro.core", "PinPairSet", "update_from_paths", "core.pin_pair_update"),
    ("repro.core", "PinAttractionObjective", "evaluate", "core.attraction"),
    ("repro.weighting", "MomentumNetWeighting", "update", "weighting.net_weight"),
    ("repro.parallel", "KernelPool", "run", "parallel.dispatch"),
    ("repro.evaluation", "Evaluator", "evaluate", "evaluation.evaluate"),
)


@dataclass
class LayerRecord:
    wall: float = 0.0
    self: float = 0.0
    calls: int = 0
    durations: List[float] = field(default_factory=list)


def _count_sta(counts: Dict[str, float], args: tuple, result: object) -> None:
    stats = args[0].last_update_stats
    if stats is None:
        return
    counts["timing.sta_incremental"] += stats.mode == "incremental"
    counts["timing.sta_pins_recomputed"] += stats.num_forward_pins + stats.num_backward_pins


def _count_extract(counts: Dict[str, float], args: tuple, result: object) -> None:
    _paths, stats = result
    counts["core.paths"] += stats.num_paths
    counts["core.paths_analyzed"] += stats.num_paths_analyzed


def _count_dispatch(counts: Dict[str, float], args: tuple, result: object) -> None:
    counts["parallel.tasks"] += len(result)


OBSERVERS: Dict[str, Callable[[Dict[str, float], tuple, object], None]] = {
    "timing.sta": _count_sta,
    "core.extract": _count_extract,
    "parallel.dispatch": _count_dispatch,
}


class Ledger:
    """Install wrappers on entry, remove them on exit; read ``records``."""

    def __init__(self) -> None:
        self.records: Dict[str, LayerRecord] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[type, str, Optional[object]]] = []

    def _wrap(self, cls: type, method: str, key: str) -> None:
        original = getattr(cls, method)
        record = self.records.setdefault(key, LayerRecord())
        observe = OBSERVERS.get(key)
        stack = self._stack
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record.wall += elapsed
                record.self += elapsed - nested[0]
                record.calls += 1
                record.durations.append(elapsed)
            if observe is not None:
                observe(counts, args, result)
            return result

        self._restore.append((cls, method, cls.__dict__.get(method)))
        setattr(cls, method, wrapper)

    def __enter__(self) -> "Ledger":
        for module, cls_name, method, key in ENTRY_POINTS:
            self._wrap(getattr(importlib.import_module(module), cls_name), method, key)
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, own in reversed(self._restore):
            if own is None:
                delattr(cls, method)
            else:
                setattr(cls, method, own)
        self._restore.clear()

    def self_seconds(self) -> float:
        """Total self time over every wrapped layer."""
        return sum(record.self for record in self.records.values())
