"""Static timing analysis engine.

Given a placed design, :class:`STAEngine` computes, for every pin, the worst
arrival time, the required arrival time, and the slack, plus the design-level
WNS and TNS metrics defined in the paper (Eqs. 2-4).  Propagation is
vectorized level-by-level so that re-running STA inside the placement loop
(every ``m`` iterations in the paper's flow) remains cheap without a C++
timer.

The engine deliberately mirrors OpenTimer's interface shape used by
DREAMPlace 4.0: ``update_timing()`` refreshes arrival/required/slack, and the
report functions in :mod:`repro.timing.report` extract critical paths from the
annotated graph.

Incremental mode
----------------

When constructed with ``incremental=True`` the engine keeps the previous
update's positions, delays, and arrival/required annotations.  On the next
``update_timing`` it detects which instances moved beyond ``move_tolerance``,
re-evaluates wire and cell delays only for the nets those instances touch,
and re-propagates arrival/required times only from the dirty frontier,
level by level.  With ``move_tolerance=0`` the incremental result is exactly
(bitwise) the full recompute; a positive tolerance trades bounded staleness
for fewer net re-evaluations.  ``update_timing(..., incremental=False)`` is
the exact fallback: it forces a full recompute and reseeds every cache, and
the engine falls back on its own whenever the dirty-net fraction exceeds
``incremental_rebuild_fraction``.

Cost model: the sparse re-propagation pays a fixed per-logic-level overhead
(a handful of small numpy calls per touched level), so it wins once designs
reach roughly 10k cells or when repeated queries move little or nothing;
below that the fully vectorized full pass is already faster.  Flows that
move every cell every iteration should keep the default full mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.netlist.design import Design
from repro.obs import span
from repro.timing.constraints import Corner, TimingConstraints
from repro.timing.delay_model import CellDelayModel, WireRCModel
from repro.timing.graph import ArcKind, TimingGraph, csr_gather as _csr_gather

_NEG_INF = -1.0e30
_POS_INF = 1.0e30


def boundary_conditions(
    design: Design, graph: TimingGraph, constraints: TimingConstraints
) -> tuple:
    """Source arrivals and endpoint required times for one set of constraints.

    Returns ``(source_pins, source_arrival, endpoint_pins, endpoint_required)``
    as numpy arrays.  The pin sets depend only on the graph, the values only
    on the constraints — multi-corner analysis calls this once per corner and
    stacks the values over identical pin sets.
    """
    source_pins: List[int] = []
    source_arrival: List[float] = []
    for pin_index in graph.startpoints:
        pin = design.pins[pin_index]
        if pin.instance.is_port:
            arrival = constraints.input_delay(pin.instance.name)
        else:
            arrival = 0.0  # ideal clock at flip-flop clock pins
        source_pins.append(pin_index)
        source_arrival.append(arrival)

    endpoint_pins: List[int] = []
    endpoint_required: List[float] = []
    period = constraints.clock_period
    for pin_index in graph.endpoints:
        pin = design.pins[pin_index]
        if pin.instance.is_port:
            required = period - constraints.output_delay(pin.instance.name)
        else:
            required = period - constraints.setup_time
        endpoint_pins.append(pin_index)
        endpoint_required.append(required)

    return (
        np.array(source_pins, dtype=np.int64),
        np.array(source_arrival, dtype=np.float64),
        np.array(endpoint_pins, dtype=np.int64),
        np.array(endpoint_required, dtype=np.float64),
    )


def level_buckets(graph: TimingGraph) -> tuple:
    """Arc indices grouped by sink level (forward) / source level (backward).

    One bucket list per propagation direction; shared by the single-corner
    and multi-corner engines so the grouping is computed once per graph.
    """
    if graph.num_arcs == 0:
        return [], []
    to_level = graph.level[graph.arc_to]
    from_level = graph.level[graph.arc_from]
    max_level = graph.max_level
    forward = [
        np.ascontiguousarray(np.nonzero(to_level == lvl)[0], dtype=np.int64)
        for lvl in range(1, max_level + 1)
    ]
    backward = [
        np.ascontiguousarray(np.nonzero(from_level == lvl)[0], dtype=np.int64)
        for lvl in range(max_level - 1, -1, -1)
    ]
    return forward, backward


class _LevelWorklist:
    """Dirty pins bucketed by level, deduplicated with a seen mask.

    Keeps the frontier sparse: clean levels cost one dict probe, and no
    per-level scan over the whole pin array is ever needed.
    """

    __slots__ = ("level", "seen", "pending")

    def __init__(self, level: np.ndarray, num_pins: int) -> None:
        self.level = level
        self.seen = np.zeros(num_pins, dtype=bool)
        self.pending: Dict[int, List[np.ndarray]] = {}

    def mark(self, pins: np.ndarray) -> None:
        fresh = pins[~self.seen[pins]]
        if fresh.size == 0:
            return
        # Single grouping pass: one stable sort on the composite
        # (level, pin) key dedupes and orders simultaneously, replacing the
        # ``np.unique`` + per-level boolean-mask loop (which rescanned the
        # whole fresh set once per distinct level).  Buckets come out
        # identical: levels ascending, pins sorted and unique within each.
        levels = self.level[fresh]
        key = levels * np.int64(self.seen.size) + fresh
        order = np.argsort(key, kind="stable")
        key = key[order]
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        fresh = fresh[order[keep]]
        levels = levels[order[keep]]
        self.seen[fresh] = True
        boundary = np.empty(levels.size, dtype=bool)
        boundary[0] = True
        np.not_equal(levels[1:], levels[:-1], out=boundary[1:])
        starts = np.nonzero(boundary)[0]
        ends = np.append(starts[1:], levels.size)
        for s, e in zip(starts.tolist(), ends.tolist()):
            self.pending.setdefault(int(levels[s]), []).append(fresh[s:e])

    def pop(self, lvl: int) -> Optional[np.ndarray]:
        chunks = self.pending.pop(lvl, None)
        if not chunks:
            return None
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


@dataclass
class STAResult:
    """Snapshot of one timing update."""

    arrival: np.ndarray           # [num_pins] worst (latest) arrival time
    required: np.ndarray          # [num_pins] required arrival time
    slack: np.ndarray             # [num_pins] required - arrival
    arc_delay: np.ndarray         # [num_arcs] delay used for each arc
    net_load: np.ndarray          # [num_nets] driver load capacitance
    endpoint_pins: np.ndarray     # [num_endpoints] pin indices of endpoints
    endpoint_slack: np.ndarray    # [num_endpoints] slack per endpoint
    wns: float
    tns: float
    # Memoized views (endpoint lookups are hot inside path extraction).
    _failing_cache: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _endpoint_pos: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def failing_endpoints(self) -> np.ndarray:
        """Endpoint pin indices with negative slack, worst first (memoized).

        Ties keep endpoint order (stable sort), so this is the order in which
        path extraction visits failing endpoints.
        """
        if self._failing_cache is None:
            mask = self.endpoint_slack < 0
            failing = self.endpoint_pins[mask]
            order = np.argsort(self.endpoint_slack[mask], kind="stable")
            self._failing_cache = failing[order]
        return self._failing_cache

    @property
    def num_failing_endpoints(self) -> int:
        return int(np.sum(self.endpoint_slack < 0))

    def endpoint_slack_of(self, pin_index: int) -> float:
        """Slack of one endpoint pin, O(1) after the first lookup."""
        if self._endpoint_pos is None:
            # Keep the *first* position for any duplicate, matching the
            # linear scan this replaces (endpoints are unique in practice).
            pos_map: Dict[int, int] = {}
            for position, pin in enumerate(self.endpoint_pins):
                pos_map.setdefault(int(pin), position)
            self._endpoint_pos = pos_map
        position = self._endpoint_pos.get(int(pin_index))
        if position is None:
            raise KeyError(f"Pin {pin_index} is not an endpoint")
        return float(self.endpoint_slack[position])


@dataclass
class TimingUpdateStats:
    """Bookkeeping of one ``update_timing`` call (incremental diagnostics)."""

    mode: str                     # "full" or "incremental"
    num_moved_instances: int = 0
    num_dirty_nets: int = 0
    num_dirty_arcs: int = 0
    num_forward_pins: int = 0     # pins whose arrival was recomputed
    num_backward_pins: int = 0    # pins whose required was recomputed

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "moved_instances": self.num_moved_instances,
            "dirty_nets": self.num_dirty_nets,
            "dirty_arcs": self.num_dirty_arcs,
            "forward_pins": self.num_forward_pins,
            "backward_pins": self.num_backward_pins,
        }


class STAEngine:
    """Arrival/required/slack propagation over a :class:`TimingGraph`."""

    def __init__(
        self,
        design: Design,
        constraints: Optional[TimingConstraints] = None,
        *,
        corner: Optional[Corner] = None,
        graph: Optional[TimingGraph] = None,
        wire_model: Optional[WireRCModel] = None,
        incremental: bool = False,
        move_tolerance: float = 0.0,
        incremental_rebuild_fraction: float = 0.5,
        workers: int = 0,
        parallel_min_level_size: int = 2048,
        runner=None,
    ) -> None:
        self.design = design
        self.corner = corner
        if corner is not None:
            corner.validate()
            if constraints is None:
                constraints = corner.constraints
        self._rc_scale = 1.0 if corner is None else float(corner.wire_rc_scale)
        self._cell_derate = 1.0 if corner is None else float(corner.cell_derate)
        self._constraints = (
            constraints if constraints is not None else TimingConstraints.from_design(design)
        )
        self._constraints.validate()
        self.graph = graph if graph is not None else TimingGraph(design)
        self.wire_model = wire_model if wire_model is not None else WireRCModel(design)
        self.cell_model = CellDelayModel(self.graph)
        self.incremental = incremental
        self.move_tolerance = float(move_tolerance)
        self.incremental_rebuild_fraction = float(incremental_rebuild_fraction)
        # Parallel full-sweep sharding (see repro.parallel): with workers=0
        # and no injected runner the historical serial propagation runs
        # untouched.  Levels narrower than ``parallel_min_level_size`` are
        # swept inline — the per-level dispatch round trip only pays for
        # itself on wide levels.
        self.workers = int(workers)
        self.parallel_min_level_size = max(1, int(parallel_min_level_size))
        self._runner = runner
        self._runner_resolved = runner is not None
        self._pool_block = None
        self._level_pins: Optional[np.ndarray] = None
        self._level_pin_offsets: Optional[np.ndarray] = None
        self._prepare_boundary_conditions()
        self._prepare_level_buckets()
        self._prepare_propagation_bases()
        self.last_result: Optional[STAResult] = None
        self.last_update_stats: Optional[TimingUpdateStats] = None
        # Incremental caches (populated by the first full update).
        self._ref_x: Optional[np.ndarray] = None
        self._ref_y: Optional[np.ndarray] = None
        self._arc_delay: Optional[np.ndarray] = None
        self._net_load: Optional[np.ndarray] = None
        self._sink_delay: Optional[np.ndarray] = None
        self._arrival: Optional[np.ndarray] = None
        self._required: Optional[np.ndarray] = None

    @property
    def constraints(self) -> TimingConstraints:
        return self._constraints

    @constraints.setter
    def constraints(self, value: TimingConstraints) -> None:
        self.set_constraints(value)

    def set_constraints(self, constraints: TimingConstraints) -> None:
        """Swap the analysis constraints and invalidate everything they touch.

        Boundary conditions (source arrivals, endpoint required times, the
        propagation bases) are rebuilt immediately; the cached
        arrival/required annotations were computed under the old constraints
        and are dropped, which forces the next ``update_timing`` into a full
        pass.  Without this, an incremental update after a constraints swap
        would re-propagate only from moved cells and silently keep stale
        arrival/required times everywhere else.
        """
        constraints.validate()
        self._constraints = constraints
        self._prepare_boundary_conditions()
        self._prepare_propagation_bases()
        # Arc delays and net loads depend only on positions, but the
        # arrival/required annotations (and anything derived from them) are
        # stale under the new constraints.
        self._arrival = None
        self._required = None
        self._ref_x = None
        self._ref_y = None
        self._arc_delay = None
        self._net_load = None
        self._sink_delay = None
        self.last_result = None
        self.last_update_stats = None

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _prepare_boundary_conditions(self) -> None:
        (
            self.source_pins,
            self.source_arrival,
            self.endpoint_pins,
            self.endpoint_required,
        ) = boundary_conditions(self.design, self.graph, self.constraints)

    def _prepare_level_buckets(self) -> None:
        """Group arcs by the level of their sink (forward) / source (backward)."""
        self._forward_buckets, self._backward_buckets = level_buckets(self.graph)

    def _prepare_propagation_bases(self) -> None:
        """Initial arrival/required values before any arc is applied.

        Full propagation computes ``arrival[p] = max(base[p], max over fanin
        candidates)`` and ``required[p] = min(base[p], min over fanout
        candidates)``; the incremental recompute of a single pin uses exactly
        the same formula, so both modes agree bit for bit.
        """
        graph = self.graph
        base_arrival = np.full(graph.num_pins, _NEG_INF, dtype=np.float64)
        no_fanin = np.diff(graph.fanin_offsets) == 0
        base_arrival[no_fanin] = 0.0
        if self.source_pins.size:
            base_arrival[self.source_pins] = self.source_arrival
        self._base_arrival = base_arrival

        base_required = np.full(graph.num_pins, _POS_INF, dtype=np.float64)
        if self.endpoint_pins.size:
            base_required[self.endpoint_pins] = self.endpoint_required
        self._base_required = base_required

    # ------------------------------------------------------------------
    # Timing update
    # ------------------------------------------------------------------
    def update_timing(
        self,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        *,
        incremental: Optional[bool] = None,
    ) -> STAResult:
        """Run an STA pass for instance positions ``(x, y)``.

        When positions are omitted the design's stored positions are used.
        ``incremental`` overrides the engine-level setting for this call;
        ``incremental=False`` is the exact fallback that forces a full
        recompute and refreshes every incremental cache.
        """
        design = self.design
        if x is None or y is None:
            x, y = design.positions()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)

        use_incremental = self.incremental if incremental is None else incremental
        with span("sta.update_timing", incremental=bool(use_incremental)):
            if use_incremental and self._can_update_incrementally():
                result = self._update_incremental(x, y)
                if result is not None:
                    self.last_result = result
                    return result
            return self._update_full(x, y)

    def _can_update_incrementally(self) -> bool:
        return (
            self._arc_delay is not None
            and self._ref_x is not None
            and self._arrival is not None
            and self.graph.num_arcs > 0
        )

    def _update_full(self, x: np.ndarray, y: np.ndarray) -> STAResult:
        design = self.design
        graph = self.graph
        pin_x, pin_y = design.pin_positions(x, y)

        wire = self.wire_model.evaluate(pin_x, pin_y, rc_scale=self._rc_scale)
        arc_delay = self.cell_model.evaluate(wire.net_load, derate=self._cell_derate)
        # Net arcs: Elmore delay from driver to this arc's sink pin.
        net_arc_mask = graph.arc_kind == int(ArcKind.NET)
        arc_delay[net_arc_mask] = wire.sink_delay[graph.arc_to[net_arc_mask]]

        arrival = self._propagate_arrival(arc_delay)
        required = self._propagate_required(arc_delay, arrival)

        # Seed the incremental caches.
        self._ref_x = x.copy()
        self._ref_y = y.copy()
        self._arc_delay = arc_delay
        self._net_load = wire.net_load
        self._sink_delay = wire.sink_delay
        self._arrival = arrival
        self._required = required

        self.last_update_stats = TimingUpdateStats(
            mode="full",
            num_dirty_nets=int(self.wire_model.num_nets),
            num_dirty_arcs=int(graph.num_arcs),
            num_forward_pins=int(graph.num_pins),
            num_backward_pins=int(graph.num_pins),
        )
        result = self._assemble_result()
        self.last_result = result
        return result

    def _update_incremental(self, x: np.ndarray, y: np.ndarray) -> Optional[STAResult]:
        """Dirty-frontier update; returns ``None`` to request a full rebuild."""
        design = self.design
        graph = self.graph
        arrays = design.arrays
        tol = self.move_tolerance

        moved = (np.abs(x - self._ref_x) > tol) | (np.abs(y - self._ref_y) > tol)
        num_moved = int(moved.sum())
        if num_moved == 0:
            self.last_update_stats = TimingUpdateStats(
                mode="incremental", num_moved_instances=0
            )
            return self._assemble_result()

        # Nets touching any moved instance must have their RC re-evaluated.
        moved_pin_mask = moved[arrays.pin_instance]
        dirty_net_ids = arrays.pin_net[moved_pin_mask]
        dirty_net_ids = dirty_net_ids[dirty_net_ids >= 0]
        net_mask = np.zeros(self.wire_model.num_nets, dtype=bool)
        net_mask[dirty_net_ids] = True
        num_dirty_nets = int(net_mask.sum())
        if num_dirty_nets > self.incremental_rebuild_fraction * max(net_mask.size, 1):
            return None  # most of the design moved; a full pass is cheaper

        # Copy-on-write: results handed out by previous updates must never
        # change after the fact, so each mutating update works on fresh
        # copies of the caches (the no-motion path above stays copy-free).
        self._arrival = self._arrival.copy()
        self._required = self._required.copy()
        self._arc_delay = self._arc_delay.copy()
        self._net_load = self._net_load.copy()
        self._sink_delay = self._sink_delay.copy()

        pin_x, pin_y = design.pin_positions(x, y)
        wire = self.wire_model.evaluate(
            pin_x, pin_y, net_mask=net_mask, rc_scale=self._rc_scale
        )
        dirty_pins = self.wire_model.pins_of_nets(net_mask)
        self._net_load[net_mask] = wire.net_load[net_mask]
        self._sink_delay[dirty_pins] = wire.sink_delay[dirty_pins]

        # Refresh delays of every arc tied to a dirty net: net arcs inside
        # the net, and cell arcs whose output drives the net.
        net_arc_dirty = (graph.arc_kind == int(ArcKind.NET)) & net_mask[
            np.maximum(graph.arc_net, 0)
        ] & (graph.arc_net >= 0)
        self._arc_delay[net_arc_dirty] = self._sink_delay[graph.arc_to[net_arc_dirty]]
        cell_arc_dirty = self.cell_model.update_subset(
            self._arc_delay, self._net_load, net_mask, derate=self._cell_derate
        )
        dirty_arcs = np.concatenate([np.nonzero(net_arc_dirty)[0], cell_arc_dirty])

        forward_pins = self._incremental_forward(dirty_arcs)
        backward_pins = self._incremental_backward(dirty_arcs)

        # Only the reference positions of moved instances advance; instances
        # drifting below the tolerance keep accumulating against their last
        # evaluated position, which bounds the approximation error.
        self._ref_x[moved] = x[moved]
        self._ref_y[moved] = y[moved]

        self.last_update_stats = TimingUpdateStats(
            mode="incremental",
            num_moved_instances=num_moved,
            num_dirty_nets=num_dirty_nets,
            num_dirty_arcs=int(dirty_arcs.size),
            num_forward_pins=forward_pins,
            num_backward_pins=backward_pins,
        )
        return self._assemble_result()

    # Backwards-compatible alias: the worklist moved to module level so the
    # multi-corner engine can share it.
    _LevelWorklist = _LevelWorklist

    def _incremental_forward(self, dirty_arcs: np.ndarray) -> int:
        """Recompute arrival times downstream of the dirty arcs."""
        graph = self.graph
        arrival = self._arrival
        arc_delay = self._arc_delay
        worklist = self._LevelWorklist(graph.level, graph.num_pins)
        if dirty_arcs.size:
            worklist.mark(graph.arc_to[dirty_arcs])
        recomputed = 0
        for lvl in range(1, graph.max_level + 1):
            idx = worklist.pop(lvl)
            if idx is None:
                continue
            recomputed += int(idx.size)
            new = self._base_arrival[idx].copy()
            flat, lengths = _csr_gather(graph.fanin_offsets, graph.fanin_arcs, idx)
            if flat.size:
                nonzero = lengths > 0
                candidates = arrival[graph.arc_from[flat]] + arc_delay[flat]
                reduced = np.maximum.reduceat(
                    candidates, np.cumsum(lengths[nonzero]) - lengths[nonzero]
                )
                new[nonzero] = np.maximum(new[nonzero], reduced)
            changed = idx[new != arrival[idx]]
            arrival[idx] = new
            if changed.size:
                out, _ = _csr_gather(graph.fanout_offsets, graph.fanout_arcs, changed)
                if out.size:
                    worklist.mark(graph.arc_to[out])
        return recomputed

    def _incremental_backward(self, dirty_arcs: np.ndarray) -> int:
        """Recompute required times upstream of the dirty arcs."""
        graph = self.graph
        required = self._required
        arc_delay = self._arc_delay
        worklist = self._LevelWorklist(graph.level, graph.num_pins)
        if dirty_arcs.size:
            worklist.mark(graph.arc_from[dirty_arcs])
        recomputed = 0
        for lvl in range(graph.max_level - 1, -1, -1):
            idx = worklist.pop(lvl)
            if idx is None:
                continue
            recomputed += int(idx.size)
            new = self._base_required[idx].copy()
            flat, lengths = _csr_gather(graph.fanout_offsets, graph.fanout_arcs, idx)
            if flat.size:
                nonzero = lengths > 0
                candidates = required[graph.arc_to[flat]] - arc_delay[flat]
                reduced = np.minimum.reduceat(
                    candidates, np.cumsum(lengths[nonzero]) - lengths[nonzero]
                )
                new[nonzero] = np.minimum(new[nonzero], reduced)
            changed = idx[new != required[idx]]
            required[idx] = new
            if changed.size:
                inc, _ = _csr_gather(graph.fanin_offsets, graph.fanin_arcs, changed)
                if inc.size:
                    worklist.mark(graph.arc_from[inc])
        return recomputed

    def _assemble_result(self) -> STAResult:
        arrival = self._arrival
        required = self._required
        slack = required - arrival

        if self.endpoint_pins.size:
            endpoint_arrival = arrival[self.endpoint_pins]
            endpoint_slack = self.endpoint_required - endpoint_arrival
            # Endpoints never reached by any path are ignored (no constraint).
            reachable = endpoint_arrival > _NEG_INF / 2
            endpoint_slack = np.where(reachable, endpoint_slack, np.inf)
        else:
            endpoint_slack = np.zeros(0)

        negative = endpoint_slack[endpoint_slack < 0]
        wns = float(negative.min()) if negative.size else 0.0
        tns = float(negative.sum()) if negative.size else 0.0

        # Mutating updates always start from fresh cache copies (full
        # updates allocate, incremental ones copy-on-write), so the arrays
        # can be handed over directly: no later update rewrites them.
        return STAResult(
            arrival=arrival,
            required=required,
            slack=slack,
            arc_delay=self._arc_delay,
            net_load=self._net_load,
            endpoint_pins=self.endpoint_pins,
            endpoint_slack=endpoint_slack,
            wns=wns,
            tns=tns,
        )

    def _propagate_arrival(self, arc_delay: np.ndarray) -> np.ndarray:
        runner = self._get_runner()
        if runner is not None and self.graph.num_arcs:
            return self._propagate_parallel(runner, arc_delay, forward=True)
        graph = self.graph
        arrival = self._base_arrival.copy()
        for bucket in self._forward_buckets:
            if bucket.size == 0:
                continue
            candidate = arrival[graph.arc_from[bucket]] + arc_delay[bucket]
            np.maximum.at(arrival, graph.arc_to[bucket], candidate)
        return arrival

    def _propagate_required(self, arc_delay: np.ndarray, arrival: np.ndarray) -> np.ndarray:
        runner = self._get_runner()
        if runner is not None and self.graph.num_arcs:
            return self._propagate_parallel(runner, arc_delay, forward=False)
        graph = self.graph
        required = self._base_required.copy()
        for bucket in self._backward_buckets:
            if bucket.size == 0:
                continue
            candidate = required[graph.arc_to[bucket]] - arc_delay[bucket]
            np.minimum.at(required, graph.arc_from[bucket], candidate)
        return required

    # ------------------------------------------------------------------
    # Parallel full sweeps (repro.parallel)
    # ------------------------------------------------------------------
    def _get_runner(self):
        if not self._runner_resolved:
            self._runner_resolved = True
            if self.workers > 0:
                from repro.parallel import get_runner

                self._runner = get_runner(self.workers)
        return self._runner

    def _prepare_level_pins(self) -> None:
        """Pins grouped by logic level: one stable sort, CSR-style offsets."""
        level = self.graph.level
        self._level_pins = np.argsort(level, kind="stable").astype(np.int64)
        counts = np.bincount(level, minlength=self.graph.max_level + 1)
        self._level_pin_offsets = np.concatenate(([0], np.cumsum(counts))).astype(
            np.int64
        )

    def _ensure_pool_block(self, runner):
        if self._pool_block is not None:
            return self._pool_block
        if self._level_pins is None:
            self._prepare_level_pins()
        graph = self.graph
        self._pool_block = runner.register(
            {
                # Static graph structure.
                "level_pins": self._level_pins,
                "fanin_offsets": graph.fanin_offsets,
                "fanin_arcs": graph.fanin_arcs,
                "fanout_offsets": graph.fanout_offsets,
                "fanout_arcs": graph.fanout_arcs,
                "arc_from": graph.arc_from,
                "arc_to": graph.arc_to,
                # Per-sweep state, rewritten by the parent before dispatch
                # (bases change with constraints, delays with positions).
                "base_arrival": np.zeros(graph.num_pins, dtype=np.float64),
                "base_required": np.zeros(graph.num_pins, dtype=np.float64),
                "arc_delay": np.zeros(graph.num_arcs, dtype=np.float64),
                "arrival": np.zeros(graph.num_pins, dtype=np.float64),
                "required": np.zeros(graph.num_pins, dtype=np.float64),
            }
        )
        import weakref

        from repro.route.rudy import _release_block

        weakref.finalize(self, _release_block, runner, self._pool_block)
        return self._pool_block

    def _propagate_parallel(
        self, runner, arc_delay: np.ndarray, *, forward: bool
    ) -> np.ndarray:
        """Level-synchronous sharded sweep.

        Pins within a level are independent, so each level's pin bucket is
        split into contiguous shards whose pin-centric max/min reductions
        (``sta_forward``/``sta_backward`` kernels) write disjoint slices of
        the shared state — bitwise identical to the serial arc-centric
        ``np.maximum.at``/``np.minimum.at`` sweep for any shard count.
        """
        from repro.parallel import kernels as _parallel_kernels
        from repro.parallel.engine import split_ranges

        block = self._ensure_pool_block(runner)
        views = block.views
        views["arc_delay"][...] = arc_delay
        if forward:
            kernel = "sta_forward"
            views["base_arrival"][...] = self._base_arrival
            views["arrival"][...] = self._base_arrival
            state = views["arrival"]
            levels = range(1, self.graph.max_level + 1)
        else:
            kernel = "sta_backward"
            views["base_required"][...] = self._base_required
            views["required"][...] = self._base_required
            state = views["required"]
            levels = range(self.graph.max_level - 1, -1, -1)

        offsets = self._level_pin_offsets
        threshold = self.parallel_min_level_size
        for lvl in levels:
            start = int(offsets[lvl])
            end = int(offsets[lvl + 1])
            width = end - start
            if width == 0:
                continue
            if width < threshold or runner.workers <= 1:
                # Narrow level: sweep inline on the shared views (same
                # kernel, same arithmetic — only the transport differs).
                _parallel_kernels.run_kernel(kernel, views, (start, end))
            else:
                tasks = [
                    (start + a, start + b) for a, b in split_ranges(width, runner.workers)
                ]
                runner.run(kernel, [block], tasks)
        # Private copy: the shared view is rewritten by the next sweep.
        return state.copy()

    # ------------------------------------------------------------------
    # Convenience metrics
    # ------------------------------------------------------------------
    def wns(self) -> float:
        self._require_result()
        return self.last_result.wns  # type: ignore[union-attr]

    def tns(self) -> float:
        self._require_result()
        return self.last_result.tns  # type: ignore[union-attr]

    def _require_result(self) -> None:
        if self.last_result is None:
            raise RuntimeError("Call update_timing() before querying results")

    def summary(self) -> Dict[str, float]:
        self._require_result()
        result = self.last_result
        assert result is not None
        return {
            "wns": result.wns,
            "tns": result.tns,
            "failing_endpoints": result.num_failing_endpoints,
            "endpoints": int(self.endpoint_pins.size),
            "clock_period": self.constraints.clock_period,
        }
