"""Critical path reporting.

Two extraction commands are provided, mirroring Sec. III-B of the paper:

* :func:`report_timing` — OpenTimer-style ``report_timing(n)``: take the ``n``
  worst endpoints, enumerate the ``n`` worst paths for each (``n^2`` paths
  analyzed), and return the overall ``n`` worst.  Accurate for tiny ``n`` but
  quadratic, and the selected paths concentrate on a few endpoints.
* :func:`report_timing_endpoint` — the paper's
  ``report_timing_endpoint(n, k)``: take the ``n`` worst endpoints and return
  the ``k`` worst paths *per endpoint* (``n*k`` paths analyzed), guaranteeing
  every reported endpoint is covered, which is what the TNS metric needs.

Both return a :class:`PathSet` — the paths in CSR form, readable as a
``Sequence[TimingPath]`` — plus a :class:`PathExtractionStats` record with
the coverage statistics reported in Table I (number of paths, unique
endpoints, unique pin pairs, wall-clock time).

Paths come from a best-first backward search per endpoint (a heap of
partial paths).  For the paper's default ``k = 1`` the search pops one
chain of partial paths from the endpoint back to a startpoint whenever each
chosen partial path beats every partial path pushed before it, so
:func:`report_timing_endpoint` runs that chain for all endpoints at once as
one vectorised backward walk and hands the few endpoints where the chain
assumption fails (ties, unreachable fanin, the expansion cap) to the heap.
Both give the same paths, bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import clock, span
from repro.timing.graph import ArcKind, TimingGraph, csr_gather
from repro.timing.sta import STAEngine, STAResult

_NEG_INF = -1.0e30
# Pin pairs pack into one int64 key: driver pin in the high 32 bits, sink pin
# in the low 32 bits, so key order is (driver, sink) order.
_PAIR_SHIFT = 32
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1


def pair_keys(pin_i: np.ndarray, pin_j: np.ndarray) -> np.ndarray:
    """Pack ``(pin_i, pin_j)`` pin pairs into int64 keys."""
    return (np.asarray(pin_i, dtype=np.int64) << _PAIR_SHIFT) | np.asarray(pin_j, dtype=np.int64)


def unpack_pair_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_keys`."""
    return keys >> _PAIR_SHIFT, keys & _PAIR_MASK


@dataclass
class TimingPath:
    """One timing path from a startpoint to an endpoint."""

    pins: List[int]
    arcs: List[int]
    arrival: float
    required: float
    endpoint: int
    startpoint: int

    @property
    def slack(self) -> float:
        return self.required - self.arrival

    @property
    def num_stages(self) -> int:
        return len(self.arcs)

    def pin_pairs(self, graph: TimingGraph) -> List[Tuple[int, int]]:
        """Driver/sink pin pairs of the net arcs along the path.

        Cell-internal arcs are skipped: the distance between two pins of the
        same instance is fixed by the cell layout, so only net arcs give the
        placer a controllable pin-to-pin distance.
        """
        pairs: List[Tuple[int, int]] = []
        for arc_index in self.arcs:
            if graph.arc_kind[arc_index] == int(ArcKind.NET):
                pairs.append((int(graph.arc_from[arc_index]), int(graph.arc_to[arc_index])))
        return pairs

    def describe(self, graph: TimingGraph) -> str:
        """Human-readable one-line description."""
        names = [graph.pin_name(p) for p in self.pins]
        return f"slack={self.slack:.1f} arrival={self.arrival:.1f}: " + " -> ".join(names)


class PathSet(SequenceABC):
    """Timing paths in CSR form, read as a lazy ``Sequence[TimingPath]``.

    Path ``i`` runs along ``arcs[offsets[i]:offsets[i + 1]]`` (startpoint
    first) from ``startpoint[i]`` to ``endpoint[i]``.  Indexing or iterating
    builds :class:`TimingPath` objects on demand; array consumers (the
    Table I statistics, the Eq. 9 pin-pair update) read the arrays directly.
    """

    def __init__(
        self,
        graph: TimingGraph,
        offsets: np.ndarray,
        arcs: np.ndarray,
        arrival: np.ndarray,
        required: np.ndarray,
        endpoint: np.ndarray,
        startpoint: np.ndarray,
    ) -> None:
        self.graph = graph
        self.offsets = offsets
        self.arcs = arcs
        self.arrival = arrival
        self.required = required
        self.endpoint = endpoint
        self.startpoint = startpoint

    @classmethod
    def empty(cls, graph: TimingGraph) -> "PathSet":
        none = np.zeros(0, dtype=np.int64)
        return cls(graph, np.zeros(1, dtype=np.int64), none, np.zeros(0), np.zeros(0), none, none)

    @classmethod
    def from_paths(cls, paths: Sequence[TimingPath], graph: TimingGraph) -> "PathSet":
        """Pack :class:`TimingPath` objects (in order) into one set."""
        if isinstance(paths, PathSet):
            return paths
        lengths = np.array([len(p.arcs) for p in paths], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        arcs = [a for p in paths for a in p.arcs]
        return cls(
            graph,
            offsets,
            np.array(arcs, dtype=np.int64),
            np.array([p.arrival for p in paths], dtype=np.float64),
            np.array([p.required for p in paths], dtype=np.float64),
            np.array([p.endpoint for p in paths], dtype=np.int64),
            np.array([p.startpoint for p in paths], dtype=np.int64),
        )

    @classmethod
    def concat(cls, sets: Sequence["PathSet"], graph: TimingGraph) -> "PathSet":
        """The paths of ``sets``, one after another."""
        if not sets:
            return cls.empty(graph)
        if len(sets) == 1:
            return sets[0]
        lengths = np.concatenate([np.diff(s.offsets) for s in sets])
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(
            graph,
            offsets,
            np.concatenate([s.arcs for s in sets]),
            np.concatenate([s.arrival for s in sets]),
            np.concatenate([s.required for s in sets]),
            np.concatenate([s.endpoint for s in sets]),
            np.concatenate([s.startpoint for s in sets]),
        )

    def take(self, index: np.ndarray) -> "PathSet":
        """The paths at positions ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        arcs, lengths = csr_gather(self.offsets, self.arcs, index)
        offsets = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return PathSet(
            self.graph,
            offsets,
            arcs.astype(np.int64, copy=False),
            self.arrival[index],
            self.required[index],
            self.endpoint[index],
            self.startpoint[index],
        )

    # ------------------------------------------------------------------
    @property
    def slack(self) -> np.ndarray:
        return self.required - self.arrival

    def net_pair_keys(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(path_index, pair_key)`` of every net arc, in path order.

        The array counterpart of :meth:`TimingPath.pin_pairs` over all paths.
        """
        graph = self.graph
        owner = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))
        net = graph.arc_kind[self.arcs] == int(ArcKind.NET)
        arcs = self.arcs[net]
        return owner[net], pair_keys(graph.arc_from[arcs], graph.arc_to[arcs])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.endpoint.size)

    def _path(self, i: int) -> TimingPath:
        arcs = self.arcs[self.offsets[i]: self.offsets[i + 1]]
        start = int(self.startpoint[i])
        return TimingPath(
            pins=[start] + self.graph.arc_to[arcs].tolist(),
            arcs=arcs.tolist(),
            arrival=float(self.arrival[i]),
            required=float(self.required[i]),
            endpoint=int(self.endpoint[i]),
            startpoint=start,
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self), dtype=np.int64)[i])
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("path index out of range")
        return self._path(i)

    def __iter__(self) -> Iterator[TimingPath]:
        for i in range(len(self)):
            yield self._path(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SequenceABC) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PathSet({len(self)} paths, {self.arcs.size} arcs)"


@dataclass
class PathExtractionStats:
    """Coverage statistics of one extraction run (Table I columns)."""

    command: str
    complexity: str
    num_paths: int
    num_endpoints: int
    num_pin_pairs: int
    elapsed_seconds: float
    num_paths_analyzed: int = 0
    # Endpoints the k = 1 walk handed to the heap search (ties, unreachable
    # fanin or the expansion cap); always 0 for the heap-only commands.
    num_heap_fallbacks: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "command": self.command,
            "complexity": self.complexity,
            "num_paths": self.num_paths,
            "num_endpoints": self.num_endpoints,
            "num_pin_pairs": self.num_pin_pairs,
            "time_sec": round(self.elapsed_seconds, 4),
        }


def _worst_endpoints(result: STAResult, n: int, *, failing_only: bool = False) -> np.ndarray:
    """Pin indices of the ``n`` worst endpoints by slack (worst first)."""
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    if failing_only:
        return result.failing_endpoints[:n]
    order = np.argsort(result.endpoint_slack, kind="stable")
    return result.endpoint_pins[order[:n]]


def _required_at(engine: STAEngine, result: STAResult, endpoints: np.ndarray) -> np.ndarray:
    """Required time of each endpoint (the clock period where unconstrained)."""
    required = result.required[endpoints]
    return np.where(required < 1.0e29, required, float(engine.constraints.clock_period))


def _max_expansions(k: int) -> int:
    # Guard against pathological designs: never expand more than this many
    # partial paths per endpoint.
    return max(10_000, 200 * k)


def _worst_paths_to_endpoint(
    tables: Tuple[list, list, list, list, list],
    endpoint: int,
    k: int,
) -> List[Tuple[List[int], int, float]]:
    """The ``k`` worst (largest-arrival) paths ending at ``endpoint``.

    Best-first backward expansion: a partial path is the suffix from some pin
    ``u`` to the endpoint; its priority is ``arrival[u] + suffix_delay``, an
    upper bound on any completion's arrival, so completed paths pop off the
    heap in non-increasing arrival order (the classic k-worst-paths search
    used by parallel timers such as OpenTimer).  Each heap entry names its
    suffix by a parent pointer into ``parent``/``node_arc``, so a push costs
    O(1) whatever the suffix length.

    ``tables`` holds ``arrival``, ``arc_delay``, ``fanin_offsets``,
    ``fanin_arcs`` and ``arc_from`` as Python lists.  Returns
    ``(arcs, startpoint, arrival)`` per path, worst first.
    """
    arrival, arc_delay, fanin_offsets, fanin_arcs, arc_from = tables
    counter = itertools.count()
    # Heap entries: (-bound, tiebreak, current_pin, suffix_delay, node)
    heap: List[Tuple[float, int, int, float, int]] = [
        (-arrival[endpoint], next(counter), endpoint, 0.0, -1)
    ]
    parent: List[int] = []
    node_arc: List[int] = []
    paths: List[Tuple[List[int], int, float]] = []
    max_expansions = _max_expansions(k)
    expansions = 0
    while heap and len(paths) < k and expansions < max_expansions:
        _, _, pin, suffix, node = heapq.heappop(heap)
        expansions += 1
        lo, hi = fanin_offsets[pin], fanin_offsets[pin + 1]
        if lo == hi:
            # Completed a full path: pin is a startpoint (or floating input).
            arcs: List[int] = []
            while node >= 0:
                arcs.append(node_arc[node])
                node = parent[node]
            paths.append((arcs, pin, arrival[pin] + suffix))
            continue
        for arc_index in fanin_arcs[lo:hi]:
            source = arc_from[arc_index]
            if arrival[source] <= _NEG_INF / 2:
                continue
            new_suffix = suffix + arc_delay[arc_index]
            heapq.heappush(
                heap,
                (-(arrival[source] + new_suffix), next(counter), source, new_suffix, len(parent)),
            )
            parent.append(node)
            node_arc.append(arc_index)
    return paths


def _reference_worst_paths_to_endpoint(
    engine: STAEngine,
    result: STAResult,
    endpoint: int,
    k: int,
) -> List[TimingPath]:
    """Tuple-copying heap search (bitwise reference for the two fast paths).

    Same search as :func:`_worst_paths_to_endpoint`, but each heap entry
    carries its whole reversed arc suffix, as the first implementation did.
    """
    graph = engine.graph
    arrival = result.arrival
    arc_delay = result.arc_delay
    required_at_endpoint = float(
        result.required[endpoint]
        if result.required[endpoint] < 1.0e29
        else engine.constraints.clock_period
    )

    counter = itertools.count()
    heap: List[Tuple[float, int, int, float, Tuple[int, ...]]] = []
    heapq.heappush(heap, (-float(arrival[endpoint]), next(counter), endpoint, 0.0, ()))
    paths: List[TimingPath] = []
    max_expansions = _max_expansions(k)
    expansions = 0

    while heap and len(paths) < k and expansions < max_expansions:
        neg_bound, _, pin, suffix, arcs_rev = heapq.heappop(heap)
        expansions += 1
        fanin = graph.fanin_of(pin)
        if fanin.size == 0:
            path_arrival = float(arrival[pin]) + suffix
            arc_list = list(reversed(arcs_rev))
            pin_list = [pin]
            for arc_index in arc_list:
                pin_list.append(int(graph.arc_to[arc_index]))
            paths.append(
                TimingPath(
                    pins=pin_list,
                    arcs=arc_list,
                    arrival=path_arrival,
                    required=required_at_endpoint,
                    endpoint=endpoint,
                    startpoint=pin,
                )
            )
            continue
        for arc_index in fanin:
            arc_index = int(arc_index)
            source = int(graph.arc_from[arc_index])
            if arrival[source] <= _NEG_INF / 2:
                continue
            new_suffix = suffix + float(arc_delay[arc_index])
            bound = float(arrival[source]) + new_suffix
            heapq.heappush(
                heap,
                (-bound, next(counter), source, new_suffix, arcs_rev + (arc_index,)),
            )
    return paths


def _heap_paths(
    engine: STAEngine, result: STAResult, endpoints: np.ndarray, k: int
) -> Tuple[PathSet, np.ndarray]:
    """Heap search over ``endpoints``; returns the paths and each one's
    position in ``endpoints``."""
    graph = engine.graph
    if endpoints.size == 0:
        return PathSet.empty(graph), np.zeros(0, dtype=np.int64)
    tables = (
        result.arrival.tolist(),
        result.arc_delay.tolist(),
        graph.fanin_offsets.tolist(),
        graph.fanin_arcs.tolist(),
        graph.arc_from.tolist(),
    )
    found: List[Tuple[List[int], int, float]] = []
    owner: List[int] = []
    for position, endpoint in enumerate(endpoints.tolist()):
        paths = _worst_paths_to_endpoint(tables, endpoint, k)
        found.extend(paths)
        owner.extend([position] * len(paths))
    owner_arr = np.array(owner, dtype=np.int64)
    lengths = np.array([len(arcs) for arcs, _, _ in found], dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    path_set = PathSet(
        graph,
        offsets,
        np.array([a for arcs, _, _ in found for a in arcs], dtype=np.int64),
        np.array([arrival for _, _, arrival in found], dtype=np.float64),
        _required_at(engine, result, endpoints)[owner_arr],
        endpoints[owner_arr].astype(np.int64),
        np.array([start for _, start, _ in found], dtype=np.int64),
    )
    return path_set, owner_arr


def _critical_chains(
    engine: STAEngine, result: STAResult, endpoints: np.ndarray
) -> Tuple[PathSet, int]:
    """The worst path to every endpoint (``k = 1``), by one vectorised walk.

    The walk replays the heap search of :func:`_worst_paths_to_endpoint` for
    all endpoints at once.  Each step gathers the fanin arcs of every
    endpoint's current pin, forms the heap's own bound ``arrival[src] +
    (suffix + arc_delay)`` in that float order, and moves to the first fanin
    with the largest bound: that is the entry the heap pops next *if* its
    bound is strictly greater than every entry pushed at earlier steps and
    not taken (an equal earlier entry pops first).  An endpoint where that
    fails, where no fanin is reachable, or whose chain outgrows the heap's
    expansion cap is searched by the heap instead.  Returns the paths in
    endpoint order and the number of endpoints handed to the heap.
    """
    graph = engine.graph
    arrival = result.arrival
    arc_delay = result.arc_delay
    count = int(endpoints.size)
    max_steps = _max_expansions(1)

    walker = np.arange(count, dtype=np.int64)  # endpoint position of each walk
    pin = endpoints.astype(np.int64)
    suffix = np.zeros(count, dtype=np.float64)
    off_chain = np.full(count, -np.inf)  # best bound pushed and not taken
    startpoint = np.full(count, -1, dtype=np.int64)
    path_arrival = np.zeros(count, dtype=np.float64)
    length = np.zeros(count, dtype=np.int64)
    fallback = np.zeros(count, dtype=bool)
    step_walkers: List[np.ndarray] = []
    step_arcs: List[np.ndarray] = []
    step_depths: List[np.ndarray] = []

    depth = 0
    while walker.size:
        if depth >= max_steps:
            fallback[walker] = True
            break
        flat, fanin_count = csr_gather(graph.fanin_offsets, graph.fanin_arcs, pin)
        done = fanin_count == 0
        if done.any():
            finished = walker[done]
            startpoint[finished] = pin[done]
            path_arrival[finished] = arrival[pin[done]] + suffix[done]
            length[finished] = depth
            keep = ~done
            walker, pin, suffix, off_chain = walker[keep], pin[keep], suffix[keep], off_chain[keep]
            fanin_count = fanin_count[keep]
            if not walker.size:
                break
        segment = np.repeat(np.arange(walker.size, dtype=np.int64), fanin_count)
        seg_start = np.zeros(walker.size, dtype=np.int64)
        np.cumsum(fanin_count[:-1], out=seg_start[1:])
        source = graph.arc_from[flat]
        new_suffix = suffix[segment] + arc_delay[flat]
        bound = arrival[source] + new_suffix
        pushed = ~(arrival[source] <= _NEG_INF / 2)
        bound = np.where(pushed, bound, -np.inf)
        best = np.maximum.reduceat(bound, seg_start)
        hits = np.flatnonzero(pushed & (bound == best[segment]))
        first = np.ones(hits.size, dtype=bool)
        np.not_equal(segment[hits[1:]], segment[hits[:-1]], out=first[1:])
        chosen_at = np.full(walker.size, -1, dtype=np.int64)
        chosen_at[segment[hits[first]]] = hits[first]
        ok = chosen_at >= 0
        ok[ok] = bound[chosen_at[ok]] > off_chain[ok]
        # Siblings left on the heap raise the bar for the rest of the chain.
        if ok.any():
            others = bound.copy()
            others[chosen_at[ok]] = -np.inf
            off_chain = np.maximum(off_chain, np.maximum.reduceat(others, seg_start))
        if not ok.all():
            fallback[walker[~ok]] = True
            walker, off_chain, chosen_at = walker[ok], off_chain[ok], chosen_at[ok]
        arcs = flat[chosen_at]
        step_walkers.append(walker)
        step_arcs.append(arcs)
        step_depths.append(np.full(walker.size, depth, dtype=np.int64))
        pin = source[chosen_at]
        suffix = new_suffix[chosen_at]
        depth += 1

    walked = np.flatnonzero((startpoint >= 0) & ~fallback)
    lengths = length[walked]
    offsets = np.zeros(walked.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    arcs_out = np.zeros(int(offsets[-1]), dtype=np.int64)
    if step_walkers:
        owner = np.concatenate(step_walkers)
        arc_of = np.concatenate(step_arcs)
        depth_of = np.concatenate(step_depths)
        slot = np.full(count, -1, dtype=np.int64)
        slot[walked] = np.arange(walked.size, dtype=np.int64)
        kept = ~fallback[owner]
        owner, arc_of, depth_of = owner[kept], arc_of[kept], depth_of[kept]
        # The walk runs endpoint -> startpoint; paths list arcs the other way.
        arcs_out[offsets[slot[owner]] + lengths[slot[owner]] - 1 - depth_of] = arc_of
    chains = PathSet(
        graph,
        offsets,
        arcs_out,
        path_arrival[walked],
        _required_at(engine, result, endpoints[walked]),
        endpoints[walked].astype(np.int64),
        startpoint[walked],
    )
    redo = np.flatnonzero(fallback)
    if redo.size == 0:
        return chains, 0
    searched, owner = _heap_paths(engine, result, endpoints[redo], 1)
    merged = PathSet.concat([chains, searched], graph)
    order = np.argsort(np.concatenate([walked, redo[owner]]), kind="stable")
    return merged.take(order), int(redo.size)


def _resolve(engine: STAEngine, result: Optional[STAResult]) -> STAResult:
    if result is not None:
        return result
    if engine.last_result is None:
        return engine.update_timing()
    return engine.last_result


def report_timing_endpoint(
    engine: STAEngine,
    n: int,
    k: int = 1,
    *,
    result: Optional[STAResult] = None,
    failing_only: bool = False,
) -> Tuple[PathSet, PathExtractionStats]:
    """Paper's extraction: ``k`` worst paths for each of the ``n`` worst endpoints."""
    result = _resolve(engine, result)
    with span("timing.report_endpoint", k=k) as record:
        start = clock()
        endpoints = _worst_endpoints(result, n, failing_only=failing_only)
        if k == 1:
            paths, fallbacks = _critical_chains(engine, result, endpoints)
        else:
            paths, _ = _heap_paths(engine, result, endpoints, k)
            fallbacks = 0
        elapsed = clock() - start
        if record is not None:
            record.attrs.update(paths=len(paths), heap_fallbacks=fallbacks)
    stats = _build_stats(
        paths,
        command=f"report_timing_endpoint({n},{k})",
        complexity="O(n*k)",
        elapsed=elapsed,
        analyzed=len(paths),
    )
    stats.num_heap_fallbacks = fallbacks
    return paths, stats


def report_timing(
    engine: STAEngine,
    n: int,
    *,
    result: Optional[STAResult] = None,
    failing_only: bool = False,
    max_paths_per_endpoint: Optional[int] = None,
) -> Tuple[PathSet, PathExtractionStats]:
    """OpenTimer-style extraction: ``n`` worst paths overall.

    Follows the semantics described in the paper: the ``n`` worst endpoints
    are identified, ``n`` worst paths are enumerated for each (``n^2``
    analyzed), and the overall ``n`` worst paths are returned.
    ``max_paths_per_endpoint`` caps the per-endpoint enumeration for runtime
    experiments without changing which paths are ultimately reported for
    modest ``n``.
    """
    result = _resolve(engine, result)
    start = clock()
    endpoints = _worst_endpoints(result, n, failing_only=failing_only)
    per_endpoint = n if max_paths_per_endpoint is None else min(n, max_paths_per_endpoint)
    all_paths, _ = _heap_paths(engine, result, endpoints, per_endpoint)
    analyzed = len(all_paths)
    order = np.argsort(all_paths.slack, kind="stable")
    selected = all_paths.take(order[: max(n, 0)])
    elapsed = clock() - start
    stats = _build_stats(
        selected,
        command=f"report_timing({n})",
        complexity="O(n^2)",
        elapsed=elapsed,
        analyzed=analyzed,
    )
    return selected, stats


def _build_stats(
    paths: PathSet,
    *,
    command: str,
    complexity: str,
    elapsed: float,
    analyzed: int,
) -> PathExtractionStats:
    _, keys = paths.net_pair_keys()
    return PathExtractionStats(
        command=command,
        complexity=complexity,
        num_paths=len(paths),
        num_endpoints=int(np.unique(paths.endpoint).size),
        num_pin_pairs=int(np.unique(keys).size),
        elapsed_seconds=elapsed,
        num_paths_analyzed=analyzed,
    )
