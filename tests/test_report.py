"""Tests for critical path reporting (report_timing / report_timing_endpoint),
including the bitwise parity of the k = 1 walk and the parent-pointer heap
with the tuple-copying reference heap."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import CircuitSpec, generate_circuit
from repro.obs import start_tracing, stop_tracing
from repro.placement.initial import initial_placement
from repro.timing import PathSet, STAEngine, report_timing, report_timing_endpoint
from repro.timing.graph import ArcKind, csr_gather
from repro.timing.report import (
    _reference_worst_paths_to_endpoint,
    _worst_endpoints,
    _worst_paths_to_endpoint,
)


@pytest.fixture()
def engine(tiny_design, tiny_constraints):
    eng = STAEngine(tiny_design, tiny_constraints)
    eng.update_timing()
    return eng


@pytest.fixture()
def small_engine(fresh_small_design):
    eng = STAEngine(fresh_small_design)
    eng.update_timing()
    return eng


class TestPathStructure:
    def test_worst_path_traverses_pipeline(self, engine, tiny_design):
        paths, _ = report_timing(engine, 1)
        assert len(paths) == 1
        path = paths[0]
        names = [engine.graph.pin_name(p) for p in path.pins]
        assert names[0] == "ff1/ck"
        assert names[-1] == "ff2/d"
        assert path.slack == pytest.approx(engine.last_result.wns, rel=1e-6)

    def test_path_arrival_equals_sum_of_arc_delays(self, engine):
        paths, _ = report_timing(engine, 1)
        path = paths[0]
        result = engine.last_result
        total = float(result.arrival[path.startpoint]) + float(
            sum(result.arc_delay[a] for a in path.arcs)
        )
        assert path.arrival == pytest.approx(total, rel=1e-9)

    def test_pin_pairs_are_net_arcs_only(self, engine):
        paths, _ = report_timing(engine, 1)
        pairs = paths[0].pin_pairs(engine.graph)
        graph = engine.graph
        arcs_by_pins = {(a.from_pin, a.to_pin): a for a in graph.arcs}
        for pair in pairs:
            assert arcs_by_pins[pair].kind is ArcKind.NET

    def test_describe_contains_slack(self, engine):
        paths, _ = report_timing(engine, 1)
        assert "slack=" in paths[0].describe(engine.graph)

    def test_path_pins_consistent_with_arcs(self, small_engine):
        paths, _ = report_timing_endpoint(small_engine, 5, 1)
        for path in paths:
            assert len(path.pins) == len(path.arcs) + 1
            for pin, arc_index in zip(path.pins[1:], path.arcs):
                assert small_engine.graph.arcs[arc_index].to_pin == pin


class TestReportTimingEndpoint:
    def test_covers_requested_endpoints(self, small_engine):
        result = small_engine.last_result
        n = min(10, result.num_failing_endpoints)
        paths, stats = report_timing_endpoint(small_engine, n, 1, failing_only=True)
        assert stats.num_endpoints == n
        assert stats.num_paths == n

    def test_k_paths_per_endpoint(self, small_engine):
        paths, stats = report_timing_endpoint(small_engine, 5, 3)
        counts = {}
        for path in paths:
            counts[path.endpoint] = counts.get(path.endpoint, 0) + 1
        assert all(c <= 3 for c in counts.values())
        assert stats.num_endpoints == len(counts)

    def test_paths_per_endpoint_sorted_by_arrival(self, small_engine):
        paths, _ = report_timing_endpoint(small_engine, 3, 4)
        by_endpoint = {}
        for path in paths:
            by_endpoint.setdefault(path.endpoint, []).append(path.arrival)
        for arrivals in by_endpoint.values():
            assert arrivals == sorted(arrivals, reverse=True)

    def test_worst_path_per_endpoint_matches_arrival(self, small_engine):
        result = small_engine.last_result
        paths, _ = report_timing_endpoint(small_engine, 5, 1, failing_only=True)
        for path in paths:
            assert path.arrival == pytest.approx(float(result.arrival[path.endpoint]), rel=1e-6)

    def test_zero_endpoints(self, small_engine):
        paths, stats = report_timing_endpoint(small_engine, 0, 1)
        assert paths == []
        assert stats.num_paths == 0

    def test_stats_row_keys(self, small_engine):
        _, stats = report_timing_endpoint(small_engine, 5, 1)
        row = stats.as_row()
        assert set(row) == {
            "command", "complexity", "num_paths", "num_endpoints", "num_pin_pairs", "time_sec",
        }
        assert row["complexity"] == "O(n*k)"


class TestReportTiming:
    def test_returns_n_worst_paths(self, small_engine):
        paths, stats = report_timing(small_engine, 8)
        assert len(paths) <= 8
        slacks = [p.slack for p in paths]
        assert slacks == sorted(slacks)

    def test_endpoint_concentration(self, small_engine):
        """report_timing(n) covers far fewer endpoints than endpoint extraction."""
        result = small_engine.last_result
        n = min(20, result.num_failing_endpoints)
        if n < 4:
            pytest.skip("design too easy for this comparison")
        _, stats_rt = report_timing(small_engine, n, failing_only=True)
        _, stats_ep = report_timing_endpoint(small_engine, n, 1, failing_only=True)
        assert stats_ep.num_endpoints == n
        assert stats_rt.num_endpoints <= stats_ep.num_endpoints

    def test_worst_path_agrees_with_endpoint_variant(self, small_engine):
        rt, _ = report_timing(small_engine, 1)
        ep, _ = report_timing_endpoint(small_engine, 1, 1)
        assert rt[0].endpoint == ep[0].endpoint
        assert rt[0].arrival == pytest.approx(ep[0].arrival)

    def test_complexity_label(self, small_engine):
        _, stats = report_timing(small_engine, 3)
        assert stats.complexity == "O(n^2)"

    def test_analyzed_at_least_selected(self, small_engine):
        _, stats = report_timing(small_engine, 5)
        assert stats.num_paths_analyzed >= stats.num_paths


class TestPathSet:
    def test_sequence_view_round_trips(self, small_engine):
        paths, _ = report_timing_endpoint(small_engine, 6, 2)
        assert isinstance(paths, PathSet)
        listed = list(paths)
        assert len(listed) == len(paths)
        assert paths[-1] == listed[-1]
        assert list(paths[1:4]) == listed[1:4]
        assert PathSet.from_paths(listed, small_engine.graph) == paths
        np.testing.assert_array_equal(paths.slack, [p.slack for p in listed])

    def test_concat_and_take(self, small_engine):
        paths, _ = report_timing_endpoint(small_engine, 5, 1)
        joined = PathSet.concat([paths, paths], small_engine.graph)
        assert list(joined) == list(paths) + list(paths)
        assert list(joined.take(np.array([3, 0]))) == [paths[3], paths[0]]


# ----------------------------------------------------------------------
# Parity with the reference heap
# ----------------------------------------------------------------------
def _quantised(engine, result, step):
    """``result`` with arc delays rounded to multiples of ``step`` and
    arrivals re-propagated from them, so that equal-arrival fanins (and
    hence exact ties between partial paths) are common."""
    graph = engine.graph
    delay = np.round(result.arc_delay / step) * step
    arrival = np.round(result.arrival / step) * step
    for level in range(1, graph.max_level + 1):
        pins = np.flatnonzero(graph.level == level)
        arcs, counts = csr_gather(graph.fanin_offsets, graph.fanin_arcs, pins)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        arrival[pins] = np.maximum.reduceat(arrival[graph.arc_from[arcs]] + delay[arcs], starts)
    return dataclasses.replace(result, arrival=arrival, arc_delay=delay)


def _reference_paths(engine, result, endpoints, k):
    return [
        path
        for endpoint in endpoints.tolist()
        for path in _reference_worst_paths_to_endpoint(engine, result, endpoint, k)
    ]


def _assert_same_paths(paths, reference):
    """Pins, arcs, endpoints and order equal; arrival/required bit-equal."""
    assert list(paths) == reference
    for field in ("arrival", "required"):
        got = np.array([getattr(p, field) for p in paths], dtype=np.float64)
        want = np.array([getattr(p, field) for p in reference], dtype=np.float64)
        assert got.tobytes() == want.tobytes(), field


def _assert_parity(engine, result, n, *, failing_only):
    """Both report commands equal the reference heap; returns k = 1 stats."""
    endpoints = _worst_endpoints(result, n, failing_only=failing_only)
    paths, stats = report_timing_endpoint(
        engine, n, 1, result=result, failing_only=failing_only
    )
    reference = _reference_paths(engine, result, endpoints, 1)
    _assert_same_paths(paths, reference)
    assert stats.num_paths == len(reference)
    assert stats.num_endpoints == len({p.endpoint for p in reference})
    pairs = {pair for p in reference for pair in p.pin_pairs(engine.graph)}
    assert stats.num_pin_pairs == len(pairs)

    few = endpoints[:12]
    paths_k, _ = report_timing_endpoint(
        engine, few.size, 3, result=result, failing_only=failing_only
    )
    _assert_same_paths(paths_k, _reference_paths(engine, result, few, 3))

    worst, _ = report_timing(
        engine, 6, result=result, failing_only=failing_only, max_paths_per_endpoint=4
    )
    pool = _reference_paths(
        engine, result, _worst_endpoints(result, 6, failing_only=failing_only), 4
    )
    pool.sort(key=lambda p: p.slack)
    _assert_same_paths(worst, pool[:6])
    return stats


def _random_engine(seed, num_cells, depth, placement_seed):
    spec = CircuitSpec(
        name="parity",
        num_cells=num_cells,
        logic_depth=depth,
        num_primary_inputs=4,
        num_primary_outputs=4,
        clock_tightness=0.5,
        seed=seed,
    )
    design = generate_circuit(spec)
    engine = STAEngine(design)
    x, y = initial_placement(design, seed=placement_seed)
    return engine, engine.update_timing(x, y)


class TestExtractionParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_cells=st.integers(20, 120),
        depth=st.integers(1, 6),
        placement_seed=st.integers(0, 100),
        step=st.sampled_from([None, 1.0, 10.0, 50.0]),
        failing_only=st.booleans(),
    )
    def test_walk_matches_reference_heap(
        self, seed, num_cells, depth, placement_seed, step, failing_only
    ):
        engine, result = _random_engine(seed, num_cells, depth, placement_seed)
        if step is not None:
            result = _quantised(engine, result, step)
        n = result.endpoint_pins.size
        _assert_parity(engine, result, n, failing_only=failing_only)

    def test_heap_fallback_fires_on_exact_ties(self):
        """Quantised delays force ties; the walk hands those endpoints to
        the heap and the output stays bitwise equal to the reference."""
        engine, result = _random_engine(3, 120, 4, 0)
        stats = _assert_parity(
            engine, _quantised(engine, result, 50.0), result.endpoint_pins.size,
            failing_only=False,
        )
        assert 0 < stats.num_heap_fallbacks < stats.num_paths

    def test_trace_records_heap_fallbacks(self):
        engine, result = _random_engine(3, 120, 4, 0)
        result = _quantised(engine, result, 50.0)
        tracer = start_tracing()
        try:
            _, stats = report_timing_endpoint(engine, 40, 1, result=result)
        finally:
            stop_tracing()
        (record,) = [r for r in tracer.records() if r.name == "timing.report_endpoint"]
        assert record.attrs == {
            "k": 1, "paths": stats.num_paths, "heap_fallbacks": stats.num_heap_fallbacks,
        }
        assert stats.num_heap_fallbacks > 0

    def test_unquantised_walk_needs_no_fallback(self, small_engine):
        result = small_engine.last_result
        stats = _assert_parity(
            small_engine, result, result.num_failing_endpoints, failing_only=True
        )
        assert stats.num_paths > 0
        assert stats.num_heap_fallbacks == 0

    def test_parent_pointer_heap_matches_reference(self, small_engine):
        result = small_engine.last_result
        graph = small_engine.graph
        tables = (
            result.arrival.tolist(),
            result.arc_delay.tolist(),
            graph.fanin_offsets.tolist(),
            graph.fanin_arcs.tolist(),
            graph.arc_from.tolist(),
        )
        for endpoint in result.failing_endpoints[:8].tolist():
            fast = _worst_paths_to_endpoint(tables, endpoint, 5)
            reference = _reference_worst_paths_to_endpoint(small_engine, result, endpoint, 5)
            assert [(arcs, start) for arcs, start, _ in fast] == [
                (p.arcs, p.startpoint) for p in reference
            ]
            assert [arrival for _, _, arrival in fast] == [p.arrival for p in reference]

    def test_failing_endpoints_order_is_shared(self, small_engine):
        """One endpoint order: extraction slices the memoised stable order."""
        result = small_engine.last_result
        n = result.num_failing_endpoints
        np.testing.assert_array_equal(
            _worst_endpoints(result, n, failing_only=True), result.failing_endpoints
        )
        slack = result.endpoint_slack
        failing = slack < 0
        stable = result.endpoint_pins[failing][np.argsort(slack[failing], kind="stable")]
        np.testing.assert_array_equal(result.failing_endpoints, stable)
