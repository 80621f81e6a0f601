"""Tests for the metrics registry and training history (``repro.obs``)."""

import pickle

import pytest

from repro.core.perf import PerfCounters
from repro.obs import (
    PERF_COUNTER_NAMES,
    PERF_GAUGE_NAMES,
    PERF_TIMING_NAMES,
    MetricsRegistry,
    TrainingHistory,
)


class TestBasicOps:
    def test_inc_accumulates(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counters == {"a": 5}

    def test_gauge_keeps_maximum(self):
        m = MetricsRegistry()
        m.gauge("size", 3)
        m.gauge("size", 7)
        m.gauge("size", 5)
        assert m.gauges == {"size": 7}

    def test_add_time_sums(self):
        m = MetricsRegistry()
        m.add_time("t", 0.25)
        m.add_time("t", 0.5)
        assert m.timings["t"] == pytest.approx(0.75)

    def test_clear(self):
        m = MetricsRegistry()
        m.inc("a")
        m.gauge("g", 1)
        m.add_time("t", 1.0)
        m.clear()
        assert m.to_dict() == {"counters": {}, "gauges": {}, "timings": {}}


class TestSnapshotMerge:
    def test_snapshot_is_picklable_copy(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        snap = m.snapshot()
        m.inc("a", 3)  # later mutation must not leak into the snapshot
        assert snap["counters"] == {"a": 2}
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_snapshot_round_trip(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        m.gauge("g", 4)
        m.add_time("t", 0.5)
        other = MetricsRegistry()
        other.merge_snapshot(m.snapshot())
        assert other.to_dict() == m.to_dict()

    def test_merge_sums_counters_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        a.gauge("g", 10)
        b.inc("n", 3)
        b.gauge("g", 4)
        b.add_time("t", 1.0)
        a.merge(b)
        assert a.counters == {"n": 5}
        assert a.gauges == {"g": 10}
        assert a.timings == {"t": 1.0}

    def test_merge_is_order_insensitive_for_counters(self):
        parts = []
        for value in (1, 5, 2):
            m = MetricsRegistry()
            m.inc("n", value)
            m.gauge("g", value)
            parts.append(m.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in parts:
            forward.merge_snapshot(snap)
        for snap in reversed(parts):
            backward.merge_snapshot(snap)
        assert forward.to_dict() == backward.to_dict()


class TestDiff:
    def test_diff_drops_zero_deltas(self):
        m = MetricsRegistry()
        m.inc("unchanged", 5)
        baseline = m.snapshot()
        m.inc("changed", 3)
        delta = m.diff(baseline)
        assert delta["counters"] == {"changed": 3}

    def test_baseline_plus_delta_reproduces(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        m.gauge("g", 3)
        m.add_time("t", 0.5)
        baseline = m.snapshot()
        m.inc("a", 4)
        m.gauge("g", 9)
        m.add_time("t", 0.25)
        delta = m.diff(baseline)

        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(baseline)
        rebuilt.merge_snapshot(delta)
        assert rebuilt.to_dict() == m.to_dict()


class TestPerfRoundTrip:
    def _perf(self):
        return PerfCounters(planner_calls=10, init_planner_calls=4,
                            backend_calls=3, cache_hits=6, cache_misses=4,
                            cache_size=5, init_time=0.5,
                            selection_time=1.5, rollouts=2)

    def test_record_then_project_back(self):
        perf = self._perf()
        m = MetricsRegistry()
        m.record_perf(perf)
        assert m.to_perf() == perf

    def test_all_fields_covered(self):
        # Every PerfCounters field must belong to exactly one category, or
        # the round trip above silently drops new fields.
        from dataclasses import fields

        categorised = set(PERF_COUNTER_NAMES + PERF_TIMING_NAMES
                          + PERF_GAUGE_NAMES)
        assert {f.name for f in fields(PerfCounters)} == categorised

    def test_prefix_namespacing(self):
        m = MetricsRegistry()
        m.record_perf(self._perf(), prefix="solve.")
        assert "solve.planner_calls" in m.counters
        assert m.to_perf(prefix="solve.") == self._perf()
        assert m.to_perf(prefix="other.") == PerfCounters()


class TestSpanSummary:
    def test_rows_from_span_timings(self):
        m = MetricsRegistry()
        m.add_time("span.solve.time", 1.0)
        m.add_time("span.solve.count", 2)
        m.add_time("span.solve/init.time", 0.25)
        m.add_time("span.solve/init.count", 1)
        m.add_time("not_a_span", 9.0)
        assert m.span_summary() == [("solve", 2, 1.0),
                                    ("solve/init", 1, 0.25)]

    def test_empty_registry(self):
        assert MetricsRegistry().span_summary() == []


class TestTrainingHistory:
    def test_record_appends_series(self):
        h = TrainingHistory(reward=[])
        h.record(reward=1.0, loss=0.5)
        h.record(reward=2.0, loss=0.25)
        assert h["reward"] == [1.0, 2.0]
        assert h.series("loss") == [0.5, 0.25]

    def test_dict_indexing_preserved(self):
        # Existing call sites index the history like a plain dict.
        h = TrainingHistory(reward=[], val=[])
        h["reward"].append(3.0)
        assert h["reward"] == [3.0]
        assert isinstance(h, dict)

    def test_last(self):
        h = TrainingHistory()
        assert h.last("reward") is None
        assert h.last("reward", 0.0) == 0.0
        h.record(reward=4.0)
        assert h.last("reward") == 4.0

    def test_summary_mentions_each_series(self):
        h = TrainingHistory()
        h.record(reward=1.0)
        h.record(reward=2.0)
        text = h.summary()
        assert "reward" in text
        assert "n=2" in text
