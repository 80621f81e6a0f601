"""Tests for the per-solve performance counters (``repro.core.perf``)."""

import pytest

from repro.core.perf import PerfCounters


def _sample():
    return PerfCounters(planner_calls=10, init_planner_calls=4,
                        backend_calls=3, cache_hits=6, cache_misses=4,
                        cache_size=5, init_time=0.5,
                        selection_time=1.5, rollouts=2)


class TestDerived:
    def test_cache_hit_rate(self):
        assert _sample().cache_hit_rate == pytest.approx(0.6)
        assert PerfCounters().cache_hit_rate == 0.0

    def test_total_time(self):
        assert _sample().total_time == pytest.approx(2.0)


class TestMerge:
    def test_additive_fields_sum(self):
        merged = _sample().merge(_sample())
        assert merged.planner_calls == 20
        assert merged.backend_calls == 6
        assert merged.init_time == pytest.approx(1.0)
        assert merged.rollouts == 4

    def test_cache_size_keeps_maximum(self):
        a = PerfCounters(cache_size=3)
        a.merge(PerfCounters(cache_size=9))
        a.merge(PerfCounters(cache_size=2))
        assert a.cache_size == 9


class TestDiff:
    def test_baseline_plus_diff_reproduces(self):
        baseline = PerfCounters(planner_calls=5, cache_hits=2, cache_size=3,
                                init_time=0.25)
        current = _sample()
        delta = current.diff(baseline)
        rebuilt = PerfCounters.from_dict(baseline.to_dict()).merge(delta)
        assert rebuilt == current

    def test_diff_of_self_is_zero_except_gauge(self):
        current = _sample()
        delta = current.diff(current)
        assert delta.planner_calls == 0
        assert delta.backend_calls == 0
        assert delta.init_time == 0.0
        # cache_size merges by max, so the delta carries the current value.
        assert delta.cache_size == current.cache_size


class TestDictRoundTrip:
    def test_to_from_dict(self):
        perf = _sample()
        assert PerfCounters.from_dict(perf.to_dict()) == perf

    def test_from_dict_ignores_derived_and_unknown_keys(self):
        payload = _sample().to_dict()
        assert "cache_hit_rate" in payload  # derived key present in dumps
        payload["not_a_field"] = 123
        assert PerfCounters.from_dict(payload) == _sample()


class TestSummary:
    def test_backend_calls_shown_when_nonzero(self):
        assert "backend_calls=3" in _sample().summary()

    def test_backend_calls_hidden_when_zero(self):
        assert "backend_calls" not in PerfCounters(planner_calls=1).summary()
