"""Rolling-window SLO tracking: windows, budgets, alerts, fork currency."""

import numpy as np
import pytest

from repro import obs
from repro.obs import ListSink
from repro.obs.slo import (
    FAILURE_KINDS,
    RollingCounter,
    RollingWindow,
    SloConfig,
    SloTracker,
    current_slo_tracker,
    install,
)


class TestRollingWindow:
    def test_observations_inside_window_are_kept(self):
        win = RollingWindow(window_s=10.0, num_buckets=5)
        for t, v in ((0.0, 1.0), (3.0, 2.0), (9.0, 3.0)):
            win.observe(v, now=t)
        assert win.values(now=9.0) == [1.0, 2.0, 3.0]
        assert win.count(now=9.0) == 3

    def test_old_buckets_fall_out(self):
        win = RollingWindow(window_s=10.0, num_buckets=5)
        win.observe(1.0, now=0.0)
        win.observe(2.0, now=9.0)
        # At t=15 the t=0 bucket is outside [5, 15]; the t=9 one is not.
        assert win.values(now=15.0) == [2.0]
        # Far future: everything pruned.
        assert win.values(now=100.0) == []

    def test_percentiles_interpolate(self):
        win = RollingWindow(window_s=100.0, num_buckets=10)
        for i in range(1, 101):
            win.observe(float(i), now=float(i % 50))
        assert win.percentile(0.0, now=49.0) == 1.0
        assert win.percentile(1.0, now=49.0) == 100.0
        assert win.percentile(0.5, now=49.0) == pytest.approx(50.5)

    def test_empty_window_percentile_is_none(self):
        win = RollingWindow()
        assert win.percentile(0.95, now=0.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=0.0)
        with pytest.raises(ValueError):
            RollingWindow(num_buckets=0)
        with pytest.raises(ValueError):
            RollingWindow().percentile(1.5, now=0.0)

    def test_delta_since_is_append_only_tail(self):
        win = RollingWindow(window_s=10.0, num_buckets=5)
        win.observe(1.0, now=0.0)
        base = win.state()
        win.observe(2.0, now=0.5)     # same bucket, appended
        win.observe(3.0, now=4.0)     # new bucket
        delta = win.delta_since(base)
        assert delta == {0: [2.0], 2: [3.0]}
        other = RollingWindow(window_s=10.0, num_buckets=5)
        other.observe(1.0, now=0.0)
        other.merge_state(delta)
        assert other.values(now=4.0) == win.values(now=4.0)


class TestRollingCounter:
    def test_totals_and_pruning(self):
        ctr = RollingCounter(window_s=10.0, num_buckets=5)
        ctr.inc("ok", now=0.0)
        ctr.inc("ok", now=9.0)
        ctr.inc("rejected", now=9.0)
        assert ctr.totals(now=9.0) == {"ok": 2, "rejected": 1}
        assert ctr.totals(now=15.0) == {"ok": 1, "rejected": 1}

    def test_delta_merge_roundtrip(self):
        ctr = RollingCounter(window_s=10.0, num_buckets=5)
        ctr.inc("ok", now=1.0)
        base = ctr.state()
        ctr.inc("ok", now=1.0)
        ctr.inc("error", now=3.0)
        delta = ctr.delta_since(base)
        fresh = RollingCounter(window_s=10.0, num_buckets=5)
        fresh.merge_state(delta)
        assert fresh.totals(now=3.0) == {"ok": 1, "error": 1}


class TestSloTracker:
    def test_unknown_outcome_rejected(self):
        tracker = SloTracker()
        with pytest.raises(ValueError, match="unknown outcome"):
            tracker.record("exploded", now=0.0)

    def test_report_counts_and_percentiles(self):
        tracker = SloTracker(SloConfig(window_s=60.0))
        for i in range(20):
            tracker.record("ok", latency_ms=float(i + 1), now=1.0,
                           check=False)
        tracker.record("shed_deadline", now=1.0, check=False)
        report = tracker.report(now=1.0)
        assert report["requests"] == 21
        assert report["ok"] == 20
        assert report["failures"] == {"shed_deadline": 1}
        assert report["error_rate"] == pytest.approx(1 / 21)
        assert report["latency_ms"]["count"] == 20
        assert report["latency_ms"]["p50"] == pytest.approx(10.5)
        assert report["totals"] == {"ok": 20, "shed_deadline": 1}

    def test_error_budget_alert_fires_and_clears(self):
        config = SloConfig(window_s=10.0, num_buckets=5, error_budget=0.1,
                           min_requests=5, check_interval_s=0.0)
        tracker = SloTracker(config)
        sink = ListSink()
        with obs.tracing(sink=sink):
            for _ in range(8):
                tracker.record("ok", latency_ms=1.0, now=1.0, check=False)
            for _ in range(4):
                tracker.record("error", now=1.0, check=False)
            tracker.check(now=1.0)
            assert "error_budget" in tracker.active_alerts
            assert tracker.alerts_fired == 1
            # Window rolls past the failures: objective recovers.
            for _ in range(10):
                tracker.record("ok", latency_ms=1.0, now=30.0, check=False)
            tracker.check(now=30.0)
            assert tracker.active_alerts == {}
        names = [r["name"] for r in sink.records if r["type"] == "event"]
        assert names.count("slo.alert") == 1
        assert names.count("slo.clear") == 1
        alert = next(r for r in sink.records if r.get("name") == "slo.alert")
        assert alert["objective"] == "error_budget"
        assert alert["value"] > alert["target"]

    def test_latency_objective_alert(self):
        config = SloConfig(window_s=10.0, num_buckets=5, error_budget=1.0,
                           latency_p95_ms=50.0, min_requests=1,
                           check_interval_s=0.0)
        tracker = SloTracker(config)
        for _ in range(20):
            tracker.record("ok", latency_ms=100.0, now=1.0, check=False)
        verdicts = tracker.check(now=1.0)
        assert not verdicts["latency_p95_ms"]["ok"]
        assert "latency_p95_ms" in tracker.active_alerts

    def test_min_requests_suppresses_noise(self):
        config = SloConfig(error_budget=0.01, min_requests=10,
                           check_interval_s=0.0)
        tracker = SloTracker(config)
        tracker.record("error", now=0.0, check=False)
        verdicts = tracker.check(now=0.0)
        assert verdicts["error_budget"]["ok"]  # 1 request < min_requests

    def test_check_interval_throttles(self):
        config = SloConfig(error_budget=0.5, min_requests=1,
                           check_interval_s=100.0)
        tracker = SloTracker(config)
        # Every record goes through maybe_check; only the first (at -inf
        # distance) actually evaluates.
        tracker.record("error", now=0.0)
        tracker.record("error", now=1.0)
        tracker.record("error", now=2.0)
        assert tracker._last_check == 0.0

    def test_snapshot_diff_merge_roundtrip(self):
        a = SloTracker(SloConfig(window_s=60.0))
        a.record("ok", latency_ms=5.0, now=1.0, check=False)
        base = a.snapshot()
        a.record("ok", latency_ms=7.0, now=2.0, check=False)
        a.record("rejected", now=3.0, check=False)
        delta = a.diff(base)
        b = SloTracker(SloConfig(window_s=60.0))
        b.record("ok", latency_ms=5.0, now=1.0, check=False)
        b.merge(delta)
        assert b.report(now=3.0) == a.report(now=3.0)

    def test_install_and_capture_child_propagation(self):
        tracker = SloTracker(SloConfig(window_s=60.0))
        assert current_slo_tracker() is None
        with install(tracker):
            assert current_slo_tracker() is tracker
            with obs.capture_child() as cap:
                tracker.record("ok", latency_ms=3.0, now=1.0, check=False)
                tracker.record("rejected", now=1.0, check=False)
            # The delta rode the snapshot even with tracing off.
            snap = cap.snapshot
            assert snap["slo"]["totals"] == {"ok": 1, "rejected": 1}
            # A fresh parent-side tracker absorbs the child delta.
            parent = SloTracker(SloConfig(window_s=60.0))
            with install(parent):
                obs.absorb(snap)
            assert parent.totals == {"ok": 1, "rejected": 1}
            assert parent.latency.count(now=1.0) == 1
        assert current_slo_tracker() is None


class TestDynamicLoopIntegration:
    def test_run_dynamic_episode_feeds_tracker(self):
        from repro.datasets import (
            InstanceOptions,
            generate_instances,
            poisson_arrivals,
        )
        from repro.smore import GreedySelectionRule, SMORESolver
        from repro.tsptw import InsertionSolver

        instance = generate_instances(
            "delivery", 1, seed=3,
            options=InstanceOptions(task_density=0.03, budget=120.0))[0]
        schedule = poisson_arrivals(instance, np.random.default_rng(3),
                                    initial_fraction=0.4, ttl=30.0)
        solver = SMORESolver(InsertionSolver(), GreedySelectionRule())
        tracker = SloTracker(SloConfig(window_s=1e9, check_interval_s=0.0,
                                       min_requests=10**6))
        with install(tracker):
            result = solver.solve_dynamic(instance, schedule)
        # Every scheduled task is accounted once: selections recorded ok,
        # expiries/dead-on-arrival recorded rejected — on simulation time.
        assert tracker.totals.get("ok", 0) == len(result.selected_ids)
        assert tracker.totals.get("rejected", 0) == len(result.rejected_ids)
        assert tracker.totals.get("ok", 0) + \
            tracker.totals.get("rejected", 0) > 0
        # Repair latencies landed in the window (ms, non-negative).
        values = tracker.latency.values(now=instance.coverage.time_span)
        assert all(v >= 0.0 for v in values)

    @pytest.mark.parametrize("window_s", [60.0, 120.0])
    def test_greedy_feed_matches_oracle_loop(self, window_s):
        """The feed ``advance`` gives an installed tracker is the one the
        per-state epoch loop gave: same totals, same alert transitions
        at the same simulation times (60: fire and clear, 120: still
        firing at the end)."""
        from repro.datasets import (
            InstanceOptions,
            generate_instances,
            poisson_arrivals,
        )
        from repro.smore import (
            DynamicSelectionEnv,
            GreedySelectionRule,
            SMORESolver,
        )
        from repro.tsptw import InsertionSolver

        from ..smore.oracle import run_dynamic_episode

        instance = generate_instances(
            "delivery", 1, seed=3,
            options=InstanceOptions(task_density=0.03, budget=120.0))[0]
        schedule = poisson_arrivals(instance, np.random.default_rng(3),
                                    initial_fraction=0.4, ttl=30.0)

        def tracker():
            # The run-closing check() reads the clock: pin it to the
            # horizon so both sides close on simulation time.
            return SloTracker(
                SloConfig(window_s=window_s, error_budget=0.2,
                          min_requests=3, check_interval_s=0.0),
                clock=lambda: schedule.horizon)

        def transitions(sink):
            return [(r["name"], r["objective"], r["value"], r["at"])
                    for r in sink.records
                    if r.get("name") in ("slo.alert", "slo.clear")]

        solved, solved_sink = tracker(), ListSink()
        with install(solved), obs.tracing(sink=solved_sink):
            SMORESolver(InsertionSolver(), GreedySelectionRule()) \
                .solve_dynamic(instance, schedule)
        oracle, oracle_sink = tracker(), ListSink()
        with obs.tracing(sink=oracle_sink):
            run_dynamic_episode(
                DynamicSelectionEnv(instance, InsertionSolver(), schedule),
                GreedySelectionRule(), tracker=oracle)
            oracle.check()  # solve_dynamic's closing check and report
            oracle.report()
        assert solved.alerts_fired >= 1
        assert solved.totals == oracle.totals
        assert solved.alerts_fired == oracle.alerts_fired
        assert solved.active_alerts == oracle.active_alerts
        assert transitions(solved_sink) == transitions(oracle_sink)
        # Repair latencies are wall clock: compare where they landed
        # (the window at the horizon).
        landed = [sorted((epoch, len(values)) for epoch, values
                         in tracker.latency.state().items())
                  for tracker in (solved, oracle)]
        assert landed[0] and landed[0] == landed[1]

    def test_failure_kinds_cover_serving_and_dynamic(self):
        assert set(FAILURE_KINDS) == \
            {"shed_deadline", "overload", "error", "rejected"}

    def test_parallel_rollouts_merge_same_totals(self):
        from repro.datasets import (
            InstanceOptions,
            generate_instances,
            poisson_arrivals,
        )
        from repro.smore import GreedySelectionRule, SMORESolver
        from repro.tsptw import InsertionSolver

        instance = generate_instances(
            "delivery", 1, seed=5,
            options=InstanceOptions(task_density=0.02, budget=100.0))[0]
        schedule = poisson_arrivals(instance, np.random.default_rng(5),
                                    initial_fraction=0.5, ttl=40.0)

        def run(workers):
            solver = SMORESolver(InsertionSolver(), GreedySelectionRule())
            tracker = SloTracker(SloConfig(window_s=1e9,
                                           min_requests=10**6))
            with install(tracker):
                solver.solve_dynamic(instance, schedule, greedy=False,
                                     rng=np.random.default_rng(11),
                                     num_samples=3, workers=workers)
            return dict(tracker.totals)

        assert run(1) == run(2)
