"""Tests for the deterministic process-pool fan-out (``repro.parallel``)."""

import numpy as np
import pytest

import os

from repro import parallel
from repro.parallel import (
    PersistentPool,
    WorkerCrashError,
    derive_rngs,
    derive_seeds,
    fork_available,
    parallel_map,
)


def square(x):
    return x * x


def draw(x, rng):
    return x + int(rng.integers(0, 1_000_000))


def crash_on_odd(x):
    if x % 2 == 1:
        os._exit(13)
    return x


class TestSerialPath:
    def test_workers_one_matches_map(self):
        assert parallel_map(square, range(10), workers=1) == \
            [x * x for x in range(10)]

    def test_workers_none_is_serial(self):
        assert parallel_map(square, [3, 4]) == [9, 16]

    def test_empty_items(self):
        assert parallel_map(square, [], workers=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [5], workers=4) == [25]

    def test_closures_allowed(self):
        offset = 7
        assert parallel_map(lambda x: x + offset, [1, 2], workers=1) == [8, 9]


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestParallelPath:
    def test_matches_serial(self):
        serial = parallel_map(square, range(20), workers=1)
        fanned = parallel_map(square, range(20), workers=4)
        assert fanned == serial

    def test_closures_cross_fork(self):
        big = list(range(1000))
        assert parallel_map(lambda i: big[i], [0, 999], workers=2) == [0, 999]

    def test_nested_call_degrades_to_serial(self):
        def outer(x):
            return sum(parallel_map(square, range(x + 1), workers=2))

        assert parallel_map(outer, [2, 3], workers=2) == [5, 14]


class TestSeededDeterminism:
    def test_derive_seeds_stable(self):
        a = [s.generate_state(2).tolist() for s in derive_seeds(42, 3)]
        b = [s.generate_state(2).tolist() for s in derive_seeds(42, 3)]
        assert a == b

    def test_derive_rngs_independent(self):
        rngs = derive_rngs(0, 2)
        assert rngs[0].integers(0, 10**9) != rngs[1].integers(0, 10**9)

    def test_seeded_serial_reproducible(self):
        a = parallel_map(draw, range(6), workers=1, seed=123)
        b = parallel_map(draw, range(6), workers=1, seed=123)
        assert a == b

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_seeded_parallel_matches_serial(self):
        serial = parallel_map(draw, range(12), workers=1, seed=99)
        fanned = parallel_map(draw, range(12), workers=3, seed=99)
        assert fanned == serial

    def test_use_seeds_without_seed_passes_rng(self):
        results = parallel_map(lambda x, rng: isinstance(
            rng, np.random.Generator), range(3), use_seeds=True)
        assert results == [True, True, True]


class TestFallbacks:
    def test_fork_unavailable_falls_back(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        assert parallel_map(square, range(5), workers=4) == \
            [x * x for x in range(5)]

    def test_fork_state_cleared_after_run(self):
        parallel_map(square, range(4), workers=2)
        assert PersistentPool.active_pools() == []

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pool_construction_failure_falls_back(self, monkeypatch):
        def refuse(method):
            raise OSError("cannot fork")

        monkeypatch.setattr(parallel.multiprocessing, "get_context", refuse)
        assert parallel_map(square, range(5), workers=4) == \
            [x * x for x in range(5)]
        assert PersistentPool.active_pools() == []


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestFailurePropagation:
    """A raising ``fn`` must propagate — never silently re-run serially.

    The old code wrapped the whole pool run in ``except (OSError,
    AssertionError)`` and fell back to the serial loop, so a worker that
    had already performed side effects would execute again in the parent
    and the original error context was lost.
    """

    def test_worker_exception_propagates(self):
        def explode(x):
            if x == 2:
                raise OSError("disk gone")
            return x

        with pytest.raises(OSError, match="disk gone"):
            parallel_map(explode, range(4), workers=2)

    def test_non_oserror_propagates_too(self):
        def explode(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(ValueError, match="bad item"):
            parallel_map(explode, range(4), workers=2)

    def test_no_serial_rerun_after_worker_failure(self, tmp_path):
        # Workers append one line per execution to a shared log (O_APPEND
        # writes from separate processes don't interleave at this size).
        log = tmp_path / "executions.log"

        def record_and_maybe_explode(x):
            with open(log, "a") as handle:
                handle.write(f"{x}\n")
            if x == 1:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(record_and_maybe_explode, range(6), workers=3)
        executions = log.read_text().split()
        # Each item ran at most once: the failure was not retried serially.
        assert len(executions) == len(set(executions))

    def test_fork_state_cleared_after_failure(self):
        def explode(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            parallel_map(explode, range(4), workers=2)
        assert PersistentPool.active_pools() == []

    def test_worker_crash_raises(self):
        # A worker that dies mid-item is reported, not waited on forever.
        with pytest.raises(WorkerCrashError):
            parallel_map(crash_on_odd, range(4), workers=2)
        assert PersistentPool.active_pools() == []


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestTelemetryPropagation:
    """Worker-side obs counters/events ship back and merge in item order."""

    def _traced_counts(self, workers):
        from repro import obs
        from repro.obs import ListSink

        def work(x):
            obs.count("work.items")
            obs.count("work.value", x)
            obs.event("work.done", item=x)
            return x * x

        sink = ListSink()
        with obs.tracing(sink=sink) as tracer:
            results = parallel_map(work, range(8), workers=workers)
            counters = dict(tracer.metrics.counters)
        events = [r for r in sink.records if r["type"] == "event"]
        return results, counters, events

    def test_parallel_counters_match_serial(self):
        serial_results, serial_counters, _ = self._traced_counts(workers=1)
        fanned_results, fanned_counters, _ = self._traced_counts(workers=4)
        assert fanned_results == serial_results
        assert fanned_counters == serial_counters
        assert fanned_counters["work.items"] == 8
        assert fanned_counters["work.value"] == sum(range(8))

    def test_events_arrive_in_item_order(self):
        _, _, events = self._traced_counts(workers=4)
        assert [r["item"] for r in events] == list(range(8))
        seqs = [r["seq"] for r in events]
        assert seqs == sorted(seqs)

    def test_untraced_run_ships_no_snapshots(self):
        # With tracing disabled capture_child yields None snapshots; the
        # map still returns plain results.
        assert parallel_map(square, range(6), workers=3) == \
            [x * x for x in range(6)]
