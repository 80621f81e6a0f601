"""PersistentPool: parity with ``parallel_map``, crashes, zero-copy shares."""

import multiprocessing
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import ListSink
from repro.parallel import (
    PersistentPool,
    WorkerCrashError,
    fork_available,
    parallel_map,
    shared_arrays,
)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


def square(x):
    return x * x


def draw(x, rng):
    return x + int(rng.integers(0, 1_000_000))


def worker_pid(_):
    return os.getpid()


def read_shared_sum(key):
    arrays = shared_arrays(key)
    return None if arrays is None else float(arrays["data"].sum())


_HELD_VIEWS = []


def hold_view(key):
    _HELD_VIEWS[:] = [shared_arrays(key)["data"]]
    return True


def release_views(_):
    _HELD_VIEWS.clear()
    return True


def own_psm_mappings(_):
    with open("/proc/self/maps") as maps:
        return sum("psm_" in line for line in maps)


def crash_on_odd(x):
    if x % 2 == 1:
        os._exit(13)
    return x


class TestSerialPath:
    def test_workers_one_is_serial(self):
        with PersistentPool(workers=1) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]
            assert not pool.started

    def test_single_item_stays_serial(self):
        with PersistentPool(workers=4) as pool:
            assert pool.map(square, [5]) == [25]
            assert not pool.started

    def test_empty_items(self):
        with PersistentPool(workers=4) as pool:
            assert pool.map(square, []) == []

    def test_closure_serial(self):
        offset = 3
        with PersistentPool(workers=1) as pool:
            assert pool.map(lambda x: x + offset, [1, 2]) == [4, 5]


@needs_fork
class TestParallelParity:
    def test_matches_parallel_map(self):
        serial = parallel_map(square, range(20), workers=1)
        with PersistentPool(workers=3) as pool:
            assert pool.map(square, range(20)) == serial

    def test_seeds_match_parallel_map(self):
        # Identical per-item derivation: the pool and the fork fan-out are
        # interchangeable for seeded work.
        reference = parallel_map(draw, range(12), workers=1, seed=99)
        assert parallel_map(draw, range(12), workers=3, seed=99) == reference
        with PersistentPool(workers=3) as pool:
            assert pool.map(draw, range(12), seed=99) == reference
            assert pool.map(draw, range(12), seed=99) == reference

    def test_use_seeds_without_seed(self):
        with PersistentPool(workers=2) as pool:
            flags = pool.map(
                lambda x, rng: isinstance(rng, np.random.Generator),
                range(4), use_seeds=True)
        assert flags == [True, True, True, True]

    def test_workers_stay_resident_across_maps(self):
        with PersistentPool(workers=2) as pool:
            first = set(pool.map(worker_pid, range(16)))
            resident = set(pool.pids())
            second = set(pool.map(worker_pid, range(16)))
        assert first <= resident
        assert second <= resident
        assert os.getpid() not in first

    def test_registered_closure_runs_after_start(self):
        big = list(range(1000))
        pool = PersistentPool(workers=2)
        pool.register("lookup", lambda i: big[i])
        try:
            assert pool.map("lookup", [0, 999]) == [0, 999]
            assert pool.map("lookup", [1, 998]) == [1, 998]
        finally:
            pool.close()

    def test_unregistered_closure_to_started_pool_rejected(self):
        with PersistentPool(workers=2) as pool:
            pool.map(square, range(4))
            assert pool.started
            with pytest.raises(TypeError, match="register"):
                pool.map(lambda x: x + 1, range(4))

    def test_register_after_start_rejected(self):
        with PersistentPool(workers=2) as pool:
            pool.map(square, range(4))
            with pytest.raises(RuntimeError, match="before the pool starts"):
                pool.register("late", square)


@needs_fork
class TestTelemetryParity:
    def _traced(self, runner):
        def work(x):
            obs.count("pool_test.items")
            obs.count("pool_test.value", x)
            obs.event("pool_test.done", item=x)
            return x * x

        sink = ListSink()
        with obs.tracing(sink=sink) as tracer:
            results = runner(work)
            counters = dict(tracer.metrics.counters)
        events = [r for r in sink.records if r["type"] == "event"
                  and r["name"] == "pool_test.done"]
        return results, counters, events

    def test_counters_and_event_order_match_serial(self):
        serial = self._traced(lambda fn: parallel_map(fn, range(8), workers=1))
        with PersistentPool(workers=3) as pool:
            pooled = self._traced(lambda fn: pool.map(fn, range(8)))
        assert pooled[0] == serial[0]
        for name, value in serial[1].items():
            if name.startswith("pool_test."):
                assert pooled[1][name] == value
        assert [r["item"] for r in pooled[2]] == list(range(8))


@needs_fork
class TestFailurePropagation:
    def test_worker_exception_propagates_and_pool_survives(self):
        def explode(x):
            if x == 2:
                raise OSError("disk gone")
            return x

        with PersistentPool(workers=2) as pool:
            with pytest.raises(OSError, match="disk gone"):
                pool.map(explode, range(6), chunksize=1)
            pids = set(pool.pids())
            # Same resident workers keep serving after a plain exception.
            assert pool.map(square, range(6)) == [x * x for x in range(6)]
            assert set(pool.pids()) == pids

    def test_no_silent_rerun_after_exception(self, tmp_path):
        log = tmp_path / "executions.log"

        def record_and_maybe_explode(x):
            with open(log, "a") as handle:
                handle.write(f"{x}\n")
            if x == 1:
                raise RuntimeError("boom")
            return x

        with PersistentPool(workers=3) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(record_and_maybe_explode, range(6), chunksize=1)
        executions = log.read_text().split()
        assert len(executions) == len(set(executions))

    def test_worker_crash_raises_and_reports_lost_items(self):
        pool = PersistentPool(workers=2)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map(crash_on_odd, range(8), chunksize=1)
        finally:
            pool.close()
        message = str(excinfo.value)
        assert "died mid-chunk" in message
        assert "nothing was re-executed" in message
        assert pool.closed
        # A crashed pool refuses further maps instead of quietly restarting.
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(square, range(4))

    def test_crash_leaves_no_children_or_shared_blocks(self):
        pool = PersistentPool(workers=2)
        pool.share_arrays("crash-test", {"data": np.arange(4.0)})
        with pytest.raises(WorkerCrashError):
            pool.map(crash_on_odd, range(8), chunksize=1)
        for proc in multiprocessing.active_children():
            proc.join(timeout=5)
        assert pool not in PersistentPool.active_pools()


@needs_fork
class TestZeroCopyShares:
    def test_share_before_start_visible(self):
        pool = PersistentPool(workers=2)
        try:
            pool.share_arrays("zc-a", {"data": np.arange(8.0)})
            sums = pool.map(read_shared_sum, ["zc-a"] * 4)
            assert sums == [28.0] * 4
        finally:
            pool.close()

    def test_parent_mutation_visible_without_reshare(self):
        shm = pytest.importorskip("multiprocessing.shared_memory")
        del shm
        pool = PersistentPool(workers=2)
        try:
            pool.share_arrays("zc-b", {"data": np.zeros(6)})
            pool.map(square, range(4))  # start the pool
            view = shared_arrays("zc-b")
            view["data"][:] = 7.0
            sums = pool.map(read_shared_sum, ["zc-b"] * 4)
            assert sums == [42.0] * 4
        finally:
            pool.close()

    def test_share_after_start(self):
        shm = pytest.importorskip("multiprocessing.shared_memory")
        del shm
        pool = PersistentPool(workers=2)
        try:
            pool.map(square, range(4))
            assert pool.share_arrays("zc-c", {"data": np.full(3, 2.0)})
            assert pool.map(read_shared_sum, ["zc-c"] * 2) == [6.0, 6.0]
        finally:
            pool.close()

    def test_unknown_key_returns_none(self):
        assert shared_arrays("never-shared") is None

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_replaced_blocks_are_unmapped(self):
        """A re-share under one key leaves each worker one mapping; a
        block still pinned by a held view is unmapped once it is let go."""
        pool = PersistentPool(workers=2)
        try:
            pool.share_arrays("zc-d", {"data": np.zeros(4)})
            pool.map(square, range(2))  # start the pool
            assert pool.map(own_psm_mappings, range(2)) == [1, 1]
            for value in range(10):
                pool.share_arrays("zc-d", {"data": np.full(4, value)})
            assert pool.map(own_psm_mappings, range(2)) == [1, 1]
            assert pool.map(read_shared_sum, ["zc-d"] * 2) == [36.0] * 2

            pool.map(hold_view, ["zc-d"] * 2)
            pool.share_arrays("zc-d", {"data": np.ones(4)})
            assert pool.map(own_psm_mappings, range(2)) == [2, 2]
            pool.map(release_views, range(2))
            assert pool.map(own_psm_mappings, range(2)) == [1, 1]
            assert len(pool._shared_blocks) == 1
        finally:
            pool.close()

    def test_share_on_closed_pool_rejected(self):
        pool = PersistentPool(workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.share_arrays("zc-e", {"data": np.zeros(2)})


@needs_fork
class TestLifecycle:
    def test_close_is_idempotent_and_reaps_children(self):
        pool = PersistentPool(workers=2)
        pool.map(square, range(8))
        resident = set(pool.pids())
        pool.close()
        pool.close()
        assert pool.closed
        live = {proc.pid for proc in multiprocessing.active_children()}
        assert not (resident & live)

    def test_active_pools_tracks_open_pools(self):
        pool = PersistentPool(workers=2)
        try:
            pool.map(square, range(4))
            assert pool in PersistentPool.active_pools()
        finally:
            pool.close()
        assert pool not in PersistentPool.active_pools()

    def test_construction_failure_falls_back(self, monkeypatch):
        def refuse(method):
            raise OSError("cannot fork")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        with PersistentPool(workers=4) as pool:
            assert pool.map(square, range(5)) == [x * x for x in range(5)]
            assert not pool.started

    def test_map_after_close_rejected(self):
        pool = PersistentPool(workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(square, range(4))
