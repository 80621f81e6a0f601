"""PackedInstance: interning, matrix/`math.hypot` parity, caching, bins."""

import math

import numpy as np
import pytest

from repro.core import (
    CoverageModel,
    Grid,
    Location,
    PackedInstance,
    Region,
    SensingTask,
    TravelTask,
    Worker,
    euclidean,
    packed_instance,
)
from repro.datasets.instances import InstanceOptions, generate_instances


def _worker(wid=0):
    return Worker(wid, Location(0, 0), Location(1200, 0), 0.0, 240.0,
                  (TravelTask(10 + wid, Location(400, 0), 10.0),
                   TravelTask(20 + wid, Location(800, 0), 10.0)))


def _sensing(task_id, x, y, tw=(0.0, 60.0), service=5.0):
    return SensingTask(task_id, Location(x, y), tw[0], tw[1], service)


class TestInterning:
    def test_shared_locations_deduplicate(self):
        # Three sensing tasks at one grid-cell center, plus a worker whose
        # travel task reuses that same point: one interned location.
        shared = (500.0, 700.0)
        tasks = [_sensing(100 + k, *shared, tw=(60.0 * k, 60.0 * k + 60.0))
                 for k in range(3)]
        worker = Worker(0, Location(0, 0), Location(1200, 0), 0.0, 240.0,
                        (TravelTask(10, Location(*shared), 10.0),))
        packed = PackedInstance([worker], tasks)
        # origin, destination, and the single shared point.
        assert packed.num_locations == 3
        assert len({int(i) for i in packed.sensing_loc}) == 1

    def test_sensing_arrays_mirror_tasks(self):
        tasks = [_sensing(100, 10, 20, tw=(30.0, 90.0), service=7.0),
                 _sensing(101, 30, 40, tw=(0.0, 60.0), service=5.0)]
        packed = PackedInstance([_worker()], tasks)
        for k, task in enumerate(tasks):
            assert packed.tw_start[k] == task.tw_start
            assert packed.tw_end[k] == task.tw_end
            assert packed.service[k] == task.service_time
            assert packed.latest_start[k] == task.latest_start
            row = packed.sensing_row(task.task_id)
            assert row == k


class TestDistances:
    def test_rows_match_math_hypot_exactly(self, rng=None):
        rng = np.random.default_rng(7)
        tasks = [_sensing(100 + k, float(rng.uniform(0, 2000)),
                          float(rng.uniform(0, 2400))) for k in range(12)]
        packed = PackedInstance([_worker()], tasks)
        n = packed.num_locations
        for i in range(n):
            row = packed.row(i)
            assert row[i] == 0.0
            for j in range(n):
                expected = math.hypot(packed.xs[i] - packed.xs[j],
                                      packed.ys[i] - packed.ys[j])
                # Bit-identical, not approximately equal: the matrix must
                # reproduce the object path's math.hypot to the last ulp.
                assert row[j] == expected
                assert packed.distance(i, j) == expected

    def test_distance_between_known_and_unknown(self):
        tasks = [_sensing(100, 250, 350)]
        packed = PackedInstance([_worker()], tasks)
        a, b = Location(250, 350), Location(0, 0)
        d = packed.distance_between(a, b)
        assert type(d) is float
        assert d == euclidean(a, b)
        # Unknown location: per-pair hypot fallback, same value contract.
        stranger = Location(-123.25, 987.5)
        d2 = packed.distance_between(stranger, a)
        assert type(d2) is float
        assert d2 == euclidean(stranger, a)

    def test_rows_are_lazy_and_cached(self):
        tasks = [_sensing(100 + k, 10.0 * k, 5.0 * k) for k in range(5)]
        packed = PackedInstance([_worker()], tasks)
        assert packed.num_cached_rows == 0
        first = packed.row(0)
        assert packed.num_cached_rows == 1
        assert packed.row(0) is first
        assert packed.nbytes() >= first.nbytes


class TestInstanceCache:
    def test_packed_instance_cached_per_instance(self):
        instance = generate_instances(
            "delivery", 1, seed=3,
            options=InstanceOptions(task_density=0.05))[0]
        packed = packed_instance(instance)
        assert packed_instance(instance) is packed
        assert len(packed.sensing_ids) == len(instance.sensing_tasks)
        for worker in instance.workers:
            origin, travel, dest = packed.worker_locs[worker.worker_id]
            assert packed.xs[origin] == worker.origin.x
            assert packed.ys[dest] == worker.destination.y
            assert len(travel) == len(worker.travel_tasks)


class TestPrecomputeBins:
    def test_matches_lazy_binning(self):
        grid = Grid(Region(2000, 2400), 10, 12)
        eager = CoverageModel(grid, time_span=240.0, slot_minutes=30.0)
        lazy = CoverageModel(grid, time_span=240.0, slot_minutes=30.0)
        rng = np.random.default_rng(11)
        tasks = []
        for k in range(80):
            slot = int(rng.integers(0, 8))
            tasks.append(_sensing(
                100 + k, float(rng.uniform(-10, 2010)),
                float(rng.uniform(-10, 2410)),
                tw=(slot * 30.0, slot * 30.0 + 30.0)))
        # Edge coordinates exercise both clamp directions.
        tasks.append(_sensing(500, 0.0, 0.0, tw=(0.0, 30.0)))
        tasks.append(_sensing(501, 2000.0, 2400.0, tw=(230.0, 240.0)))

        eager.precompute_bins(tasks)
        state = lazy.new_state()
        for task in tasks:
            assert eager._bin_cache[task] == state._bins(task)

    def test_skips_already_cached(self):
        grid = Grid(Region(100, 100), 4, 4)
        model = CoverageModel(grid, time_span=240.0, slot_minutes=60.0)
        task = _sensing(100, 50, 50)
        model.precompute_bins([task])
        sentinel = model._bin_cache[task]
        model.precompute_bins([task])
        assert model._bin_cache[task] is sentinel


class TestRowCacheBudget:
    """S2: the lazy travel-matrix row cache is LRU-bounded, bit-identical."""

    def _tasks(self, count=12):
        return [_sensing(100 + k, 10.0 * k, 5.0 * k, tw=(0.0, 120.0))
                for k in range(count)]

    def test_budget_derived_from_byte_limit(self):
        tasks = self._tasks()
        packed = PackedInstance([_worker()], tasks)
        row_bytes = 8 * packed.num_locations
        bounded = PackedInstance([_worker()], tasks,
                                 row_cache_bytes=3 * row_bytes)
        assert bounded.row_budget == 3
        assert packed.row_budget > bounded.row_budget

    def test_eviction_counts_and_cache_stays_bounded(self):
        tasks = self._tasks()
        packed = PackedInstance([_worker()], tasks,
                                 row_cache_bytes=3 * 8 * 16)
        for i in range(packed.num_locations):
            packed.row(i)
        assert packed.num_cached_rows <= packed.row_budget
        assert packed.row_builds == packed.num_locations
        assert packed.row_evictions == \
            packed.num_locations - packed.num_cached_rows
        assert packed.row_evictions > 0

    def test_hits_do_not_rebuild_or_evict(self):
        packed = PackedInstance([_worker()], self._tasks(),
                                 row_cache_bytes=3 * 8 * 16)
        packed.row(0)
        builds = packed.row_builds
        packed.row(0)
        packed.row(0)
        assert packed.row_builds == builds
        assert packed.row_evictions == 0

    def test_lru_keeps_recently_used_rows(self):
        packed = PackedInstance([_worker()], self._tasks(),
                                 row_cache_bytes=2 * 8 * 16)
        packed.row(0)
        packed.row(1)
        packed.row(0)          # refresh 0: 1 is now the LRU victim
        packed.row(2)          # evicts 1, not 0
        builds = packed.row_builds
        packed.row(0)
        assert packed.row_builds == builds      # 0 survived
        packed.row(1)
        assert packed.row_builds == builds + 1  # 1 was evicted

    def test_rebuilt_rows_bit_identical(self):
        tasks = self._tasks()
        unbounded = PackedInstance([_worker()], tasks)
        tiny = PackedInstance([_worker()], tasks, row_cache_bytes=1)
        assert tiny.row_budget == 1
        for i in range(tiny.num_locations):
            expected = unbounded.row(i)
            np.testing.assert_array_equal(tiny.row(i), expected)
        # Second sweep re-materialises every row after eviction churn.
        for i in range(tiny.num_locations):
            np.testing.assert_array_equal(tiny.row(i), unbounded.row(i))


class TestExportImport:
    """Zero-copy currency of the sharding pipeline."""

    def _packed(self):
        tasks = [_sensing(100 + k, 50.0 * k, 30.0 * k) for k in range(6)]
        return PackedInstance([_worker(0), _worker(1)], tasks), tasks

    def test_round_trip_is_bit_identical(self):
        packed, _ = self._packed()
        rebuilt = PackedInstance.from_arrays(
            [_worker(0), _worker(1)], packed.export_arrays())
        assert rebuilt.num_locations == packed.num_locations
        assert rebuilt.worker_locs == packed.worker_locs
        for i in range(packed.num_locations):
            np.testing.assert_array_equal(rebuilt.row(i), packed.row(i))

    def test_rows_bitwise_equal_fresh_hypot_loop(self):
        """``row(i)`` — on a built view and on a ``from_arrays`` view —
        equals ``math.hypot`` over the coordinate arrays, bit for bit."""
        rng = np.random.default_rng(11)
        tasks = [_sensing(100 + k, float(rng.uniform(0, 2000)),
                          float(rng.uniform(0, 2400))) for k in range(40)]
        packed = PackedInstance([_worker(0), _worker(1)], tasks)
        rebuilt = PackedInstance.from_arrays(
            [_worker(0), _worker(1)], packed.export_arrays())
        for view in (packed, rebuilt):
            xs, ys = view.xs, view.ys
            for i in range(view.num_locations):
                fresh = np.array([math.hypot(xs[j] - xs[i], ys[j] - ys[i])
                                  for j in range(view.num_locations)])
                assert view.row(i).tobytes() == fresh.tobytes()

    def test_worker_subset_allowed(self):
        packed, _ = self._packed()
        rebuilt = PackedInstance.from_arrays([_worker(1)],
                                             packed.export_arrays())
        assert set(rebuilt.worker_locs) == {1}

    def test_unknown_worker_location_rejected(self):
        packed, _ = self._packed()
        stranger = Worker(9, Location(-5.0, -5.0), Location(1200, 0),
                          0.0, 240.0, ())
        with pytest.raises(ValueError, match="missing"):
            PackedInstance.from_arrays([stranger], packed.export_arrays())

    def test_export_shares_storage(self):
        packed, _ = self._packed()
        arrays = packed.export_arrays()
        assert arrays["xs"] is packed.xs
        assert set(arrays) == set(
            __import__("repro.core.packed", fromlist=["x"])
            .PACKED_ARRAY_NAMES)
