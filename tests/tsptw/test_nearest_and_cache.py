"""Tests for the Nearest Neighbour solver and the memoising wrapper.

The memo is per instance: ``CachedPlanner.bind_instance`` answers with an
instance's memo.  :func:`_memo` binds the workers under test to a minimal
instance of their own.
"""

import gc
import pickle
from types import SimpleNamespace

import pytest

from repro.core import Location, SensingTask, TravelTask, Worker
from repro.datasets import InstanceOptions, generate_instances
from repro.tsptw import (
    CachedPlanner,
    InsertionSolver,
    NearestNeighborSolver,
    nearest_neighbor_order,
)

from .conftest import SPEED


def _memo(cached, *workers, tasks=()):
    """``cached``'s memo for an instance holding ``workers`` and
    ``tasks``."""
    return cached.bind_instance(
        SimpleNamespace(workers=workers, sensing_tasks=tuple(tasks)))


def _assert_same(mine, theirs):
    """Same verdict, position, travel time and route order."""
    assert mine.feasible == theirs.feasible
    assert mine.route_travel_time == theirs.route_travel_time
    assert getattr(mine, "pos", None) == getattr(theirs, "pos", None)
    assert (mine.route is None) == (theirs.route is None)
    if theirs.route is not None:
        assert mine.route.tasks == theirs.route.tasks


class TestNearestNeighborOrder:
    def test_orders_by_proximity(self):
        worker = Worker(1, Location(0, 0), Location(0, 0), 0.0, 240.0, ())
        tasks = [TravelTask(i, Location(x, 0), 0.0)
                 for i, x in [(1, 900), (2, 300), (3, 600)]]
        ordered = nearest_neighbor_order(worker, tasks)
        assert [t.task_id for t in ordered] == [2, 3, 1]

    def test_empty(self):
        worker = Worker(1, Location(0, 0), Location(0, 0), 0.0, 240.0, ())
        assert nearest_neighbor_order(worker, []) == []

    def test_does_not_mutate_input(self):
        worker = Worker(1, Location(0, 0), Location(0, 0), 0.0, 240.0, ())
        tasks = [TravelTask(1, Location(100, 0), 0.0)]
        nearest_neighbor_order(worker, tasks)
        assert len(tasks) == 1


class TestNearestNeighborSolver:
    def test_includes_all_tasks(self, simple_worker):
        solver = NearestNeighborSolver(speed=SPEED)
        sensing = SensingTask(1, Location(100, 100), 0.0, 240.0, 5.0)
        result = solver.plan(simple_worker, [sensing])
        assert len(result.route.tasks) == 3

    def test_may_be_infeasible(self):
        # NN ignores windows; a window-first layout defeats it.
        worker = Worker(1, Location(0, 0), Location(0, 0), 0.0, 240.0, ())
        near_late = SensingTask(1, Location(100, 0), 100.0, 110.0, 5.0)
        far_early = SensingTask(2, Location(600, 0), 0.0, 30.0, 5.0)
        result = NearestNeighborSolver(speed=SPEED).plan(
            worker, [near_late, far_early])
        assert not result.feasible


class TestCachedPlanner:
    @pytest.fixture
    def cached(self):
        return CachedPlanner(InsertionSolver(speed=SPEED))

    def test_hit_on_repeat(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        sensing = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        first = memo.plan(simple_worker, [sensing])
        second = memo.plan(simple_worker, [sensing])
        assert second is first
        assert cached.hits == 1
        assert cached.misses == 1

    def test_key_order_insensitive(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        a = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        b = SensingTask(2, Location(200, 0), 0.0, 240.0, 5.0)
        memo.plan(simple_worker, [a, b])
        memo.plan(simple_worker, [b, a])
        assert cached.hits == 1

    def test_different_workers_not_conflated(self, cached, simple_worker):
        other = Worker(2, Location(0, 0), Location(600, 0), 0.0, 240.0, ())
        memo = _memo(cached, simple_worker, other)
        memo.plan(simple_worker, [])
        memo.plan(other, [])
        assert cached.misses == 2

    def test_base_route_goes_through_cache(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        memo.base_route(simple_worker)
        memo.base_route(simple_worker)
        assert cached.hits == 1

    def test_clear(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        memo.plan(simple_worker, [])
        cached.clear()
        assert len(memo) == 0
        assert cached.stats().cache_size == 0
        assert cached.hits == 0

    def test_speed_mirrors_inner(self):
        inner = InsertionSolver(speed=42.0)
        assert CachedPlanner(inner).speed == 42.0

    def test_stats_snapshot(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        sensing = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        memo.plan(simple_worker, [sensing])
        memo.plan(simple_worker, [sensing])
        stats = cached.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.planner_calls == 1
        assert stats.backend_calls == 1
        assert stats.cache_size == 1
        assert stats.cache_hit_rate == 0.5

    def test_clear_resets_backend_calls(self, cached, simple_worker):
        _memo(cached, simple_worker).plan(simple_worker, [])
        cached.clear()
        assert cached.backend_calls == 0
        assert cached.stats().backend_calls == 0


class TestMemoLifetime:
    """A memo belongs to its instance: one per instance, dropped with it."""

    def test_one_memo_per_instance_and_planner(self, simple_worker):
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        owner = SimpleNamespace(workers=(simple_worker,), sensing_tasks=())
        memo = cached.bind_instance(owner)
        assert cached.bind_instance(owner) is memo
        other = CachedPlanner(InsertionSolver(speed=SPEED))
        assert other.bind_instance(owner) is not memo

    def test_memo_dies_with_its_instance(self, simple_worker):
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        memo = _memo(cached, simple_worker)
        memo.plan(simple_worker, [])
        assert cached.stats().cache_size == 1
        del memo
        gc.collect()
        assert cached.stats().cache_size == 0
        # The counters are the planner's and outlive the memo.
        assert cached.misses == 1

    def test_pickled_planner_keeps_counts_not_memos(self, simple_worker):
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        memo = _memo(cached, simple_worker)
        memo.plan(simple_worker, [])
        copy = pickle.loads(pickle.dumps(cached))
        assert (copy.misses, copy.stats().cache_size) == (1, 0)
        _memo(copy, simple_worker).plan(simple_worker, [])
        assert (copy.misses, copy.stats().cache_size) == (2, 1)
        assert cached.stats().cache_size == 1


class TestInsertionCacheKey:
    """``plan_with_insertion`` memoisation keys on the exact base order.

    A permuted base is a different route with its own insertion answers,
    and travel-task and sensing-task ids may coincide, so the key is the
    ``(is sensing, task id)`` sequence in route order.
    """

    @pytest.fixture
    def cached(self):
        return CachedPlanner(InsertionSolver(speed=SPEED))

    def _tasks(self):
        a = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        b = SensingTask(2, Location(200, 0), 0.0, 240.0, 5.0)
        new = SensingTask(3, Location(400, 0), 0.0, 240.0, 5.0)
        return a, b, new

    def test_permuted_base_order_misses(self, cached, simple_worker):
        a, b, new = self._tasks()
        memo = _memo(cached, simple_worker)
        direct = InsertionSolver(speed=SPEED)
        memo.plan_with_insertion(simple_worker, [a, b], new)
        second = memo.plan_with_insertion(simple_worker, [b, a], new)
        assert cached.hits == 0
        assert cached.misses == 2
        assert cached.backend_calls == 2
        _assert_same(second,
                     direct.plan_with_insertion(simple_worker, [b, a], new))

    def test_permuted_orders_keep_their_own_answers(self):
        """Orders A = base+a+b and B = base+b+a hold the same task set but
        give task 1 different insertion costs; a set-keyed memo answered
        B's query with A's result."""
        instance = generate_instances(
            "delivery", 1, seed=1,
            options=InstanceOptions(task_density=0.15, num_workers=7))[0]
        worker = instance.workers[0]
        direct = InsertionSolver()
        cached = CachedPlanner(InsertionSolver())
        memo = cached.bind_instance(instance)
        a, b, query = (instance.sensing_task(i) for i in (0, 10, 1))

        def insert(order, task):
            return list(direct.plan_with_insertion(worker, order,
                                                   task).route.tasks)

        base = list(direct.base_route(worker).route.tasks)
        order_a = insert(insert(base, a), b)
        order_b = insert(insert(base, b), a)
        want_a = direct.plan_with_insertion(worker, order_a, query)
        want_b = direct.plan_with_insertion(worker, order_b, query)
        assert want_a.route_travel_time != want_b.route_travel_time
        _assert_same(memo.plan_with_insertion(worker, order_a, query),
                     want_a)
        _assert_same(memo.plan_with_insertion(worker, order_b, query),
                     want_b)
        swept = memo.plan_insertions_many(worker, order_b, [query])
        _assert_same(swept[0], want_b)
        assert cached.hits == 1

    def test_travel_and_sensing_ids_do_not_collide(self, cached,
                                                   simple_worker):
        memo = _memo(cached, simple_worker)
        travel_id = simple_worker.travel_tasks[0].task_id
        twin = SensingTask(travel_id, Location(300, 0), 0.0, 240.0, 5.0)
        _, _, new = self._tasks()
        memo.plan_with_insertion(simple_worker,
                                 [simple_worker.travel_tasks[0]], new)
        memo.plan_with_insertion(simple_worker, [twin], new)
        assert cached.hits == 0
        assert cached.misses == 2

    def test_different_new_task_still_misses(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        a, b, _ = self._tasks()
        other = SensingTask(4, Location(900, 0), 0.0, 240.0, 5.0)
        memo.plan_with_insertion(simple_worker, [a, b], a)
        memo.plan_with_insertion(simple_worker, [a, b], other)
        assert cached.misses == 2

    def test_different_base_set_still_misses(self, cached, simple_worker):
        memo = _memo(cached, simple_worker)
        a, b, new = self._tasks()
        memo.plan_with_insertion(simple_worker, [a], new)
        memo.plan_with_insertion(simple_worker, [a, b], new)
        assert cached.misses == 2


class BatchBackend:
    """Minimal plan_many backend (like the GPN solver); records the task
    sets each batched call receives."""

    def __init__(self):
        self.inner = NearestNeighborSolver(speed=SPEED)
        self.speed = self.inner.speed
        self.batch_calls = 0
        self.seen_batches = []

    def plan(self, worker, sensing_tasks):
        return self.inner.plan(worker, sensing_tasks)

    def base_route(self, worker):
        return self.inner.base_route(worker)

    def plan_many(self, worker, task_sets):
        self.batch_calls += 1
        self.seen_batches.append(
            [tuple(t.task_id for t in tasks) for tasks in task_sets])
        return [self.inner.plan(worker, tasks) for tasks in task_sets]


class TestBackendCallAccounting:
    """``backend_calls`` counts true backend invocations, not logical plans.

    The old ``stats()`` reported ``planner_calls = misses``, overstating
    backend work on the batched path where one ``plan_many`` call serves
    every miss in the request.
    """

    def _task_sets(self, n):
        return [[SensingTask(i, Location(100 * i, 0), 0.0, 240.0, 5.0)]
                for i in range(1, n + 1)]

    def test_batched_misses_count_one_backend_call(self, simple_worker):
        backend = BatchBackend()
        cached = CachedPlanner(backend)
        _memo(cached, simple_worker).plan_many(simple_worker,
                                               self._task_sets(5))
        stats = cached.stats()
        assert stats.cache_misses == 5
        assert stats.planner_calls == 5       # logical plans computed
        assert stats.backend_calls == 1       # one true backend invocation
        assert stats.backend_calls == backend.batch_calls

    def test_fully_cached_batch_adds_no_backend_call(self, simple_worker):
        backend = BatchBackend()
        cached = CachedPlanner(backend)
        memo = _memo(cached, simple_worker)
        sets = self._task_sets(3)
        memo.plan_many(simple_worker, sets)
        memo.plan_many(simple_worker, sets)
        assert cached.backend_calls == 1
        assert backend.batch_calls == 1

    def test_unbatched_plan_counts_one_per_miss(self, simple_worker):
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        memo = _memo(cached, simple_worker)
        for tasks in self._task_sets(3):
            memo.plan(simple_worker, tasks)
        assert cached.backend_calls == 3
        assert cached.stats().backend_calls == 3


class TestFeatureDetection:
    """A memo mirrors its backend's optional protocol.

    The old implementation set ``plan_with_insertion = None`` on the
    instance, which made ``hasattr`` return True for backends without
    insertion support and silently disabled the batched ``plan_many``
    path in the candidate table for wrapped RL backends.
    """

    def test_insertion_exposed_when_backend_has_it(self, simple_worker):
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        memo = _memo(cached, simple_worker)
        assert getattr(memo, "plan_with_insertion", None) is not None

    def test_insertion_absent_when_backend_lacks_it(self, simple_worker):
        cached = CachedPlanner(NearestNeighborSolver(speed=SPEED))
        for planner in (cached, _memo(cached, simple_worker)):
            assert not hasattr(planner, "plan_with_insertion")
            assert getattr(planner, "plan_with_insertion", None) is None

    def test_plan_many_delegated_and_memoised(self, simple_worker):
        backend = BatchBackend()
        cached = CachedPlanner(backend)
        memo = _memo(cached, simple_worker)
        assert getattr(memo, "plan_many", None) is not None
        a = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        b = SensingTask(2, Location(200, 0), 0.0, 240.0, 5.0)
        first = memo.plan_many(simple_worker, [[a], [b]])
        second = memo.plan_many(simple_worker, [[a], [b]])
        assert backend.batch_calls == 1  # second call fully cached
        assert cached.hits == 2
        assert [r is s for r, s in zip(first, second)] == [True, True]

    def test_plan_many_partial_miss(self, simple_worker):
        backend = BatchBackend()
        memo = _memo(CachedPlanner(backend), simple_worker)
        a = SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0)
        b = SensingTask(2, Location(200, 0), 0.0, 240.0, 5.0)
        memo.plan_many(simple_worker, [[a]])
        memo.plan_many(simple_worker, [[a], [b]])
        # Only the uncached set reaches the backend on the second call.
        assert backend.seen_batches == [[(1,)], [(2,)]]

    def test_wrapped_batch_backend_uses_batched_table_path(
            self, simple_worker):
        from repro.core import IncentiveModel
        from repro.smore import CandidateTable

        backend = BatchBackend()
        tasks = [SensingTask(1, Location(600, 0), 0.0, 240.0, 5.0),
                 SensingTask(2, Location(200, 0), 0.0, 240.0, 5.0)]
        memo = _memo(CachedPlanner(backend), simple_worker, tasks=tasks)
        table = CandidateTable(memo, IncentiveModel(mu=1.0),
                               [simple_worker], tasks)
        table.initialize([simple_worker], tasks, budget_rest=1000.0)
        # The batched path fired exactly once for the worker's task sweep;
        # the old None-attribute shadowing forced per-task plan() calls.
        assert backend.batch_calls == 1
