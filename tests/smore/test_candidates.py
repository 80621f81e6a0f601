"""Tests for the candidate assignment table (Algorithm 1 step 1 / lines 15-23)."""

import numpy as np
import pytest

from repro.core import IncentiveModel
from repro.datasets.dynamic import ArrivalSchedule, TaskArrival
from repro.smore import CandidateTable, DynamicSelectionEnv
from repro.tsptw import (CachedPlanner, InsertionSolver,
                         NearestNeighborSolver, bind)

from .planes import (live_worker_ids, num_pairs, pair_route, pair_values,
                     row_task_ids)


def _table(planner, instance, incentives=None):
    return CandidateTable(planner,
                          incentives or IncentiveModel(mu=instance.mu),
                          instance.workers, instance.sensing_tasks)


def _first_pair(table):
    worker_id = live_worker_ids(table)[0]
    return worker_id, row_task_ids(table, worker_id)[0]


@pytest.fixture
def table(small_instance, planner):
    table = _table(planner, small_instance)
    table.initialize(small_instance.workers, small_instance.sensing_tasks,
                     small_instance.budget)
    return table


class TestInitialization:
    def test_feasible_pairs_found(self, table, small_instance):
        assert num_pairs(table) > 0
        assert not table.empty

    def test_entries_have_feasible_routes(self, table, small_instance):
        for worker in small_instance.workers:
            for task_id in row_task_ids(table, worker.worker_id):
                route = pair_route(table, worker.worker_id, task_id)
                timing = route.simulate()
                assert timing.feasible
                assert route.covers_all_travel_tasks()
                assert task_id in {t.task_id for t in route.sensing_tasks}

    def test_delta_incentive_within_budget(self, table, small_instance):
        # The paper's constraint is <=: exactly exhausting the budget is
        # feasible.
        live = table.mask
        assert (table.delta_incentive[live] <= small_instance.budget).all()

    def test_delta_incentive_matches_route(self, table, small_instance):
        model = IncentiveModel(mu=small_instance.mu)
        for worker in small_instance.workers:
            model.set_base_rtt(worker, table.incentives.base_rtt(worker))
            for task_id in row_task_ids(table, worker.worker_id):
                delta, rtt = pair_values(table, worker.worker_id, task_id)
                assert delta == pytest.approx(model.incentive(worker, rtt))

    def test_base_rtt_seeded(self, table, small_instance):
        for worker in small_instance.workers:
            assert table.incentives.base_rtt(worker) > 0

    def test_zero_budget_no_candidates(self, small_instance, planner):
        empty = _table(planner, small_instance)
        empty.initialize(small_instance.workers, small_instance.sensing_tasks,
                         0.0)
        # Only zero-cost insertions fit a zero budget; with off-route
        # tasks there are none.
        assert num_pairs(empty) == 0

    def test_contains(self, table, small_instance):
        worker_id = small_instance.workers[0].worker_id
        candidates = row_task_ids(table, worker_id)
        if candidates:
            assert (worker_id, candidates[0]) in table
        assert (999, 999) not in table


class TestUpdates:
    def test_remove_task_everywhere(self, table, small_instance):
        _, task_id = _first_pair(table)
        table.remove_task(task_id)
        for worker in small_instance.workers:
            assert task_id not in row_task_ids(table, worker.worker_id)

    def test_prune_over_budget(self, table):
        before = num_pairs(table)
        table.prune_over_budget(0.0)
        assert num_pairs(table) == 0 or num_pairs(table) < before

    def test_recompute_worker_respects_assignment(self, table, small_instance):
        worker = small_instance.workers[0]
        task_id = row_task_ids(table, worker.worker_id)[0]
        assigned_task = small_instance.sensing_task(task_id)
        delta, _ = pair_values(table, worker.worker_id, task_id)
        route = pair_route(table, worker.worker_id, task_id)
        remaining = [s for s in small_instance.sensing_tasks
                     if s.task_id != task_id]
        table.recompute_worker(worker, [assigned_task], remaining, delta,
                               small_instance.budget - delta,
                               current_route_tasks=route.tasks)
        for new_id in row_task_ids(table, worker.worker_id):
            new_route = pair_route(table, worker.worker_id, new_id)
            sensing_ids = {t.task_id for t in new_route.sensing_tasks}
            assert task_id in sensing_ids  # assigned task still on route
            assert new_id in sensing_ids

    def test_workers_with_candidates(self, table, small_instance):
        ids = live_worker_ids(table)
        assert set(ids).issubset({w.worker_id for w in small_instance.workers})

    def test_planner_call_counting(self, table):
        assert table.planner_calls > 0


class TestBudgetBoundary:
    """Regression tests for the <= budget constraint (Section III-B).

    Entries whose marginal cost exactly exhausts the remaining budget are
    feasible; the pre-fix strict-< comparison wrongly excluded them.
    """

    def test_prune_keeps_exact_budget_entry(self, table):
        worker_id, task_id = _first_pair(table)
        delta, _ = pair_values(table, worker_id, task_id)
        table.prune_over_budget(delta)
        assert (worker_id, task_id) in table

    def test_prune_drops_over_budget_entry(self, table):
        worker_id, task_id = _first_pair(table)
        delta, _ = pair_values(table, worker_id, task_id)
        table.prune_over_budget(delta - 1e-9)
        assert (worker_id, task_id) not in table

    def test_initialize_keeps_exact_budget_assignment(self, small_instance,
                                                      planner):
        from repro.core import IncentiveModel

        # First pass at unlimited budget to learn each entry's true cost.
        probe = _table(planner, small_instance)
        probe.initialize(small_instance.workers,
                         small_instance.sensing_tasks, float("inf"))
        worker_id, task_id = _first_pair(probe)
        delta, _ = pair_values(probe, worker_id, task_id)
        assert delta > 0

        # Re-initialise with a budget exactly equal to that cost: the pair
        # must survive.
        exact = _table(planner, small_instance)
        exact.initialize(small_instance.workers,
                         small_instance.sensing_tasks, delta)
        assert (worker_id, task_id) in exact


class TestCopy:
    def test_copy_is_structurally_identical(self, table, small_instance):
        clone = table.copy()
        assert num_pairs(clone) == num_pairs(table)
        assert clone.planner_calls == table.planner_calls
        assert clone.order == table.order
        for name in ("mask", "delta_incentive", "rtt", "pos"):
            original, copied = getattr(table, name), getattr(clone, name)
            assert copied is not original
            assert np.array_equal(copied, original)
        for worker in small_instance.workers:
            for task_id in row_task_ids(table, worker.worker_id):
                # Routes are rebuilt from the shared row source, not
                # re-planned.
                assert pair_route(clone, worker.worker_id, task_id) \
                    == pair_route(table, worker.worker_id, task_id)

    def test_copy_isolated_from_mutation(self, table):
        clone = table.copy()
        _, task_id = _first_pair(table)
        clone.remove_task(task_id)
        assert any(task_id in row_task_ids(table, w)
                   for w in live_worker_ids(table))


class TestBatchedPlannerPath:
    """RL backends expose plan_many; the table must use it transparently."""

    @pytest.fixture
    def gpn_table(self, small_instance):
        from repro.smore import CandidateTable
        from repro.tsptw import GPNSolver, make_default_gpn

        region = small_instance.coverage.grid.region
        model = make_default_gpn(region, 240.0, d_model=16, seed=0)
        planner = GPNSolver(model, repair=True)
        table = _table(planner, small_instance)
        table.initialize(small_instance.workers,
                         small_instance.sensing_tasks,
                         small_instance.budget)
        return table

    def test_batched_init_counts_all_pairs(self, gpn_table, small_instance):
        expected = small_instance.num_workers * small_instance.num_sensing_tasks
        assert gpn_table.planner_calls == expected

    def test_batched_entries_feasible(self, gpn_table, small_instance):
        for worker in small_instance.workers:
            for task_id in row_task_ids(gpn_table, worker.worker_id):
                route = pair_route(gpn_table, worker.worker_id, task_id)
                assert route.simulate().feasible
                assert route.covers_all_travel_tasks()

    def test_batched_matches_unbatched_feasibility_semantics(
            self, gpn_table, small_instance):
        # Every stored entry respects the budget bound of Algorithm 1.
        live = gpn_table.mask
        assert (gpn_table.delta_incentive[live] < small_instance.budget).all()


class TestIncrementalIndex:
    """The queries derived from the mask plane (live rows, emptiness) must
    always agree with a brute-force scan of it."""

    @staticmethod
    def _check(table):
        ref_rows = [r for r in table.order if table.mask[r].any()]
        assert table.live_rows().tolist() == ref_rows
        outside = [r for r in range(len(table.workers))
                   if r not in table.order]
        assert not table.mask[outside].any()
        assert table.empty == (not ref_rows)

    def test_initialize_consistent(self, table):
        assert not table.empty
        self._check(table)

    def test_remove_task_transitions_to_empty(self, table, small_instance):
        for task in small_instance.sensing_tasks:
            table.remove_task(task.task_id)
            self._check(table)
        assert table.empty
        assert live_worker_ids(table) == []
        assert not table.mask.any()

    def test_prune_transitions(self, table):
        table.prune_over_budget(0.0)
        self._check(table)

    def test_recompute_worker_reindexes(self, table, small_instance):
        worker = small_instance.workers[0]
        task_id = row_task_ids(table, worker.worker_id)[0]
        delta, _ = pair_values(table, worker.worker_id, task_id)
        route = pair_route(table, worker.worker_id, task_id)
        assigned = small_instance.sensing_task(task_id)
        remaining = [s for s in small_instance.sensing_tasks
                     if s.task_id != task_id]
        table.remove_task(task_id)
        self._check(table)
        table.recompute_worker(worker, [assigned], remaining, delta,
                               small_instance.budget - delta,
                               current_route_tasks=route.tasks)
        self._check(table)

    def test_workers_order_matches_table_order(self, table):
        # Tie-breaking in _best_candidate_pair observes table order, so
        # live rows must come in it: the order the table was built over.
        assert table.order == list(range(len(table.workers)))
        order = [w.worker_id for w in table.workers
                 if row_task_ids(table, w.worker_id)]
        assert live_worker_ids(table) == order

    def test_copy_isolates_index(self, table):
        clone = table.copy()
        _, task_id = _first_pair(table)
        table.remove_task(task_id)
        assert clone.mask[:, clone.col_of[task_id]].any()
        self._check(clone)
        self._check(table)


class InsertionOnlyPlanner:
    """Capabilities: ``plan_with_insertion`` (and ``base_route``) only."""

    def __init__(self):
        self._inner = InsertionSolver()
        self.speed = self._inner.speed

    def base_route(self, worker):
        return self._inner.base_route(worker)

    def plan_with_insertion(self, worker, base_tasks, new_task,
                            min_position=0):
        return self._inner.plan_with_insertion(worker, base_tasks, new_task,
                                               min_position=min_position)


class PlanManyOnlyPlanner:
    """Capabilities: ``plan_many`` (and ``base_route``), like RL backends."""

    def __init__(self):
        self._inner = InsertionSolver()
        self.speed = self._inner.speed

    def base_route(self, worker):
        return self._inner.base_route(worker)

    def plan_many(self, worker, task_sets):
        return [self._inner.plan(worker, tasks) for tasks in task_sets]


def _insert(planner, worker, route_tasks, assigned, task):
    return planner.plan_with_insertion(worker, route_tasks, task)


def _plan_many(planner, worker, route_tasks, assigned, task):
    return planner.plan_many(worker, [list(assigned) + [task]])[0]


def _plan(planner, worker, route_tasks, assigned, task):
    return planner.plan(worker, list(assigned) + [task])


PLANNERS = [
    pytest.param(InsertionSolver, _insert, id="insertion"),
    pytest.param(lambda: CachedPlanner(InsertionSolver()), _insert,
                 id="cached"),
    pytest.param(InsertionOnlyPlanner, _insert, id="insertion-only"),
    pytest.param(PlanManyOnlyPlanner, _plan_many, id="plan-many-only"),
    pytest.param(NearestNeighborSolver, _plan, id="plan-only"),
]


def _signature(table, worker_id):
    """A row's pairs in ascending task id, with their values and routes."""
    return [(task_id, *pair_values(table, worker_id, task_id),
             tuple(t.task_id for t in pair_route(
                 table, worker_id, task_id).tasks))
            for task_id in row_task_ids(table, worker_id)]


def _direct_row(direct, planner, incentives, worker, route_tasks, assigned,
                tasks, current_incentive, budget_rest):
    """The row per-task calls of ``direct`` give, by ascending task id."""
    row = []
    for task in tasks:
        result = direct(planner, worker, route_tasks, assigned, task)
        if not result.feasible:
            continue
        delta = incentives.incentive(worker, result.route_travel_time) \
            - current_incentive
        if delta <= budget_rest:
            row.append((task.task_id, delta, result.route_travel_time,
                        tuple(t.task_id for t in result.route.tasks)))
    return sorted(row)


class TestCapabilityMatrix:
    """Every planner path of the one dispatch builds the rows its own
    per-task calls give, and counts one logical plan per task swept."""

    @pytest.mark.parametrize("make, direct", PLANNERS)
    def test_rows_match_direct_calls(self, small_instance, make, direct):
        planner = bind(make(), small_instance)
        incentives = IncentiveModel(mu=small_instance.mu)
        table = _table(planner, small_instance, incentives)
        tasks = list(small_instance.sensing_tasks)
        budget = small_instance.budget
        table.initialize(small_instance.workers, tasks, budget)

        swept = 0
        for worker in small_instance.workers:
            base = planner.base_route(worker)
            assert base.feasible
            swept += len(tasks)
            assert _signature(table, worker.worker_id) \
                == _direct_row(direct, planner, incentives, worker,
                               base.route.tasks, (), tasks, 0.0, budget)
        assert table.planner_calls == swept

        worker_id, task_id = _first_pair(table)
        worker = small_instance.worker(worker_id)
        delta, _ = pair_values(table, worker_id, task_id)
        route = pair_route(table, worker_id, task_id)
        assigned = [small_instance.sensing_task(task_id)]
        available = [t for t in tasks if t.task_id != task_id]
        rest = budget - delta
        table.recompute_worker(worker, assigned, available, delta, rest,
                               current_route_tasks=route.tasks)
        swept += len(available)
        expected = _direct_row(direct, planner, incentives, worker,
                               route.tasks, assigned, available, delta, rest)
        assert expected
        assert _signature(table, worker_id) == expected
        assert table.planner_calls == swept

    @pytest.mark.parametrize("make", (PlanManyOnlyPlanner,
                                      NearestNeighborSolver),
                             ids=("plan-many-only", "plan-only"))
    def test_replan_planners_reject_anchored_and_repair_sweeps(
            self, small_instance, make):
        table = _table(make(), small_instance)
        tasks = list(small_instance.sensing_tasks)
        table.initialize(small_instance.workers, tasks, small_instance.budget)
        calls = table.planner_calls
        worker = small_instance.workers[0]
        route_tasks = table.planner.base_route(worker).route.tasks
        with pytest.raises(TypeError):
            table.recompute_worker(worker, [], tasks, 0.0,
                                   small_instance.budget,
                                   current_route_tasks=route_tasks,
                                   min_position=1)
        assert table.planner_calls == calls

        # A streaming episode reaches the same refusal at its first
        # arrival epoch: the epoch sweep passes no assigned tasks.
        late = tasks[-1]
        schedule = ArrivalSchedule(horizon=240.0, arrivals=tuple(
            TaskArrival(t.task_id, 0.0, 240.0) for t in tasks[:-1])
            + (TaskArrival(late.task_id, 1.0, 240.0),))
        env = DynamicSelectionEnv(small_instance, make(), schedule)
        state = env.reset()
        while not state.candidates.empty:
            row, col = np.argwhere(state.candidates.mask)[0]
            env.step_state(state, state.candidates.workers[row].worker_id,
                           int(state.candidates.task_ids[col]))
        calls = state.candidates.planner_calls
        with pytest.raises(TypeError):
            env.advance(state)
        assert state.candidates.planner_calls == calls

    def test_anchored_recompute_on_insertion_only_planner(self,
                                                          small_instance):
        planner = InsertionOnlyPlanner()
        table = _table(planner, small_instance)
        tasks = list(small_instance.sensing_tasks)
        budget = small_instance.budget
        table.initialize(small_instance.workers, tasks, budget)
        worker = small_instance.workers[0]
        route_tasks = planner.base_route(worker).route.tasks
        table.recompute_worker(worker, [], tasks, 0.0, budget,
                               current_route_tasks=route_tasks,
                               min_position=1)
        row = table.row_of[worker.worker_id]
        assert table.mask[row].any()
        for task in tasks:
            result = planner.plan_with_insertion(worker, route_tasks, task,
                                                 min_position=1)
            col = table.col_of[task.task_id]
            if table.mask[row, col]:
                assert table.pos[row, col] == result.pos >= 1
                assert table.rtt[row, col] == result.route_travel_time
