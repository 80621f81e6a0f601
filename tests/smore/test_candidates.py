"""Tests for the candidate assignment table (Algorithm 1 step 1 / lines 15-23)."""

import pytest

from repro.core import IncentiveModel
from repro.smore import CandidateTable
from repro.tsptw import CachedPlanner, InsertionSolver, NearestNeighborSolver


@pytest.fixture
def table(small_instance, planner):
    incentives = IncentiveModel(mu=small_instance.mu)
    table = CandidateTable(planner, incentives)
    table.initialize(small_instance.workers, small_instance.sensing_tasks,
                     small_instance.budget)
    return table


class TestInitialization:
    def test_feasible_pairs_found(self, table, small_instance):
        assert table.num_pairs() > 0
        assert not table.empty

    def test_entries_have_feasible_routes(self, table, small_instance):
        for worker in small_instance.workers:
            for task_id, entry in table.worker_candidates(worker.worker_id).items():
                timing = entry.route.simulate()
                assert timing.feasible
                assert entry.route.covers_all_travel_tasks()
                assert task_id in {t.task_id for t in entry.route.sensing_tasks}

    def test_delta_incentive_within_budget(self, table, small_instance):
        # The paper's constraint is <=: exactly exhausting the budget is
        # feasible.
        for worker in small_instance.workers:
            for entry in table.worker_candidates(worker.worker_id).values():
                assert entry.delta_incentive <= small_instance.budget

    def test_delta_incentive_matches_route(self, table, small_instance):
        model = IncentiveModel(mu=small_instance.mu)
        for worker in small_instance.workers:
            model.set_base_rtt(worker, table.incentives.base_rtt(worker))
            for entry in table.worker_candidates(worker.worker_id).values():
                expected = model.incentive(worker, entry.route_travel_time)
                assert entry.delta_incentive == pytest.approx(expected)

    def test_base_rtt_seeded(self, table, small_instance):
        for worker in small_instance.workers:
            assert table.incentives.base_rtt(worker) > 0

    def test_zero_budget_no_candidates(self, small_instance, planner):
        incentives = IncentiveModel(mu=small_instance.mu)
        empty = CandidateTable(planner, incentives)
        empty.initialize(small_instance.workers, small_instance.sensing_tasks,
                         0.0)
        # Only zero-cost insertions fit a zero budget; with off-route
        # tasks there are none.
        assert empty.num_pairs() == 0

    def test_contains(self, table, small_instance):
        worker_id = small_instance.workers[0].worker_id
        candidates = table.worker_candidates(worker_id)
        if candidates:
            task_id = next(iter(candidates))
            assert (worker_id, task_id) in table
        assert (999, 999) not in table


class TestUpdates:
    def test_remove_task_everywhere(self, table, small_instance):
        task_id = next(iter(table.candidate_task_ids()))
        table.remove_task(task_id)
        for worker in small_instance.workers:
            assert task_id not in table.worker_candidates(worker.worker_id)

    def test_prune_over_budget(self, table):
        before = table.num_pairs()
        table.prune_over_budget(0.0)
        assert table.num_pairs() == 0 or table.num_pairs() < before

    def test_recompute_worker_respects_assignment(self, table, small_instance):
        worker = small_instance.workers[0]
        candidates = table.worker_candidates(worker.worker_id)
        task_id = next(iter(candidates))
        assigned_task = small_instance.sensing_task(task_id)
        entry = candidates[task_id]
        remaining = [s for s in small_instance.sensing_tasks
                     if s.task_id != task_id]
        table.recompute_worker(worker, [assigned_task], remaining,
                               entry.delta_incentive,
                               small_instance.budget - entry.delta_incentive,
                               current_route_tasks=entry.route.tasks)
        for new_id, new_entry in table.worker_candidates(worker.worker_id).items():
            sensing_ids = {t.task_id for t in new_entry.route.sensing_tasks}
            assert task_id in sensing_ids  # assigned task still on route
            assert new_id in sensing_ids

    def test_workers_with_candidates(self, table, small_instance):
        ids = table.workers_with_candidates()
        assert set(ids).issubset({w.worker_id for w in small_instance.workers})

    def test_planner_call_counting(self, table):
        assert table.planner_calls > 0


class TestBudgetBoundary:
    """Regression tests for the <= budget constraint (Section III-B).

    Entries whose marginal cost exactly exhausts the remaining budget are
    feasible; the pre-fix strict-< comparison wrongly excluded them.
    """

    def test_prune_keeps_exact_budget_entry(self, table):
        worker_id = table.workers_with_candidates()[0]
        task_id, entry = next(iter(table.worker_candidates(worker_id).items()))
        table.prune_over_budget(entry.delta_incentive)
        assert (worker_id, task_id) in table

    def test_prune_drops_over_budget_entry(self, table):
        worker_id = table.workers_with_candidates()[0]
        task_id, entry = next(iter(table.worker_candidates(worker_id).items()))
        table.prune_over_budget(entry.delta_incentive - 1e-9)
        assert (worker_id, task_id) not in table

    def test_initialize_keeps_exact_budget_assignment(self, small_instance,
                                                      planner):
        from repro.core import IncentiveModel

        # First pass at unlimited budget to learn each entry's true cost.
        probe = CandidateTable(planner, IncentiveModel(mu=small_instance.mu))
        probe.initialize(small_instance.workers,
                         small_instance.sensing_tasks, float("inf"))
        worker_id = probe.workers_with_candidates()[0]
        task_id, entry = next(iter(probe.worker_candidates(worker_id).items()))
        assert entry.delta_incentive > 0

        # Re-initialise with a budget exactly equal to that cost: the pair
        # must survive.
        exact = CandidateTable(planner, IncentiveModel(mu=small_instance.mu))
        exact.initialize(small_instance.workers,
                         small_instance.sensing_tasks, entry.delta_incentive)
        assert (worker_id, task_id) in exact


class TestCopy:
    def test_copy_is_structurally_identical(self, table, small_instance):
        clone = table.copy()
        assert clone.num_pairs() == table.num_pairs()
        assert clone.planner_calls == table.planner_calls
        for worker in small_instance.workers:
            original = table.worker_candidates(worker.worker_id)
            copied = clone.worker_candidates(worker.worker_id)
            assert set(original) == set(copied)
            for task_id in original:
                # Entries are frozen and shared, not re-planned.
                assert copied[task_id] is original[task_id]

    def test_copy_isolated_from_mutation(self, table):
        clone = table.copy()
        task_id = next(iter(table.candidate_task_ids()))
        clone.remove_task(task_id)
        assert any(task_id in table.worker_candidates(w)
                   for w in table.workers_with_candidates())


class TestBatchedPlannerPath:
    """RL backends expose plan_many; the table must use it transparently."""

    @pytest.fixture
    def gpn_table(self, small_instance):
        from repro.smore import CandidateTable
        from repro.tsptw import GPNSolver, make_default_gpn

        region = small_instance.coverage.grid.region
        model = make_default_gpn(region, 240.0, d_model=16, seed=0)
        planner = GPNSolver(model, repair=True)
        incentives = IncentiveModel(mu=small_instance.mu)
        table = CandidateTable(planner, incentives)
        table.initialize(small_instance.workers,
                         small_instance.sensing_tasks,
                         small_instance.budget)
        return table

    def test_batched_init_counts_all_pairs(self, gpn_table, small_instance):
        expected = small_instance.num_workers * small_instance.num_sensing_tasks
        assert gpn_table.planner_calls == expected

    def test_batched_entries_feasible(self, gpn_table, small_instance):
        for worker in small_instance.workers:
            for entry in gpn_table.worker_candidates(worker.worker_id).values():
                assert entry.route.simulate().feasible
                assert entry.route.covers_all_travel_tasks()

    def test_batched_matches_unbatched_feasibility_semantics(
            self, gpn_table, small_instance):
        # Every stored entry respects the budget bound of Algorithm 1.
        for worker in small_instance.workers:
            for entry in gpn_table.worker_candidates(worker.worker_id).values():
                assert entry.delta_incentive < small_instance.budget


class TestIncrementalIndex:
    """The incrementally-maintained worker/task indexes must always agree
    with a brute-force rebuild from the underlying table."""

    @staticmethod
    def _check(table):
        ref_workers = [w for w, row in table._table.items() if row]
        ref_tasks = set()
        for row in table._table.values():
            ref_tasks.update(row)
        assert table.workers_with_candidates() == ref_workers
        assert table.candidate_task_ids() == ref_tasks
        assert table.num_candidate_tasks() == len(ref_tasks)
        assert table.empty == (not ref_tasks)

    def test_initialize_consistent(self, table):
        assert not table.empty
        self._check(table)

    def test_remove_task_transitions_to_empty(self, table, small_instance):
        for task in small_instance.sensing_tasks:
            table.remove_task(task.task_id)
            self._check(table)
        assert table.empty
        assert table.workers_with_candidates() == []
        assert table.num_candidate_tasks() == 0

    def test_prune_transitions(self, table):
        table.prune_over_budget(0.0)
        self._check(table)

    def test_recompute_worker_reindexes(self, table, small_instance):
        worker = small_instance.workers[0]
        candidates = table.worker_candidates(worker.worker_id)
        task_id = next(iter(candidates))
        entry = candidates[task_id]
        assigned = small_instance.sensing_task(task_id)
        remaining = [s for s in small_instance.sensing_tasks
                     if s.task_id != task_id]
        table.remove_task(task_id)
        self._check(table)
        table.recompute_worker(worker, [assigned], remaining,
                               entry.delta_incentive,
                               small_instance.budget - entry.delta_incentive,
                               current_route_tasks=entry.route.tasks)
        self._check(table)

    def test_workers_order_matches_table_order(self, table):
        # Tie-breaking in _best_candidate_pair observes table order, so the
        # cached list must preserve it, not set order.
        order = [w for w in table._table if table.worker_candidates(w)]
        assert table.workers_with_candidates() == order

    def test_copy_isolates_index(self, table):
        clone = table.copy()
        task_id = next(iter(table.candidate_task_ids()))
        table.remove_task(task_id)
        assert task_id in clone.candidate_task_ids()
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


def _signature(row):
    return [(task_id, entry.delta_incentive, entry.route_travel_time,
             tuple(t.task_id for t in entry.route.tasks))
            for task_id, entry in row.items()]


def _direct_row(direct, planner, incentives, worker, route_tasks, assigned,
                tasks, current_incentive, budget_rest):
    """The row per-task calls of ``direct`` give, in pool order."""
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
    return row


class TestCapabilityMatrix:
    """Every planner path of the one dispatch builds the rows its own
    per-task calls give, and counts one logical plan per task swept."""

    @pytest.mark.parametrize("make, direct", PLANNERS)
    def test_rows_match_direct_calls(self, small_instance, make, direct):
        planner = make()
        incentives = IncentiveModel(mu=small_instance.mu)
        table = CandidateTable(planner, incentives)
        tasks = list(small_instance.sensing_tasks)
        budget = small_instance.budget
        table.initialize(small_instance.workers, tasks, budget)

        swept = 0
        for worker in small_instance.workers:
            base = planner.base_route(worker)
            assert base.feasible
            swept += len(tasks)
            assert _signature(table.worker_candidates(worker.worker_id)) \
                == _direct_row(direct, planner, incentives, worker,
                               base.route.tasks, (), tasks, 0.0, budget)
        assert table.planner_calls == swept

        worker_id = table.workers_with_candidates()[0]
        worker = small_instance.worker(worker_id)
        task_id, entry = next(iter(table.worker_candidates(worker_id).items()))
        assigned = [small_instance.sensing_task(task_id)]
        available = [t for t in tasks if t.task_id != task_id]
        rest = budget - entry.delta_incentive
        table.recompute_worker(worker, assigned, available,
                               entry.delta_incentive, rest,
                               current_route_tasks=entry.route.tasks)
        swept += len(available)
        expected = _direct_row(direct, planner, incentives, worker,
                               entry.route.tasks, assigned, available,
                               entry.delta_incentive, rest)
        assert expected
        assert _signature(table.worker_candidates(worker_id)) == expected
        assert table.planner_calls == swept

    @pytest.mark.parametrize("make", (PlanManyOnlyPlanner,
                                      NearestNeighborSolver),
                             ids=("plan-many-only", "plan-only"))
    def test_replan_planners_reject_anchored_and_repair_sweeps(
            self, small_instance, make):
        table = CandidateTable(make(), IncentiveModel(mu=small_instance.mu))
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
        with pytest.raises(TypeError):
            table.add_tasks(tasks[:1], [(worker, route_tasks, 0.0, 0)],
                            small_instance.budget)
        assert table.planner_calls == calls

    def test_anchored_recompute_on_insertion_only_planner(self,
                                                          small_instance):
        planner = InsertionOnlyPlanner()
        incentives = IncentiveModel(mu=small_instance.mu)
        table = CandidateTable(planner, incentives)
        tasks = list(small_instance.sensing_tasks)
        budget = small_instance.budget
        table.initialize(small_instance.workers, tasks, budget)
        worker = small_instance.workers[0]
        route_tasks = planner.base_route(worker).route.tasks
        table.recompute_worker(worker, [], tasks, 0.0, budget,
                               current_route_tasks=route_tasks,
                               min_position=1)
        row = table.worker_candidates(worker.worker_id)
        assert row
        for task in tasks:
            result = planner.plan_with_insertion(worker, route_tasks, task,
                                                 min_position=1)
            entry = row.get(task.task_id)
            if entry is not None:
                assert entry.position == result.pos >= 1
                assert entry.route_travel_time == result.route_travel_time
