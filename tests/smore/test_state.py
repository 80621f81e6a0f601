"""Tests for the assignment state M and the MDP state container."""

import pytest

from repro.core import IncentiveModel
from repro.smore import AssignmentState, CandidateTable, SelectionEnv

from .planes import live_worker_ids, pair_route, pair_values, row_task_ids


@pytest.fixture
def env(small_instance, planner):
    return SelectionEnv(small_instance, planner)


class TestAssignmentState:
    def test_initial_slots(self, small_instance):
        state = AssignmentState(small_instance.workers)
        for worker in small_instance.workers:
            slot = state[worker.worker_id]
            assert slot.assigned == []
            assert slot.route is None
            assert slot.incentive == 0.0
            assert slot.num_assigned == 0

    def test_iteration_covers_all_workers(self, small_instance):
        state = AssignmentState(small_instance.workers)
        ids = {slot.worker.worker_id for slot in state}
        assert ids == {w.worker_id for w in small_instance.workers}

    def test_apply_accumulates(self, small_instance, planner):
        incentives = IncentiveModel(mu=small_instance.mu)
        table = CandidateTable(planner, incentives, small_instance.workers,
                               small_instance.sensing_tasks)
        table.initialize(small_instance.workers, small_instance.sensing_tasks,
                         small_instance.budget)
        state = AssignmentState(small_instance.workers)
        worker_id = live_worker_ids(table)[0]
        task_id = row_task_ids(table, worker_id)[0]
        delta, _ = pair_values(table, worker_id, task_id)
        route = pair_route(table, worker_id, task_id)
        task = small_instance.sensing_task(task_id)
        state.apply(worker_id, task, route, delta)
        slot = state[worker_id]
        assert slot.num_assigned == 1
        assert slot.incentive == pytest.approx(delta)
        assert slot.route is route

    def test_routes_and_incentives_exclude_idle_workers(self, small_instance):
        state = AssignmentState(small_instance.workers)
        assert state.routes() == {}
        assert state.incentives() == {}
        assert state.total_incentive() == 0.0


class TestSelectionState:
    def test_done_reflects_candidates(self, env):
        state = env.reset()
        assert state.done == state.candidates.empty

    def test_feasible_worker_ids_subset(self, env, small_instance):
        state = env.reset()
        ids = set(live_worker_ids(state.candidates))
        assert ids.issubset({w.worker_id for w in small_instance.workers})

    def test_phi_starts_at_zero(self, env):
        state = env.reset()
        assert state.phi() == 0.0

    def test_step_count_advances(self, env):
        state = env.reset()
        worker_id = live_worker_ids(state.candidates)[0]
        task_id = row_task_ids(state.candidates, worker_id)[0]
        state, _, _ = env.step(worker_id, task_id)
        assert state.step_count == 1
