"""Snapshot reuse: repeated resets must not replan, and must be equivalent.

The initial candidate table depends only on the (immutable) instance and
the planner, so ``SelectionEnv.reset()`` computes it once and restores it
by structural copy afterwards.  These tests pin the three guarantees:
no planner calls on later resets, bit-identical tables, and identical
solutions with reuse and with a fresh env per rollout (the full-replan
oracle).
"""

import numpy as np
import pytest

from repro.smore import (
    RatioSelectionRule,
    SelectionEnv,
    SMORESolver,
    run_episode,
)
from repro.tsptw import InsertionSolver


class CountingPlanner:
    """InsertionSolver wrapper counting actual backend invocations."""

    def __init__(self):
        self.inner = InsertionSolver()
        self.speed = self.inner.speed
        self.calls = 0

    def plan(self, worker, sensing_tasks):
        self.calls += 1
        return self.inner.plan(worker, sensing_tasks)

    def plan_with_insertion(self, worker, base_tasks, new_task):
        self.calls += 1
        return self.inner.plan_with_insertion(worker, base_tasks, new_task)

    def base_route(self, worker):
        self.calls += 1
        return self.inner.base_route(worker)


def table_signature(state):
    return {
        worker_id: {
            task_id: (entry.delta_incentive,
                      tuple(t.task_id for t in entry.route.tasks))
            for task_id, entry in state.candidates.worker_candidates(
                worker_id).items()
        }
        for worker_id in state.candidates.workers_with_candidates()
    }


class TestSnapshotReuse:
    def test_second_reset_issues_no_planner_calls(self, small_instance):
        planner = CountingPlanner()
        env = SelectionEnv(small_instance, planner)
        env.reset()
        calls_after_first = planner.calls
        assert calls_after_first > 0
        env.reset()
        assert planner.calls == calls_after_first

    def test_reset_twice_yields_identical_tables(self, small_instance,
                                                 planner):
        env = SelectionEnv(small_instance, planner)
        first = table_signature(env.reset())
        second = table_signature(env.reset())
        assert first == second

    def test_reuse_matches_fresh_initialisation(self, small_instance,
                                                planner):
        reused = SelectionEnv(small_instance, planner)
        reused.reset()
        fresh = SelectionEnv(small_instance, planner)
        assert table_signature(reused.reset()) == table_signature(
            fresh.reset())

    def test_mutating_an_episode_does_not_leak_into_snapshot(
            self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        before = table_signature(state)
        rule = RatioSelectionRule()
        rule.begin_episode(small_instance)
        while not state.done:
            action = rule.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
        assert table_signature(env.reset()) == before

    def test_identical_solutions_across_episodes(self, small_instance,
                                                 planner):
        env = SelectionEnv(small_instance, planner)
        rule = RatioSelectionRule()
        first, _, _ = run_episode(env, rule)
        second, _, _ = run_episode(env, rule)

        def assigned_ids(state):
            return {slot.worker.worker_id: [t.task_id for t in slot.assigned]
                    for slot in state.assignments}

        assert first.phi() == second.phi()
        assert assigned_ids(first) == assigned_ids(second)

    def test_perf_counts_init_once(self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        env.reset()
        init_calls = env.perf.init_planner_calls
        env.reset()
        env.reset()
        assert env.perf.init_planner_calls == init_calls
        assert env.perf.rollouts == 3


class TestSolverCounters:
    def test_multi_sample_inits_once(self, small_instance):
        planner = CountingPlanner()
        solver = SMORESolver(planner, RatioSelectionRule())
        solution = solver.solve(small_instance, num_samples=8,
                                rng=np.random.default_rng(0))
        W = small_instance.num_workers
        S = small_instance.num_sensing_tasks
        # Acceptance criterion: candidate initialisation planner calls are
        # issued once, not 8x.
        assert solution.perf is not None
        assert solution.perf.init_planner_calls == W * S
        assert solution.perf.rollouts == 8

    def test_single_solve_records_phase_times(self, small_instance, planner):
        solution = SMORESolver(planner, RatioSelectionRule()).solve(
            small_instance)
        assert solution.perf.init_time > 0
        assert solution.perf.selection_time > 0
        assert solution.perf.planner_calls >= solution.perf.init_planner_calls

    def test_parallel_solve_matches_serial(self, small_instance, planner):
        solver = SMORESolver(planner, RatioSelectionRule())
        serial = solver.solve(small_instance, num_samples=4,
                              rng=np.random.default_rng(3))
        parallel = solver.solve(small_instance, num_samples=4,
                                rng=np.random.default_rng(3), workers=2)
        assert serial.objective == parallel.objective
        assert {w: [t.task_id for t in r.tasks]
                for w, r in serial.routes.items()} \
            == {w: [t.task_id for t in r.tasks]
                for w, r in parallel.routes.items()}
        assert serial.perf.planner_calls == parallel.perf.planner_calls
