"""Tests for the SMORE solver facade and the selection rules."""

import numpy as np
import pytest

from repro.core import IncentiveModel
from repro.smore import (
    GreedySelectionRule,
    RatioSelectionRule,
    SelectionEnv,
    SMORESolver,
    run_episode,
)


class TestSMORESolver:
    def test_solution_is_valid(self, policy, small_instance, planner):
        solver = SMORESolver(planner, policy)
        solution = solver.solve(small_instance)
        assert solution.validate() == []

    def test_budget_respected(self, policy, small_instance, planner):
        solution = SMORESolver(planner, policy).solve(small_instance)
        assert solution.total_incentive <= small_instance.budget + 1e-6

    def test_solver_name_default(self, policy, planner):
        assert SMORESolver(planner, policy).name == "SMORE"

    def test_solver_name_for_rules(self, planner):
        assert SMORESolver(planner, GreedySelectionRule()).name == "SMORE w/o RL-AS"
        assert SMORESolver(planner, RatioSelectionRule(), name="x").name == "x"

    def test_wall_time_recorded(self, policy, small_instance, planner):
        solution = SMORESolver(planner, policy).solve(small_instance)
        assert solution.wall_time > 0

    def test_incentives_match_definition(self, policy, small_instance, planner):
        solution = SMORESolver(planner, policy).solve(small_instance)
        model = IncentiveModel(mu=small_instance.mu,
                               base_rtt_fn=lambda w:
                               planner.base_route(w).route_travel_time)
        assert solution.validate(model) == []

    def test_objective_positive_when_tasks_assigned(self, policy,
                                                    small_instance, planner):
        solution = SMORESolver(planner, policy).solve(small_instance)
        if solution.num_completed >= 2:
            assert solution.objective > 0

    def test_sampling_mode(self, policy, small_instance, planner):
        solver = SMORESolver(planner, policy)
        solution = solver.solve(small_instance, greedy=False,
                                rng=np.random.default_rng(0))
        assert solution.validate() == []

    def test_multi_sample_never_worse_than_greedy(self, policy,
                                                  small_instance, planner):
        solver = SMORESolver(planner, policy)
        greedy = solver.solve(small_instance)
        sampled = solver.solve(small_instance, num_samples=4,
                               rng=np.random.default_rng(0))
        # The greedy rollout is always included in the candidate pool.
        assert sampled.objective >= greedy.objective - 1e-9
        assert sampled.validate() == []

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_non_positive_num_samples_raises(self, policy, small_instance,
                                             planner, num_samples):
        solver = SMORESolver(planner, policy)
        with pytest.raises(ValueError, match="num_samples"):
            solver.solve(small_instance, num_samples=num_samples)
        with pytest.raises(ValueError, match="num_samples"):
            solver.solve_many([small_instance], num_samples=num_samples)


class TestSelectionRules:
    def test_greedy_rule_picks_max_gain(self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        rule = GreedySelectionRule()
        rule.begin_episode(small_instance)
        action = rule.act(state)
        chosen_gain = state.coverage.gain(
            small_instance.sensing_task(action.task_id))
        for worker_id in state.candidates.workers_with_candidates():
            for task_id in state.candidates.worker_candidates(worker_id):
                gain = state.coverage.gain(small_instance.sensing_task(task_id))
                assert chosen_gain >= gain - 1e-12

    def test_ratio_rule_picks_max_ratio(self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        rule = RatioSelectionRule()
        rule.begin_episode(small_instance)
        action = rule.act(state)
        entry = state.candidates.get(action.worker_id, action.task_id)
        chosen = (state.coverage.gain(
            small_instance.sensing_task(action.task_id))
            / max(entry.delta_incentive, 1e-6))
        for worker_id in state.candidates.workers_with_candidates():
            for task_id, e in state.candidates.worker_candidates(worker_id).items():
                ratio = (state.coverage.gain(
                    small_instance.sensing_task(task_id))
                    / max(e.delta_incentive, 1e-6))
                assert chosen >= ratio - 1e-9

    def test_rules_produce_valid_solutions(self, small_instance, planner):
        for rule in (GreedySelectionRule(), RatioSelectionRule()):
            solution = SMORESolver(planner, rule).solve(small_instance)
            assert solution.validate() == []


class TestRunEpisode:
    def test_returns_total_reward(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state, total, records = run_episode(env, policy, record_actions=True)
        assert state.done
        assert total == pytest.approx(state.phi())
        assert len(records) == state.step_count

    def test_no_recording_by_default(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        _, _, records = run_episode(env, policy)
        assert records == []
