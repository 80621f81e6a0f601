"""Tests for TASNetPolicy and FlatSelectionPolicy over the real MDP."""

import numpy as np
import pytest

from repro import nn
from repro.smore import (
    FlatSelectionNet,
    FlatSelectionPolicy,
    SelectionEnv,
    TASNetConfig,
    sensing_task_features,
    worker_travel_grid,
)

from .conftest import GRID_NX, GRID_NY


class TestFeaturisation:
    def test_worker_grid_values(self, small_instance):
        worker = small_instance.workers[0]
        grid = worker_travel_grid(small_instance, worker)
        assert grid.shape == (GRID_NX, GRID_NY)
        values = set(np.unique(grid).tolist())
        assert values.issubset({0.0, 1 / 3, 2 / 3, 1.0})
        assert (grid == 1 / 3).sum() >= 1  # origin marked

    def test_travel_tasks_override_endpoints(self, small_instance):
        worker = small_instance.workers[0]
        grid = worker_travel_grid(small_instance, worker)
        coverage_grid = small_instance.coverage.grid
        for task in worker.travel_tasks:
            i, j = coverage_grid.cell_of(task.location)
            assert grid[i, j] == pytest.approx(1.0)

    def test_task_features_normalised(self, small_instance):
        features = sensing_task_features(small_instance)
        assert features.shape == (small_instance.num_sensing_tasks, 4)
        assert features.min() >= 0.0
        assert features.max() <= 1.0 + 1e-9


class TestTASNetPolicy:
    def test_act_before_begin_raises(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        with pytest.raises(RuntimeError):
            policy.act(state)

    def test_act_returns_feasible_pair(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        action = policy.act(state)
        assert (action.worker_id, action.task_id) in state.candidates

    def test_greedy_deterministic(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        a = policy.act(state, greedy=True)
        b = policy.act(state, greedy=True)
        assert (a.worker_id, a.task_id) == (b.worker_id, b.task_id)

    def test_log_prob_is_log_probability(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        action = policy.act(state, greedy=False, rng=np.random.default_rng(0))
        assert action.log_prob.item() <= 0.0

    def test_log_prob_of_matches_act(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        action = policy.act(state, greedy=True)
        recomputed = policy.log_prob_of(state, action.worker_id, action.task_id)
        assert recomputed.item() == pytest.approx(action.log_prob.item())

    def test_full_episode_runs(self, policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        steps = 0
        while not state.done and steps < 100:
            action = policy.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
            steps += 1
        assert state.done

    def test_gradients_flow_through_episode(self, policy, small_instance,
                                            planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        policy.begin_episode(small_instance)
        total = None
        rng = np.random.default_rng(0)
        while not state.done:
            action = policy.act(state, greedy=False, rng=rng)
            total = (action.log_prob if total is None
                     else total + action.log_prob)
            state, _, _ = env.step(action.worker_id, action.task_id)
        assert total is not None
        total.backward()
        grads = [p for p in policy.parameters() if p.grad is not None
                 and np.any(p.grad != 0)]
        assert grads, "no nonzero gradients reached TASNet parameters"


class TestFlatSelectionPolicy:
    @pytest.fixture
    def flat_policy(self):
        config = TASNetConfig(d_model=8, num_heads=2, num_layers=1,
                              conv_channels=2)
        net = FlatSelectionNet(config, GRID_NX, GRID_NY,
                               rng=np.random.default_rng(1))
        return FlatSelectionPolicy(net)

    def test_act_returns_feasible_pair(self, flat_policy, small_instance,
                                       planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        flat_policy.begin_episode(small_instance)
        action = flat_policy.act(state)
        assert (action.worker_id, action.task_id) in state.candidates

    def test_log_prob_of(self, flat_policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        flat_policy.begin_episode(small_instance)
        action = flat_policy.act(state, greedy=True)
        lp = flat_policy.log_prob_of(state, action.worker_id, action.task_id)
        assert lp.item() == pytest.approx(action.log_prob.item())

    def test_full_episode(self, flat_policy, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        flat_policy.begin_episode(small_instance)
        while not state.done:
            action = flat_policy.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
        assert state.done
