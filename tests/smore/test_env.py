"""Tests for the selection MDP environment (Section IV-A semantics)."""

import pytest

from repro.smore import SelectionEnv

from .planes import live_worker_ids, pair_values, row_task_ids


@pytest.fixture
def env(small_instance, planner):
    return SelectionEnv(small_instance, planner)


def first_action(state):
    worker_id = live_worker_ids(state.candidates)[0]
    task_id = row_task_ids(state.candidates, worker_id)[0]
    return worker_id, task_id


class TestReset:
    def test_initial_state(self, env, small_instance):
        state = env.reset()
        assert state.budget_rest == small_instance.budget
        assert state.selected == []
        assert state.step_count == 0
        assert not state.done

    def test_step_before_reset_raises(self, env):
        with pytest.raises(RuntimeError):
            env.step(1, 100)


class TestStep:
    def test_reward_is_coverage_gain(self, env, small_instance):
        state = env.reset()
        worker_id, task_id = first_action(state)
        expected = state.coverage.gain(small_instance.sensing_task(task_id))
        _, reward, _ = env.step(worker_id, task_id)
        assert reward == pytest.approx(expected)

    def test_budget_decreases_by_delta(self, env, small_instance):
        state = env.reset()
        worker_id, task_id = first_action(state)
        delta, _ = pair_values(state.candidates, worker_id, task_id)
        state, _, _ = env.step(worker_id, task_id)
        assert state.budget_rest == pytest.approx(
            small_instance.budget - delta)

    def test_assignment_recorded(self, env, small_instance):
        state = env.reset()
        worker_id, task_id = first_action(state)
        state, _, _ = env.step(worker_id, task_id)
        slot = state.assignments[worker_id]
        assert [t.task_id for t in slot.assigned] == [task_id]
        assert slot.route is not None
        assert task_id in {t.task_id for t in slot.route.sensing_tasks}

    def test_selected_task_removed_from_all_candidates(self, env,
                                                       small_instance):
        state = env.reset()
        worker_id, task_id = first_action(state)
        state, _, _ = env.step(worker_id, task_id)
        for worker in small_instance.workers:
            assert task_id not in row_task_ids(state.candidates,
                                               worker.worker_id)

    def test_invalid_action_raises(self, env):
        env.reset()
        with pytest.raises(KeyError):
            env.step(999, 999)

    def test_episode_terminates(self, env):
        state = env.reset()
        for _ in range(200):
            if state.done:
                break
            worker_id, task_id = first_action(state)
            state, _, _ = env.step(worker_id, task_id)
        assert state.done

    def test_budget_never_negative(self, env):
        state = env.reset()
        while not state.done:
            worker_id, task_id = first_action(state)
            state, _, _ = env.step(worker_id, task_id)
        assert state.budget_rest >= -1e-9

    def test_total_reward_equals_phi(self, env):
        state = env.reset()
        total = 0.0
        while not state.done:
            worker_id, task_id = first_action(state)
            state, reward, _ = env.step(worker_id, task_id)
            total += reward
        assert total == pytest.approx(state.phi())

    def test_coverage_tracks_selected(self, env):
        state = env.reset()
        worker_id, task_id = first_action(state)
        state, _, _ = env.step(worker_id, task_id)
        assert state.coverage.total == 1
        assert len(state.selected) == 1
