"""Regressions for SelectionEnv snapshotting and incremental pool upkeep.

Two invariants pinned here:

* the env's candidate-table snapshot is never the live table an episode
  mutates, so every reset hands back the pristine initial table;
* the ``unselected`` pool maintained incrementally on the state (one dict
  pop per step) stays bit-identical — same members, same iteration
  order — to filtering the instance task list from scratch.
"""

import numpy as np

from repro.datasets import InstanceOptions, generate_instances
from repro.smore import GreedySelectionRule, SelectionEnv
from repro.tsptw import InsertionSolver


def _instance(seed=11):
    return generate_instances(
        "delivery", 1, seed=seed,
        options=InstanceOptions(task_density=0.04, num_workers=3))[0]


def _signature(table):
    """Row order plus the live pairs and their values, plane by plane."""
    mask = table.mask
    return (list(table.order), mask.tolist(), table.rtt[mask].tolist(),
            table.delta_incentive[mask].tolist(), table.pos[mask].tolist())


class TestSnapshotOnlyWhenReusing:
    def test_snapshot_is_not_the_live_table(self):
        instance = _instance()
        env = SelectionEnv(instance, InsertionSolver(speed=instance.speed))
        state = env.reset()
        assert env._snapshot is not None
        assert state.candidates is not env._snapshot

    def test_episode_mutation_cannot_corrupt_snapshot(self):
        instance = _instance()
        env = SelectionEnv(instance, InsertionSolver(speed=instance.speed))
        policy = GreedySelectionRule()
        state = env.reset()
        pristine = _signature(env._snapshot)
        policy.begin_episode(instance)
        while not state.done:
            action = policy.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
        assert _signature(env._snapshot) == pristine
        fresh = env.reset()
        assert _signature(fresh.candidates) == pristine
        # The full-replan oracle: a fresh env per rollout.
        replanned = SelectionEnv(
            instance, InsertionSolver(speed=instance.speed)).reset()
        assert _signature(replanned.candidates) == pristine


class TestIncrementalUnselectedPool:
    def test_pool_matches_fresh_filter_every_step(self):
        instance = _instance(seed=13)
        env = SelectionEnv(instance, InsertionSolver(speed=instance.speed))
        policy = GreedySelectionRule()
        state = env.reset()
        policy.begin_episode(instance)
        steps = 0
        while not state.done:
            selected_ids = {t.task_id for t in state.selected}
            expected = [s for s in instance.sensing_tasks
                        if s.task_id not in selected_ids]
            # Same members AND same iteration order as the from-scratch
            # filter the env used to rebuild each step.
            assert list(state.unselected) == [s.task_id for s in expected]
            assert list(state.unselected.values()) == expected
            action = policy.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
            steps += 1
        assert steps > 0
        selected_ids = {t.task_id for t in state.selected}
        assert list(state.unselected) == [
            s.task_id for s in instance.sensing_tasks
            if s.task_id not in selected_ids]

    def test_reset_restores_full_pool(self):
        instance = _instance(seed=17)
        env = SelectionEnv(instance, InsertionSolver(speed=instance.speed))
        policy = GreedySelectionRule()
        state = env.reset()
        policy.begin_episode(instance)
        while not state.done:
            action = policy.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
        fresh = env.reset()
        assert list(fresh.unselected) == [
            s.task_id for s in instance.sensing_tasks]
