"""Lock-step decode runner vs. the per-episode reference loop.

Advancing K rollouts in lock-step — one batched two-stage TASNet forward
per decoding step — must reproduce the per-episode oracle loop
(``tests/smore/oracle.py``) exactly, action for action, for greedy
decoding, for seeded sampling, through the solver facade, and composed
with the fork pool.  Policies without ``act_batch`` ride the same runner
one env at a time.
"""

import numpy as np
import pytest

from repro import nn
from repro.parallel import fork_available
from repro.smore import (
    BatchedEpisodeRunner,
    FlatSelectionNet,
    FlatSelectionPolicy,
    MultiInstanceRunner,
    RatioSelectionRule,
    SelectionEnv,
    SMORESolver,
    TASNetTrainer,
    TrainingConfig,
)

from .conftest import GRID_NX, GRID_NY
from .oracle import SerialTASNetPolicy, run_serial_episode


def _actions(records):
    return [(r.worker_id, r.task_id) for r in records]


# --------------------------------------------------------------------- #
# act_batch vs. act
# --------------------------------------------------------------------- #
def test_act_batch_matches_act_on_diverged_states(small_instance, planner,
                                                  policy):
    """Batch companions at different states each get their serial action."""
    env = SelectionEnv(small_instance, planner)
    state_a = env.reset()
    state_b = env.reset()
    policy.begin_episode(small_instance)
    with nn.no_grad():
        # Diverge state_b by one policy step so the batch mixes depths.
        first = policy.act(state_b, greedy=True)
        env.step_state(state_b, first.worker_id, first.task_id)

        serial = [policy.act(state_a, greedy=True),
                  policy.act(state_b, greedy=True)]
        batched = policy.act_batch([state_a, state_b], greedy=True)
    assert _actions(batched) == _actions(serial)
    for ref, got in zip(serial, batched):
        np.testing.assert_allclose(got.log_prob.data, ref.log_prob.data,
                                   atol=1e-12, rtol=1e-12)


def test_act_batch_seeded_sampling_matches_serial(small_instance, planner,
                                                  policy):
    env = SelectionEnv(small_instance, planner)
    state = env.reset()
    policy.begin_episode(small_instance)
    with nn.no_grad():
        serial = policy.act(state, greedy=False,
                            rng=np.random.default_rng(7))
        batched = policy.act_batch(
            [state, state], greedy=False,
            rngs=[np.random.default_rng(7), np.random.default_rng(7)])
    assert _actions(batched) == [_actions([serial])[0]] * 2


# --------------------------------------------------------------------- #
# Runner vs. the per-episode oracle loop
# --------------------------------------------------------------------- #
def test_runner_greedy_matches_run_episode(small_instance, planner, policy):
    env = SelectionEnv(small_instance, planner)
    with nn.no_grad():
        ref_state, ref_reward, ref_records = run_serial_episode(
            env, SerialTASNetPolicy(policy.net), greedy=True,
            record_actions=True)

    env2 = SelectionEnv(small_instance, planner)
    runner = BatchedEpisodeRunner(env2, policy)
    with nn.no_grad():
        episodes = runner.run([(True, None)] * 3, record_actions=True)

    for episode in episodes:
        assert _actions(episode.records) == _actions(ref_records)
        assert episode.state.phi() == ref_state.phi()
        assert episode.total_reward == ref_reward
        assert episode.state.assignments.routes() == \
            ref_state.assignments.routes()


def test_runner_seeded_sampling_matches_run_episode(small_instance, planner,
                                                    policy):
    seeds = [11, 12, 13]
    serial = []
    env = SelectionEnv(small_instance, planner)
    with nn.no_grad():
        for seed in seeds:
            state, _, records = run_serial_episode(
                env, SerialTASNetPolicy(policy.net), greedy=False,
                rng=np.random.default_rng(seed), record_actions=True)
            serial.append((state.phi(), _actions(records)))

    env2 = SelectionEnv(small_instance, planner)
    runner = MultiInstanceRunner([env2], policy)
    with nn.no_grad():
        (episodes,) = runner.run([[(False, seed) for seed in seeds]],
                                 record_actions=True)
    batched = [(ep.state.phi(), _actions(ep.records)) for ep in episodes]
    assert batched == serial


def test_runner_fallback_policy_without_act_batch(small_instance, planner):
    """Selection rules have no act_batch; the runner falls back to act."""
    rule = RatioSelectionRule()
    env = SelectionEnv(small_instance, planner)
    ref_state, ref_reward, ref_records = run_serial_episode(
        env, rule, greedy=True, record_actions=True)

    env2 = SelectionEnv(small_instance, planner)
    (episodes,) = MultiInstanceRunner([env2], rule).run(
        [[(True, None)] * 2], record_actions=True)
    for episode in episodes:
        assert _actions(episode.records) == _actions(ref_records)
        assert episode.state.phi() == ref_state.phi()


def test_runner_flat_policy_fallback(small_instance, planner):
    from repro.smore import TASNetConfig

    net = FlatSelectionNet(
        TASNetConfig(d_model=8, num_heads=2, num_layers=1, conv_channels=2),
        GRID_NX, GRID_NY, rng=np.random.default_rng(3))
    flat = FlatSelectionPolicy(net)
    env = SelectionEnv(small_instance, planner)
    with nn.no_grad():
        ref_state, _, ref_records = run_serial_episode(
            env, flat, greedy=True, record_actions=True)

    env2 = SelectionEnv(small_instance, planner)
    with nn.no_grad():
        (episodes,) = MultiInstanceRunner([env2], flat).run(
            [[(True, None)]], record_actions=True)
    assert _actions(episodes[0].records) == _actions(ref_records)
    assert episodes[0].state.phi() == ref_state.phi()


# --------------------------------------------------------------------- #
# Solver routing
# --------------------------------------------------------------------- #
def test_solver_batched_matches_loop_path(small_instance, planner, policy):
    """solve() == the oracle loop over the same rollout schedule, best
    coverage first (ties keep the earlier rollout)."""
    solver = SMORESolver(planner, policy)
    batched = solver.solve(small_instance, num_samples=4,
                           rng=np.random.default_rng(5))

    plan = solver._rollout_plan(True, np.random.default_rng(5), 4)
    env = SelectionEnv(small_instance, planner)
    serial = SerialTASNetPolicy(policy.net)
    best = None
    with nn.no_grad():
        for use_greedy, seed in plan:
            rng = None if use_greedy else np.random.default_rng(seed)
            state, _, _ = run_serial_episode(env, serial, greedy=use_greedy,
                                             rng=rng)
            if best is None or state.phi() > best.phi():
                best = state
    assert batched.objective == best.phi()
    assert batched.routes == best.assignments.routes()
    assert batched.incentives == best.assignments.incentives()
    assert batched.perf.planner_calls == env.perf.planner_calls
    assert batched.perf.init_planner_calls == env.perf.init_planner_calls
    assert batched.perf.rollouts == env.perf.rollouts == 4


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_solver_batched_with_workers_matches_serial(small_instance, planner,
                                                    policy):
    solver = SMORESolver(planner, policy)
    serial = solver.solve(small_instance, num_samples=4,
                          rng=np.random.default_rng(6))
    pooled = solver.solve(small_instance, num_samples=4,
                          rng=np.random.default_rng(6), workers=2)
    assert pooled.objective == serial.objective
    assert pooled.routes == serial.routes
    assert pooled.perf.planner_calls == serial.perf.planner_calls
    assert pooled.perf.rollouts == 4


# --------------------------------------------------------------------- #
# Trainer integration
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("baseline", ["critic", "rollout", "none"])
def test_trainer_multi_rollout_iteration(small_instance, planner, policy,
                                         baseline):
    config = TrainingConfig(iterations=1, batch_size=1, seed=3,
                            baseline=baseline, rollouts_per_instance=3)
    trainer = TASNetTrainer(policy, planner, config=config)
    reward = trainer.train_iteration([small_instance])
    assert np.isfinite(reward) and reward > 0.0
    assert len(trainer.history["reward"]) == 1
    if baseline == "critic":
        assert len(trainer.history["critic_loss"]) == 1
    # One gradient step actually happened.
    assert trainer.optimizer.state_dict()["step_count"] == 1


def test_training_config_rejects_zero_rollouts():
    with pytest.raises(ValueError):
        TrainingConfig(rollouts_per_instance=0)
