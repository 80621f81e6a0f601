"""The one TASNet forward vs. the per-state oracle.

``TASNetPolicy`` decodes every state — alone or among batch companions,
of one instance or many — through a single batched two-stage forward.
These tests pin that forward against ``SerialTASNetPolicy``
(``tests/smore/oracle.py``), which scores one state at a time through
the per-state module forwards:

* greedy and seeded-sampled K=1 action streams and their log-probs are
  bitwise identical;
* ``log_prob_of`` is bitwise identical on every candidate pair;
* imitation-loss gradients agree to rtol 1e-12 of each tensor's scale
  (the backward passes differ only in association).
"""

import numpy as np
import pytest

from repro import nn
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import (RatioSelectionRule, SelectionEnv, TASNet,
                         TASNetConfig, TASNetPolicy, run_episode)
from repro.tsptw import InsertionSolver

from .oracle import SerialTASNetPolicy, run_serial_episode

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    """Delivery instances with ragged worker/task counts."""
    return generate_instances(
        "delivery", 3, seed=7,
        options=InstanceOptions(task_density=0.04, budget=120.0))


def _net(instance, seed=0):
    grid = instance.coverage.grid
    return TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                  rng=np.random.default_rng(seed))


def _stream(records):
    return [(r.worker_id, r.task_id, r.log_prob.data.tobytes())
            for r in records]


def _episode_pair(instance, greedy, seed):
    """(library records, oracle records) for one rollout on one net."""
    net = _net(instance)
    results = []
    with nn.no_grad():
        for policy, run in ((TASNetPolicy(net), run_episode),
                            (SerialTASNetPolicy(net), run_serial_episode)):
            rng = None if greedy else np.random.default_rng(seed)
            _, reward, records = run(
                SelectionEnv(instance, InsertionSolver()), policy,
                greedy=greedy, rng=rng, record_actions=True)
            results.append((records, reward))
    return results


def test_greedy_stream_and_log_probs_bitwise(instances):
    for instance in instances:
        (got, got_reward), (want, want_reward) = _episode_pair(
            instance, greedy=True, seed=None)
        assert want, "oracle decoded no step"
        assert _stream(got) == _stream(want)
        assert got_reward == want_reward


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampled_stream_and_log_probs_bitwise(instances, seed):
    for instance in instances:
        (got, _), (want, _) = _episode_pair(instance, greedy=False, seed=seed)
        assert _stream(got) == _stream(want)


def test_log_prob_of_bitwise_on_every_candidate(instances):
    instance = instances[0]
    net = _net(instance)
    policy, serial = TASNetPolicy(net), SerialTASNetPolicy(net)
    env = SelectionEnv(instance, InsertionSolver())
    state = env.reset()
    policy.begin_episode(instance)
    serial.begin_episode(instance)
    checked = 0
    with nn.no_grad():
        while not state.done:
            for worker_id in state.candidates.workers_with_candidates():
                for task_id in state.candidates.worker_candidates(worker_id):
                    got = policy.log_prob_of(state, worker_id, task_id)
                    want = serial.log_prob_of(state, worker_id, task_id)
                    assert got.data.tobytes() == want.data.tobytes()
                    checked += 1
            action = serial.act(state)
            state, _, _ = env.step(action.worker_id, action.task_id)
    assert checked > 0


def test_imitation_gradients_match_oracle(instances):
    """Behaviour-cloning loss over a teacher episode: same gradients."""
    instance = instances[1]
    grads = []
    for make in (TASNetPolicy, SerialTASNetPolicy):
        policy = make(_net(instance))
        teacher = RatioSelectionRule()
        env = SelectionEnv(instance, InsertionSolver())
        state = env.reset()
        policy.begin_episode(instance)
        loss = None
        while not state.done:
            target = teacher.act(state)
            log_prob = policy.log_prob_of(state, target.worker_id,
                                          target.task_id)
            loss = -log_prob if loss is None else loss - log_prob
            state, _, _ = env.step(target.worker_id, target.task_id)
        loss.backward()
        grads.append([p.grad.copy() for p in policy.parameters()])
    for got, want in zip(*grads):
        # Relative to each tensor's scale: single entries that cancel to
        # ~1e-3 of their neighbours keep only the absolute rounding.
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
