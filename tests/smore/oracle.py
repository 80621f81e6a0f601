"""Test oracles: the per-state TASNet forward and a trainer built on it.

The library runs every decision through one batched two-stage forward
(``TASNetPolicy._forward``) driven by one lock-step runner.  The
reference it is pinned against lives here:

* ``SerialTASNetPolicy`` scores one state on its own through the
  per-state module forwards (``WorkerSelection.forward``,
  ``TaskSelection.forward``): no padding, no assigned-embedding bank, no
  batch companions.
* ``run_serial_episode`` is the per-episode loop over it.
* ``PerInstanceTrainer`` decodes every rollout of a REINFORCE iteration
  with that loop, one instance and one rollout at a time.  Seeds are
  drawn from the trainer rng in the same instance-major order as
  ``TASNetTrainer``, so the sampled action streams, and therefore the
  mean rewards, must match the production trainer bitwise; parameters
  agree to BLAS-reassociation tolerance.
"""

import numpy as np

from repro import nn
from repro.smore import TASNetTrainer
from repro.smore.critic import critic_features
from repro.smore.policy import (ActionRecord, _choose,
                                sensing_task_features, worker_travel_grid)


class SerialTASNetPolicy:
    """The two-stage decision for one state of one instance."""

    def __init__(self, net):
        self.net = net
        self._instance = None

    def begin_episode(self, instance) -> None:
        self._instance = instance
        grids = np.stack(
            [worker_travel_grid(instance, w) for w in instance.workers])
        self._task_emb = self.net.task_encoder(sensing_task_features(instance))
        self._worker_emb = self.net.worker_encoder(grids)
        self._cand_keys = self.net.task_selection.precompute_keys(
            self._task_emb)
        self._task_mean = nn.ops.mean(self._task_emb, axis=0)
        self._worker_ids = [w.worker_id for w in instance.workers]
        self._task_index = {s.task_id: i
                            for i, s in enumerate(instance.sensing_tasks)}

    def _assigned_embedding_mean(self, assigned) -> nn.Tensor:
        if not assigned:
            return nn.Tensor(np.zeros(self.net.config.d_model))
        indices = np.array([self._task_index[t.task_id] for t in assigned])
        return nn.ops.mean(nn.ops.gather_rows(self._task_emb, indices),
                           axis=0)

    def _worker_stage(self, state, budget_norm):
        """Stage 1: (log-probs over workers, h_g)."""
        rows = []
        for idx, worker_id in enumerate(self._worker_ids):
            mean_assigned = self._assigned_embedding_mean(
                state.assignments[worker_id].assigned)
            rows.append(nn.ops.concat([mean_assigned, self._worker_emb[idx]]))
        feasible = set(state.feasible_worker_ids())
        mask = np.array([w not in feasible for w in self._worker_ids])
        if mask.all():
            raise RuntimeError("no worker has feasible candidates")
        return self.net.worker_selection(nn.ops.stack(rows), budget_norm,
                                         mask)

    def _task_stage(self, state, worker_id, worker_idx, budget_norm, h_g):
        """Stage 2 for one worker: (log-probs, task id order)."""
        candidates = state.candidates.worker_candidates(worker_id)
        task_ids = sorted(candidates)
        delta_in = np.array([candidates[t].delta_incentive for t in task_ids])
        delta_phi = np.array([
            state.coverage.gain(self._instance.sensing_task(t))
            for t in task_ids])
        cand_indices = np.array([self._task_index[t] for t in task_ids])
        assigned = state.assignments[worker_id].assigned
        assigned_emb = None
        if assigned:
            idx = np.array([self._task_index[t.task_id] for t in assigned])
            assigned_emb = nn.ops.gather_rows(self._task_emb, idx)
        task_logp = self.net.task_selection(
            self._worker_emb[worker_idx], assigned_emb, budget_norm, h_g,
            self._task_mean, self._cand_keys, cand_indices, delta_phi,
            delta_in)
        return task_logp, task_ids

    def _budget_norm(self, state) -> float:
        return state.budget_rest / max(self._instance.budget, 1e-9)

    def act(self, state, greedy=True, rng=None) -> ActionRecord:
        budget_norm = self._budget_norm(state)
        worker_logp, h_g = self._worker_stage(state, budget_norm)
        worker_idx = _choose(worker_logp, greedy, rng)
        worker_id = self._worker_ids[worker_idx]
        task_logp, task_ids = self._task_stage(
            state, worker_id, worker_idx, budget_norm, h_g)
        task_idx = _choose(task_logp, greedy, rng)
        return ActionRecord(worker_id, task_ids[task_idx],
                            worker_logp[worker_idx] + task_logp[task_idx])

    def log_prob_of(self, state, worker_id, task_id) -> nn.Tensor:
        budget_norm = self._budget_norm(state)
        worker_logp, h_g = self._worker_stage(state, budget_norm)
        worker_idx = self._worker_ids.index(worker_id)
        task_logp, task_ids = self._task_stage(
            state, worker_id, worker_idx, budget_norm, h_g)
        return worker_logp[worker_idx] + task_logp[task_ids.index(task_id)]

    def parameters(self):
        return self.net.parameters()


def run_serial_episode(env, policy, greedy=True, rng=None,
                       record_actions=False):
    """One episode, one ``policy.act`` per step: (state, reward, records)."""
    state = env.reset()
    policy.begin_episode(env.instance)
    total_reward = 0.0
    records = []
    while not state.done:
        action = policy.act(state, greedy=greedy, rng=rng)
        state, reward, _ = env.step(action.worker_id, action.task_id)
        total_reward += reward
        if record_actions:
            records.append(action)
    return state, total_reward, records


class PerInstanceTrainer(TASNetTrainer):
    """TASNetTrainer decoding each rollout with the per-state oracle."""

    def _rollouts(self, batch_instances):
        serial = SerialTASNetPolicy(self.policy.net)
        samples = []
        for instance in batch_instances:
            env = self._env(instance)
            features = critic_features(instance, env.reset())
            seeds = self.rng.integers(
                0, 2**63 - 1, size=self.config.rollouts_per_instance)
            for seed in seeds:
                state, _, records = run_serial_episode(
                    env, serial, greedy=False,
                    rng=np.random.default_rng(int(seed)),
                    record_actions=True)
                log_prob_sum = None
                for record in records:
                    log_prob_sum = (record.log_prob if log_prob_sum is None
                                    else log_prob_sum + record.log_prob)
                samples.append((state.phi(), log_prob_sum, features,
                                len(records), instance))
        return samples
