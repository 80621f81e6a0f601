"""Test oracles: the per-state TASNet forward, the per-state episode
loops, and a trainer built on them.

The library runs every decision through one batched two-stage forward
(``TASNetPolicy._forward``) driven by one lock-step runner.  The
references it is pinned against live here:

* ``worker_selection_forward`` and ``task_selection_forward`` are the
  per-state forwards of the two selection modules: no padding, no
  assigned-embedding bank, no batch companions.
* ``SerialTASNetPolicy`` scores one state on its own through them.
* ``run_serial_episode`` is the per-episode loop over it.
* ``PerInstanceTrainer`` decodes every rollout of a REINFORCE iteration
  with that loop, one instance and one rollout at a time.  Seeds are
  drawn from the trainer rng in the same instance-major order as
  ``TASNetTrainer``, so the sampled action streams, and therefore the
  mean rewards, must match the production trainer bitwise; parameters
  agree to BLAS-reassociation tolerance.
* ``run_dynamic_episode`` is the per-state epoch loop of a streaming
  episode, SLO-tracker feed included.
* ``rebuild_table`` is the from-scratch candidate table of a streaming
  epoch, and ``RebuildDynamicEnv`` the dynamic env that rebuilds it at
  every epoch instead of sweeping only the arrivals and late workers.
"""

import numpy as np

from repro import nn
from repro.smore import DynamicSelectionEnv, TASNetTrainer
from repro.smore.candidates import CandidateTable
from repro.smore.critic import critic_features
from repro.smore.heuristics import soft_mask
from repro.smore.policy import (ActionRecord, _choose,
                                sensing_task_features, worker_travel_grid)

from .planes import live_worker_ids, pair_values, row_task_ids


def worker_selection_forward(module, worker_state_emb: nn.Tensor,
                             budget_norm: float,
                             mask: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
    """Return (log-probs over workers, group worker embedding h_g).

    ``module``: a ``WorkerSelection``.
    ``worker_state_emb``: (n_w, 2d) tensors  w~_j = [mean assigned; w_j].
    ``mask``: True for workers with no feasible candidate.
    """
    # Group state: h_g = MeanPool(MHA({w~})), h_c = [h_g; FC(B)].
    h_g = nn.ops.mean(module.group_mha(worker_state_emb), axis=0)
    budget_emb = module.budget_fc(nn.Tensor(np.array([budget_norm])))
    h_c = nn.ops.concat([h_g, budget_emb])

    # Glimpse: dot-product attention from h_c over worker states,
    # masked so unselectable workers contribute nothing.
    q = module.glimpse_q(h_c)                                   # (2d,)
    scores = nn.ops.matmul(worker_state_emb, q)                 # (n_w,)
    scores = nn.ops.mul(scores, 1.0 / np.sqrt(q.shape[0]))
    scores = nn.ops.masked_fill(scores, mask, -1e9)
    attn = nn.ops.softmax(scores)
    h_c_prime = nn.ops.matmul(attn, worker_state_emb)           # (2d,)

    logits = module.pointer(h_c_prime, worker_state_emb, mask=mask)
    return nn.ops.log_softmax(logits), h_g


def task_selection_forward(module, worker_emb: nn.Tensor,
                           assigned_emb: nn.Tensor | None,
                           budget_norm: float, h_g: nn.Tensor,
                           task_mean: nn.Tensor, key_table: nn.Tensor,
                           cand_idx: np.ndarray, delta_phi: np.ndarray,
                           delta_in: np.ndarray) -> nn.Tensor:
    """Return log-probs over the selected worker's candidate tasks.

    ``module``: a ``TaskSelection``.  ``key_table``: its
    ``precompute_keys`` output; ``cand_idx`` (m,) picks the rows of the
    worker's feasible tasks; ``delta_phi`` / ``delta_in``: the heuristic
    signals (m,).
    """
    d = worker_emb.shape[0]
    if assigned_emb is not None and assigned_emb.shape[0] > 0:
        attended = module.assigned_attn(assigned_emb)
        a_j = nn.ops.mean(attended, axis=0)
    else:
        a_j = nn.Tensor(np.zeros(d))
    budget_emb = module.budget_fc(nn.Tensor(np.array([budget_norm])))
    h_w = nn.ops.concat([a_j, worker_emb, budget_emb, h_g, task_mean])

    # Heuristic signals join the pointer keys (data fusion): the
    # trailing rows of w_k project them onto the precomputed part.
    signals = (np.stack([delta_phi, delta_in], axis=1)
               if module.use_heuristic_fusion else None)
    logits = module.pointer.forward_precomputed(h_w, key_table, cand_idx,
                                                extra=signals)

    # ...and modulate the logits through the soft mask (Equation 11).
    if module.use_soft_mask:
        mask_values = soft_mask(delta_phi, delta_in, lam=module.lam)
        logits = nn.ops.mul(logits, nn.Tensor(mask_values))
    return nn.ops.log_softmax(logits)


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
        feasible = set(live_worker_ids(state.candidates))
        mask = np.array([w not in feasible for w in self._worker_ids])
        if mask.all():
            raise RuntimeError("no worker has feasible candidates")
        return worker_selection_forward(self.net.worker_selection,
                                        nn.ops.stack(rows), budget_norm,
                                        mask)

    def _task_stage(self, state, worker_id, worker_idx, budget_norm, h_g):
        """Stage 2 for one worker: (log-probs, task id order)."""
        task_ids = row_task_ids(state.candidates, worker_id)
        delta_in = np.array([pair_values(state.candidates, worker_id, t)[0]
                             for t in task_ids])
        delta_phi = np.array([
            state.coverage.gain(self._instance.sensing_task(t))
            for t in task_ids])
        cand_indices = np.array([self._task_index[t] for t in task_ids])
        assigned = state.assignments[worker_id].assigned
        assigned_emb = None
        if assigned:
            idx = np.array([self._task_index[t.task_id] for t in assigned])
            assigned_emb = nn.ops.gather_rows(self._task_emb, idx)
        task_logp = task_selection_forward(
            self.net.task_selection, self._worker_emb[worker_idx], assigned_emb, budget_norm, h_g,
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


def run_dynamic_episode(env, policy, greedy: bool = True, rng=None,
                        tracker=None):
    """Roll one dynamic episode: select until the table drains, advance
    to the next event epoch, repeat; returns (state, total_reward).

    When given an SLO ``tracker``, the per-epoch loop feeds it on
    **simulation time**: every committed selection records ``ok`` and
    every expiry/dead-on-arrival records ``rejected`` at the epoch it
    happened, and each epoch's ``advance`` cost lands in the latency
    window (ms) — so the windowed rejection rate and epoch-latency
    percentiles track the arrival process, not wall clock.  Objective
    checks run at most once per epoch.  The tracker is passed, not
    installed: ``env.advance`` feeds an installed tracker itself, and
    this loop is the reference that feed is checked against.
    """
    state = env.reset()
    policy.begin_episode(env.instance)
    total_reward = 0.0
    selected_seen = rejected_seen = 0
    repair_seen = env.repair_time
    while True:
        while not state.candidates.empty:
            action = policy.act(state, greedy=greedy, rng=rng)
            state, reward, _ = env.step_state(
                state, action.worker_id, action.task_id)
            total_reward += reward
        if tracker is not None:
            for _ in range(len(state.selected) - selected_seen):
                tracker.record("ok", now=state.now, check=False)
            selected_seen = len(state.selected)
            for _ in range(len(state.rejected) - rejected_seen):
                tracker.record("rejected", now=state.now, check=False)
            rejected_seen = len(state.rejected)
            if env.repair_time > repair_seen:
                tracker.observe_latency(
                    (env.repair_time - repair_seen) * 1e3, now=state.now)
                repair_seen = env.repair_time
            tracker.maybe_check(state.now)
        if not env.advance(state):
            break
    return state, total_reward


def rebuild_table(env, state, table=None):
    """A dynamic state's candidate table built from scratch.

    Every active worker's row is one anchored sweep, at its lock, over
    the whole pool (``state.unselected``); a stranded worker (infeasible
    own trip) keeps an empty row; the order is the active workers'.
    Writes into ``table`` (a fresh one over the instance when None) and
    returns it.
    """
    instance = env.instance
    if table is None:
        table = CandidateTable(env.planner, env.incentives, instance.workers,
                               instance.sensing_tasks)
    pool = table._cols(state.unselected.values())
    table.mask[:] = False
    table.pool[:] = False
    table.pool[pool] = True
    table.order = [table.row_of[w] for w in state.active_workers]
    for worker_id in state.active_workers:
        route = env._committed_route(state, worker_id)
        if route is None:
            continue
        table.recompute_worker(
            instance.worker(worker_id), None, pool,
            state.assignments[worker_id].incentive, state.budget_rest,
            route.tasks, state.locks[worker_id])
    return table


class RebuildDynamicEnv(DynamicSelectionEnv):
    """The dynamic env with a from-scratch table rebuild at every epoch.

    Expiries, locks and arrivals are the production env's; only the
    epoch sweep is replaced, by :func:`rebuild_table`.  ``repair_time``
    times all of ``advance`` on both envs — expiries, lock updates,
    arrivals and the rebuild here, the sweep there — so a per-event
    ratio compares whole epochs.
    """

    def _sweep_epoch(self, state, joined, arrivals):
        for worker_id in joined:
            worker = self.instance.worker(worker_id)
            self.incentives.set_base_rtt(
                worker, self.planner.base_route(worker).route_travel_time)
        rebuild_table(self, state, state.candidates)


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
