"""Policy wrappers that drive TASNet over the selection MDP.

:class:`TASNetPolicy` featurises :class:`~repro.smore.state.SelectionState`
objects and runs the two-stage decision (worker then task) for one state
or a batch of them through one forward; the static worker and
sensing-task embeddings are computed once per episode and reused across
steps — gradients still flow through every use during training.

:class:`FlatSelectionPolicy` implements the "w/o TASNet" ablation of
Figure 5: a single-stage pointer that scores all feasible (worker, task)
pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..core.instance import USMDWInstance
from ..core.packed import RaggedRows
from .state import SelectionState
from .tasnet import TASNet, TASNetConfig

__all__ = ["ActionRecord", "TASNetPolicy",
           "FlatSelectionNet", "FlatSelectionPolicy", "worker_travel_grid",
           "sensing_task_features"]


def worker_travel_grid(instance: USMDWInstance, worker) -> np.ndarray:
    """Travel-information matrix of Section IV-C (normalised to [0, 1]).

    Grid cells get 1 / 2 / 3 for origin / destination / travel tasks;
    travel tasks overwrite endpoints on collision, matching the paper's
    priority ordering of the assignment statement.
    """
    grid = instance.coverage.grid
    matrix = np.zeros((grid.nx, grid.ny))
    oi, oj = grid.cell_of(worker.origin)
    matrix[oi, oj] = 1.0
    di, dj = grid.cell_of(worker.destination)
    matrix[di, dj] = 2.0
    for task in worker.travel_tasks:
        ti, tj = grid.cell_of(task.location)
        matrix[ti, tj] = 3.0
    return matrix / 3.0


def _task_rows(instance: USMDWInstance) -> np.ndarray:
    """Row of each candidate-table column (tasks by ascending id) in the
    instance's task order, which the task embeddings follow."""
    return np.argsort([s.task_id for s in instance.sensing_tasks],
                      kind="stable")


def sensing_task_features(instance: USMDWInstance) -> np.ndarray:
    """Per-task (x, y, tw_start, tw_end), normalised by region / time span."""
    region = instance.coverage.grid.region
    span = instance.coverage.time_span
    rows = [
        [task.location.x / region.width, task.location.y / region.height,
         task.tw_start / span, task.tw_end / span]
        for task in instance.sensing_tasks
    ]
    return np.asarray(rows).reshape(len(instance.sensing_tasks), 4)


@dataclass
class ActionRecord:
    """One decision: the pair picked and its log-probability tensor."""

    worker_id: int
    task_id: int
    log_prob: nn.Tensor


@dataclass
class _InstanceStatics:
    """One instance's static encodings (everything fixed for an episode).

    Depends only on the instance and the network parameters, so a warm
    serving engine can keep it resident across requests
    (:attr:`TASNetPolicy.statics_cache`).
    """

    worker_emb: nn.Tensor        # (n_w, d)
    task_emb: nn.Tensor          # (n_s, d)
    cand_keys: nn.Tensor         # (n_s, d) static pointer keys
    task_mean: nn.Tensor         # (d,)
    worker_ids: list[int]
    task_index: dict[int, int]
    task_rows: np.ndarray        # (n_s,) embedding row of each table column


@dataclass
class _MultiEpisodeStatics:
    """Static encodings for B heterogeneous instances, flat-concatenated.

    Each instance is encoded on its own (a per-instance loop, so its
    encoder outputs do not depend on its batch companions); the
    per-instance matrices are concatenated along axis 0 and addressed as
    ``offsets[i] + local index`` through the ``workers`` / ``tasks``
    ragged views.  Gradients flow back through the concat into every
    instance's encoder graph.
    """

    instances: list
    worker_ids: list[list[int]]
    task_index: list[dict[int, int]]
    task_rows: list[np.ndarray]
    worker_emb: nn.Tensor        # (sum n_w, d)
    task_emb: nn.Tensor          # (sum n_s, d)
    cand_keys: nn.Tensor         # (sum n_s, d) static pointer keys
    task_mean: nn.Tensor         # (B, d)
    workers: RaggedRows
    tasks: RaggedRows
    worker_pad_idx: np.ndarray   # (B, W_max) flat rows into worker_emb
    worker_pad_mask: np.ndarray  # (B, W_max) True on padded slots


def _choose(log_probs, greedy: bool,
            rng: np.random.Generator | None) -> int:
    """Argmax / sample an index from log-probs (Tensor or ndarray)."""
    data = log_probs.data if isinstance(log_probs, nn.Tensor) \
        else np.asarray(log_probs)
    probs = np.exp(data)
    if greedy:
        return int(np.argmax(probs))
    if rng is None:
        # A silently created fresh generator here would make sampled
        # rollouts irreproducible; the caller must own the randomness.
        raise ValueError(
            "sampled decoding (greedy=False) requires an explicit rng; "
            "pass rng=np.random.default_rng(seed)")
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


#: ``instance_idxs`` of a single state on the episode's instance.
_ONE_STATE = np.zeros(1, dtype=np.intp)


def _extract_log_probs(worker_logp: nn.Tensor, worker_idxs,
                       task_logp: nn.Tensor, task_idxs) -> list[nn.Tensor]:
    """Per-rollout action log-probs from the two stage matrices.

    One fancy-indexed gather per stage plus one vector add replaces the
    per-rollout ``worker_logp[k, w] + task_logp[k, t]`` chains — K scalar
    graph nodes instead of 3K per step.  Pure gathers and an elementwise
    add, so every scalar is bit-identical to the per-rollout expression.
    """
    rows = np.arange(len(worker_idxs))
    step_logp = worker_logp[rows, np.asarray(worker_idxs, dtype=np.intp)] \
        + task_logp[rows, np.asarray(task_idxs, dtype=np.intp)]
    return [step_logp[k] for k in range(len(worker_idxs))]


class TASNetPolicy:
    """Featurisation + two-stage decoding over the selection MDP.

    :meth:`begin_episodes` encodes the statics of B instances; every
    decision then runs through one batched two-stage forward
    (:meth:`_forward`) over any mix of states of those instances.  A
    single state (:meth:`act`, :meth:`log_prob_of`) is the K=1 case of
    that forward and :meth:`begin_episode` the B=1 case of the encoding,
    so a rollout decodes the same actions alone or among batch companions
    (see :class:`repro.smore.batch.MultiInstanceRunner`).
    """

    def __init__(self, net: TASNet):
        self.net = net
        #: Optional store with ``get(instance)`` (the statics or None) and
        #: ``put(instance, statics)``, installed by a serving engine with
        #: frozen weights (:class:`~repro.serve.WarmEngine`); None
        #: (default) re-encodes per episode, which training requires:
        #: cached statics are only sound while the weights do not change,
        #: and they are produced under ``nn.no_grad()``.
        self.statics_cache = None
        # Per-run decode state: the begin_episodes statics and the
        # assigned-embedding bank of _assigned_bank_rows.
        self.end_episodes()

    # ------------------------------------------------------------------ #
    def _instance_statics(self, instance: USMDWInstance) -> _InstanceStatics:
        """Encode (or recall) everything that stays fixed for an episode.

        With a :attr:`statics_cache` installed, repeat episodes on the
        same instance object skip the static encoder pass entirely — the
        cached tensors are the very objects the cold pass produced, so
        downstream decoding is bit-identical.
        """
        cache = self.statics_cache
        if cache is not None:
            cached = cache.get(instance)
            if cached is not None:
                return cached
        grids = np.stack(
            [worker_travel_grid(instance, w) for w in instance.workers])
        task_emb = self.net.task_encoder(sensing_task_features(instance))
        statics = _InstanceStatics(
            worker_emb=self.net.worker_encoder(grids),
            task_emb=task_emb,
            cand_keys=self.net.task_selection.precompute_keys(task_emb),
            task_mean=nn.ops.mean(task_emb, axis=0),
            worker_ids=[w.worker_id for w in instance.workers],
            task_index={s.task_id: i
                        for i, s in enumerate(instance.sensing_tasks)},
            task_rows=_task_rows(instance))
        if cache is not None:
            cache.put(instance, statics)
        return statics

    def begin_episode(self, instance: USMDWInstance) -> None:
        """Encode one instance's statics: ``begin_episodes([instance])``."""
        self.begin_episodes([instance])

    def begin_episodes(self, instances) -> None:
        """Encode the statics of B instances for one decode run.

        Rollouts of *different* instances then share one two-stage
        forward per step — :meth:`act_batch` with ``instance_idxs``.
        Each instance is encoded on its own, so its embeddings do not
        depend on its batch companions and a serving engine's statics
        cache can recall them whole.
        """
        instances = list(instances)
        if not instances:
            raise ValueError("begin_episodes needs at least one instance")
        self.end_episodes()
        worker_embs, task_embs, cand_keys, task_means = [], [], [], []
        worker_ids, task_index, task_rows = [], [], []
        for instance in instances:
            statics = self._instance_statics(instance)
            worker_embs.append(statics.worker_emb)
            task_embs.append(statics.task_emb)
            cand_keys.append(statics.cand_keys)
            task_means.append(statics.task_mean)
            worker_ids.append(statics.worker_ids)
            task_index.append(statics.task_index)
            task_rows.append(statics.task_rows)
        workers = RaggedRows([len(ids) for ids in worker_ids])
        tasks = RaggedRows([len(index) for index in task_index])
        pad_idx, pad_mask = workers.padded()
        self._multi = _MultiEpisodeStatics(
            instances=instances, worker_ids=worker_ids, task_index=task_index,
            task_rows=task_rows,
            worker_emb=nn.ops.concat(worker_embs, axis=0),
            task_emb=nn.ops.concat(task_embs, axis=0),
            cand_keys=nn.ops.concat(cand_keys, axis=0),
            task_mean=nn.ops.stack(task_means),
            workers=workers, tasks=tasks,
            worker_pad_idx=pad_idx, worker_pad_mask=pad_mask)

    def _require_episodes(self) -> _MultiEpisodeStatics:
        if self._multi is None:
            raise RuntimeError("call begin_episode(instance) or "
                               "begin_episodes(instances) first")
        return self._multi

    def end_episodes(self) -> None:
        """Drop the per-run decode state: the statics of
        :meth:`begin_episodes` and the assigned-embedding bank.

        Decode runners call this when a run ends, so no autograd graph
        built during the run outlives it.
        """
        self._multi: _MultiEpisodeStatics | None = None
        self._bank: nn.Tensor | None = None
        self._bank_counts: np.ndarray | None = None
        self._bank_slots: dict[int, tuple[object, int]] = {}

    # ------------------------------------------------------------------ #
    def _assigned_bank_rows(self, states, rows: list[list[int]], w: int,
                            task_emb: nn.Tensor) -> nn.Tensor:
        """Mean-assigned embeddings for K states x ``w`` worker slots.

        ``rows`` lists, state-major, the flat task-embedding row indices
        assigned to each (state, worker slot) pair.  Rather than gather
        and pool all K*w rows every step, a persistent bank tensor keeps
        one pooled row per pair and only the pairs whose assigned count
        changed since the previous call (one worker per rollout per step)
        are recomputed and scattered in.  Recomputed rows run the exact
        gather + masked-mean the full rebuild would, so the forward pass
        stays bit-identical; gradients flow into every step's use of a
        row through the :func:`~repro.nn.ops.scatter_rows` chain.

        Slots are keyed by state object identity (a strong reference is
        kept until :meth:`end_episodes`, so ids cannot be reused
        mid-run) — assigned sets only grow during an episode, so a
        count match implies unchanged contents.
        """
        d = self.net.config.d_model
        slots = np.empty(len(states), dtype=np.intp)
        for k, state in enumerate(states):
            entry = self._bank_slots.get(id(state))
            if entry is None:
                entry = (state, len(self._bank_slots))
                self._bank_slots[id(state)] = entry
            slots[k] = entry[1]
        capacity = len(self._bank_slots) * w
        if self._bank is None:
            self._bank = nn.Tensor(np.zeros((capacity, d)))
            self._bank_counts = np.zeros(capacity, dtype=np.intp)
        elif self._bank.shape[0] < capacity:
            grow = capacity - self._bank.shape[0]
            self._bank = nn.ops.concat(
                [self._bank, nn.Tensor(np.zeros((grow, d)))], axis=0)
            self._bank_counts = np.concatenate(
                [self._bank_counts, np.zeros(grow, dtype=np.intp)])
        counts = self._bank_counts
        changed_rows: list[int] = []
        changed_lists: list[list[int]] = []
        for k in range(len(states)):
            base_row = slots[k] * w
            for j in range(w):
                row = rows[k * w + j]
                r = base_row + j
                if counts[r] != len(row):
                    counts[r] = len(row)
                    changed_rows.append(r)
                    changed_lists.append(row)
        if changed_rows:
            a_max = max(len(row) for row in changed_lists)
            idx = np.zeros((len(changed_rows), a_max), dtype=np.intp)
            mask = np.ones((len(changed_rows), a_max), dtype=bool)
            for i, row in enumerate(changed_lists):
                idx[i, :len(row)] = row
                mask[i, :len(row)] = False
            gathered = nn.ops.gather_rows(task_emb, idx)
            new_rows = nn.ops.masked_mean(gathered, mask[:, :, None], axis=1)
            self._bank = nn.ops.scatter_rows(
                self._bank, changed_rows, new_rows)
        flat = slots[:, None] * w + np.arange(w, dtype=np.intp)[None, :]
        return nn.ops.gather_rows(self._bank, flat)

    def _padded_worker_states(self, states, inst_idx,
                              multi: _MultiEpisodeStatics
                              ) -> tuple[nn.Tensor, np.ndarray]:
        """Padded worker-state embeddings across instances: (K, W_max, 2d).

        Returns the embeddings plus the (K, W_max) padding mask.  Padded
        slots gather flat row 0 as a placeholder; the worker-selection
        forward masks them out of every pooling, glimpse, and pointer
        term, so they contribute nothing forward and receive exactly zero
        gradient through the gather's scatter-add backward.
        """
        pad_idx = multi.worker_pad_idx[inst_idx]        # (K, W_max)
        pad_mask = multi.worker_pad_mask[inst_idx]      # (K, W_max)
        w_max = pad_idx.shape[1]
        rows: list[list[int]] = []
        for state, i in zip(states, inst_idx):
            task_index = multi.task_index[i]
            base = int(multi.tasks.offsets[i])
            for worker_id in multi.worker_ids[i]:
                rows.append([base + task_index[t.task_id]
                             for t in state.assignments[worker_id].assigned])
            rows.extend([[]] * (w_max - len(multi.worker_ids[i])))
        mean_assigned = self._assigned_bank_rows(
            states, rows, w_max, multi.task_emb)
        worker_emb = nn.ops.gather_rows(multi.worker_emb, pad_idx)
        return nn.ops.concat([mean_assigned, worker_emb], axis=2), pad_mask

    def _worker_selection(self, states, inst_idx, budget_norms: np.ndarray,
                          multi: _MultiEpisodeStatics
                          ) -> tuple[nn.Tensor, nn.Tensor]:
        """Stage 1: ((K, W_max) log-probs over workers, (K, 2d) h_g)."""
        worker_states, pad_mask = self._padded_worker_states(
            states, inst_idx, multi)
        mask = pad_mask.copy()
        for k, state in enumerate(states):
            live = state.candidates.mask.any(axis=1)
            mask[k, :len(live)] = ~live
            if mask[k].all():
                raise RuntimeError("no worker has feasible candidates")
        return self.net.worker_selection.forward_batch(
            worker_states, budget_norms, mask, pad_mask=pad_mask)

    def _task_selection(self, states, inst_idx, worker_ids, worker_idxs,
                        budget_norms: np.ndarray, h_g: nn.Tensor,
                        multi: _MultiEpisodeStatics
                        ) -> tuple[nn.Tensor, list[list[int]]]:
        """Stage 2: ((K, m_max) padded log-probs, task-id orders).

        State k's candidates are the live columns of its table row
        ``worker_idxs[k]`` (table rows are the instance's workers in
        order); every task index is offset into the flat cross-instance
        embedding matrices of state k's instance ``inst_idx[k]``.
        """
        num_states = len(states)
        task_id_lists: list[list[int]] = []
        delta_in_rows, delta_phi_rows = [], []
        cand_rows: list[np.ndarray] = []
        assigned_rows: list[list[int]] = []
        for state, worker_id, row, i in zip(states, worker_ids, worker_idxs,
                                            inst_idx):
            table = state.candidates
            task_index = multi.task_index[i]
            base = int(multi.tasks.offsets[i])
            cols = np.flatnonzero(table.mask[row])
            task_id_lists.append(table.task_ids[cols].tolist())
            delta_in_rows.append(table.delta_incentive[row, cols])
            delta_phi_rows.append(state.coverage.gain_many(table.bins[cols]))
            cand_rows.append(base + multi.task_rows[i][cols])
            assigned_rows.append(
                [base + task_index[t.task_id]
                 for t in state.assignments[worker_id].assigned])

        delta_phi, cand_mask = nn.ops.pad_stack(delta_phi_rows)
        delta_in, _ = nn.ops.pad_stack(delta_in_rows)
        m_max = delta_phi.shape[1]
        cand_idx = np.zeros((num_states, m_max), dtype=np.intp)
        for k, row in enumerate(cand_rows):
            cand_idx[k, :len(row)] = row

        a_max = max(len(row) for row in assigned_rows)
        assigned_emb, assigned_mask = None, None
        if a_max:
            a_idx = np.zeros((num_states, a_max), dtype=np.intp)
            assigned_mask = np.ones((num_states, a_max), dtype=bool)
            for k, row in enumerate(assigned_rows):
                a_idx[k, :len(row)] = row
                assigned_mask[k, :len(row)] = False
            assigned_emb = nn.ops.gather_rows(multi.task_emb, a_idx)

        flat_rows = (multi.workers.offsets[inst_idx]
                     + np.asarray(worker_idxs, dtype=np.intp))
        worker_emb = nn.ops.gather_rows(multi.worker_emb, flat_rows)
        task_mean = nn.ops.gather_rows(multi.task_mean, inst_idx)
        task_logp = self.net.task_selection.forward_batch(
            worker_emb, assigned_emb, assigned_mask, budget_norms, h_g,
            task_mean, multi.cand_keys, cand_idx, cand_mask, delta_phi,
            delta_in)
        return task_logp, task_id_lists

    def _forward(self, states, inst_idx: np.ndarray, greedy, rngs,
                 action: tuple[int, int] | None = None
                 ) -> list[ActionRecord]:
        """The two-stage forward over states k of instances ``inst_idx[k]``.

        The one TASNet forward every decision runs through.  State k
        picks its worker, then its task, with ``greedy[k]`` (argmax) or
        by drawing from its own ``rngs[k]`` in that order, so its actions
        never depend on batch companions.  ``action`` (one state only)
        forces that ``(worker_id, task_id)`` instead of choosing — the
        path of :meth:`log_prob_of`.
        """
        multi = self._require_episodes()
        num_states = len(states)
        budget_norms = np.array(
            [s.budget_rest / max(multi.instances[i].budget, 1e-9)
             for s, i in zip(states, inst_idx)])

        worker_logp, h_g = self._worker_selection(
            states, inst_idx, budget_norms, multi)
        if action is None:
            # Slice each row to its instance's real worker count: the
            # padded tail holds exact zero probability either way, and the
            # slice keeps _choose's draw independent of the padding.
            worker_idxs = [
                _choose(worker_logp.data[k, :multi.workers.lengths[i]],
                        greedy[k], rngs[k])
                for k, i in enumerate(inst_idx)]
        else:
            worker_idxs = [multi.worker_ids[inst_idx[0]].index(action[0])]
        worker_ids = [multi.worker_ids[i][w]
                      for i, w in zip(inst_idx, worker_idxs)]

        task_logp, task_id_lists = self._task_selection(
            states, inst_idx, worker_ids, worker_idxs, budget_norms, h_g,
            multi)
        if action is None:
            task_idxs = [
                _choose(task_logp.data[k, :len(task_id_lists[k])],
                        greedy[k], rngs[k])
                for k in range(num_states)]
        else:
            task_idxs = [task_id_lists[0].index(action[1])]
        log_probs = _extract_log_probs(
            worker_logp, worker_idxs, task_logp, task_idxs)
        return [
            ActionRecord(worker_ids[k], task_id_lists[k][task_idxs[k]],
                         log_probs[k])
            for k in range(num_states)]

    def act(self, state: SelectionState, greedy: bool = True,
            rng: np.random.Generator | None = None) -> ActionRecord:
        """Run both selection stages on one state of the episode's
        instance (the K=1 case of :meth:`act_batch`)."""
        return self._forward([state], _ONE_STATE, [greedy], [rng])[0]

    def log_prob_of(self, state: SelectionState, worker_id: int,
                    task_id: int) -> nn.Tensor:
        """Log-probability the policy assigns to a given (worker, task) pair.

        Used by imitation pretraining to evaluate teacher actions.
        """
        return self._forward([state], _ONE_STATE, [True], [None],
                             action=(worker_id, task_id))[0].log_prob

    def act_batch(self, states, greedy=True, rngs=None,
                  instance_idxs=None) -> list[ActionRecord]:
        """Decode one action for each of K concurrent rollouts.

        State k belongs to ``instances[instance_idxs[k]]`` of the last
        :meth:`begin_episodes` call; without ``instance_idxs`` every
        state is on instance 0.  The whole batch shares one two-stage
        forward, padded to the widest instance.  ``greedy`` is one bool
        for the whole batch or a per-rollout sequence; ``rngs`` supplies
        each sampled rollout's own generator, consumed in the same
        worker-then-task order as :meth:`act`, so a rollout's random
        stream is independent of its batch companions.
        """
        states = list(states)
        if not states:
            return []
        num_states = len(states)
        inst_idx = (np.zeros(num_states, dtype=np.intp)
                    if instance_idxs is None
                    else np.asarray(instance_idxs, dtype=np.intp))
        if inst_idx.shape != (num_states,):
            raise ValueError("instance_idxs must give one index per state")
        greedy_flags = [greedy] * num_states if isinstance(greedy, bool) \
            else list(greedy)
        rng_list = [None] * num_states if rngs is None else list(rngs)
        return self._forward(states, inst_idx, greedy_flags, rng_list)

    # ------------------------------------------------------------------ #
    def parameters(self):
        return self.net.parameters()


class FlatSelectionNet(nn.Module):
    """Single-stage scorer for the "w/o TASNet" ablation.

    Every feasible (worker, task) pair is embedded as ``[w_j; s_i]`` and
    scored by one pointer over the flat candidate list — the strategy
    Section IV-B argues is hard to learn because of the |W| x |S| action
    space and which, per the ablation's definition, has neither the
    two-stage decomposition nor TASNet's heuristic-signal fusion.
    """

    def __init__(self, config: TASNetConfig, grid_nx: int, grid_ny: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        from .tasnet import SensingTaskEncoder, WorkerEncoder

        rng = rng or np.random.default_rng()
        self.config = config
        d = config.d_model
        self.worker_encoder = WorkerEncoder(config, grid_nx, grid_ny, rng)
        self.task_encoder = SensingTaskEncoder(config, rng)
        self.budget_fc = nn.Linear(1, d, rng=rng)
        self.pointer = nn.PointerAttention(d, 2 * d, d_key=d,
                                           clip=config.clip, rng=rng)


class FlatSelectionPolicy:
    """Episode driver for :class:`FlatSelectionNet`."""

    def __init__(self, net: FlatSelectionNet):
        self.net = net
        self._instance: USMDWInstance | None = None
        self._worker_emb: nn.Tensor | None = None
        self._task_emb: nn.Tensor | None = None
        self._task_rows: np.ndarray | None = None

    def begin_episode(self, instance: USMDWInstance) -> None:
        self._instance = instance
        grids = np.stack([worker_travel_grid(instance, w) for w in instance.workers])
        self._worker_emb = self.net.worker_encoder(grids)
        self._task_emb = self.net.task_encoder(sensing_task_features(instance))
        self._task_rows = _task_rows(instance)

    def _pair_log_probs(self, state: SelectionState
                        ) -> tuple[nn.Tensor, list[tuple[int, int]]]:
        instance = self._instance
        if instance is None:
            raise RuntimeError("call begin_episode(instance) first")
        budget_norm = state.budget_rest / max(instance.budget, 1e-9)

        table = state.candidates
        pairs: list[tuple[int, int]] = []
        key_rows = []
        for row in table.live_rows().tolist():
            worker_id = table.workers[row].worker_id
            for col in np.flatnonzero(table.mask[row]).tolist():
                key_rows.append(nn.ops.concat(
                    [self._worker_emb[row],
                     self._task_emb[int(self._task_rows[col])]]))
                pairs.append((worker_id, int(table.task_ids[col])))
        keys = nn.ops.stack(key_rows)
        query = self.net.budget_fc(nn.Tensor(np.array([budget_norm])))
        return nn.ops.log_softmax(self.net.pointer(query, keys)), pairs

    def act(self, state: SelectionState, greedy: bool = True,
            rng: np.random.Generator | None = None) -> ActionRecord:
        log_probs, pairs = self._pair_log_probs(state)
        choice = _choose(log_probs, greedy, rng)
        worker_id, task_id = pairs[choice]
        return ActionRecord(worker_id, task_id, log_probs[choice])

    def log_prob_of(self, state: SelectionState, worker_id: int,
                    task_id: int) -> nn.Tensor:
        log_probs, pairs = self._pair_log_probs(state)
        return log_probs[pairs.index((worker_id, task_id))]

    def parameters(self):
        return self.net.parameters()
