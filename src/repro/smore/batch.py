"""Batched decode engine: K rollouts of one instance in lock-step.

Sample-and-select-best inference and multi-rollout REINFORCE both decode
the *same* instance many times.  The serial path loops ``run_episode``;
this module instead advances all K episodes together, so each decoding
step costs one batched two-stage TASNet forward instead of K serial
forwards.  The static encoders (worker grid, sensing-task set) run once
per instance — :meth:`TASNetPolicy.begin_episode` — and their embeddings
are shared by every rollout in the batch.

Determinism contract: each rollout owns its spec ``(greedy, rng)`` and
its generator is consumed in exactly the serial order (worker choice,
then task choice, per step), so a batched rollout reproduces the serial
rollout with the same seed bit-for-bit at the action level.  Episodes
that finish early simply drop out of the active set; the stragglers keep
stepping in ever-smaller batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ReproError
from ..obs.profile import scope as profile_scope
from .env import SelectionEnv
from .state import SelectionState

__all__ = ["BatchedEpisodeRunner", "EpisodeResult", "MultiInstanceRunner",
           "BatchAdmissionError", "BatchFull", "DeadlineExpired"]


class BatchAdmissionError(ReproError):
    """A request could not be admitted into a decode batch."""


class BatchFull(BatchAdmissionError):
    """The batch already holds its maximum number of requests."""


class DeadlineExpired(BatchAdmissionError):
    """The request's deadline passed before it could be admitted."""


def _end_run(policy) -> None:
    """Drop the policy's per-run decode state (``end_episodes``): once a
    run returns, only its results keep its autograd graph alive."""
    end_episodes = getattr(policy, "end_episodes", None)
    if end_episodes is not None:
        end_episodes()


@dataclass
class EpisodeResult:
    """One finished rollout out of a batch."""

    state: SelectionState
    total_reward: float
    records: list = field(default_factory=list)


class BatchedEpisodeRunner:
    """Run K episodes of ``policy`` on ``env`` in lock-step.

    Policies exposing :meth:`act_batch` (TASNet) get one batched forward
    per decoding step; policies without it (selection rules, the flat
    ablation policy) fall back to per-state :meth:`act` calls inside the
    same lock-step loop, so the runner is a drop-in driver for every
    policy type.
    """

    def __init__(self, env: SelectionEnv, policy):
        self.env = env
        self.policy = policy

    def run(self, specs, record_actions: bool = False) -> list[EpisodeResult]:
        """Roll one episode per spec; a spec is ``(greedy, rng)``.

        ``rng`` may be ``None`` (greedy rollouts draw nothing), a seed,
        or a ready :class:`numpy.random.Generator`.
        """
        specs = list(specs)
        if not specs:
            return []
        greedy_flags, rngs = [], []
        for use_greedy, rng in specs:
            greedy_flags.append(bool(use_greedy))
            if rng is not None and not isinstance(rng, np.random.Generator):
                rng = np.random.default_rng(rng)
            rngs.append(rng)

        with profile_scope("decode"):
            try:
                return self._run(specs, greedy_flags, rngs, record_actions)
            finally:
                _end_run(self.policy)

    def _run(self, specs, greedy_flags, rngs,
             record_actions: bool) -> list[EpisodeResult]:
        states = [self.env.reset() for _ in specs]
        self.policy.begin_episode(self.env.instance)
        results = [EpisodeResult(state=s, total_reward=0.0) for s in states]

        act_batch = getattr(self.policy, "act_batch", None)
        active = [k for k, s in enumerate(states) if not s.done]
        while active:
            if act_batch is not None:
                actions = act_batch(
                    [states[k] for k in active],
                    greedy=[greedy_flags[k] for k in active],
                    rngs=[rngs[k] for k in active])
            else:
                actions = [
                    self.policy.act(states[k], greedy=greedy_flags[k],
                                    rng=rngs[k])
                    for k in active]
            for k, action in zip(active, actions):
                _, reward, _ = self.env.step_state(
                    states[k], action.worker_id, action.task_id)
                results[k].total_reward += reward
                if record_actions:
                    results[k].records.append(action)
            active = [k for k in active if not states[k].done]
        return results


class MultiInstanceRunner:
    """Run rollouts over B heterogeneous instances in one lock-step batch.

    ``envs`` holds one :class:`SelectionEnv` per instance and each env
    gets its own rollout schedule (a list of ``(greedy, rng)`` specs, the
    same normalisation as :meth:`BatchedEpisodeRunner.run`).  Policies
    exposing :meth:`begin_episodes` and ``act_batch(...,
    instance_idxs=...)`` (TASNet) decode every active rollout of every
    instance through a single two-stage forward per step; other policies
    fall back to one :class:`BatchedEpisodeRunner` per env.  Either way
    each rollout consumes its own generator in the serial worker-then-task
    order, so results match per-instance decoding rollout-for-rollout.
    """

    def __init__(self, envs, policy):
        self.envs = list(envs)
        self.policy = policy
        self._admitted: list[list] = []

    # -- incremental submission ----------------------------------------- #
    def admit(self, env, specs) -> int:
        """Admit one env + its rollout specs into the next run; returns
        its slot index.

        The incremental counterpart of pre-assembling ``envs`` /
        ``specs_per_env``: a serving front-end admits requests one at a
        time as they arrive, then fires :meth:`run_admitted` once the
        batch closes.  ``run_admitted(...)`` is then exactly
        ``run([specs...])`` over the admitted slots, in admission order.
        """
        self.envs.append(env)
        self._admitted.append(list(specs))
        return len(self.envs) - 1

    def run_admitted(self, record_actions: bool = False
                     ) -> list[list[EpisodeResult]]:
        """Run the specs admitted via :meth:`admit` (one list per slot)."""
        specs_per_env, self._admitted = self._admitted, []
        return self.run(specs_per_env, record_actions)

    def run(self, specs_per_env,
            record_actions: bool = False) -> list[list[EpisodeResult]]:
        """Roll each env's specs; returns one result list per env."""
        specs_per_env = [list(specs) for specs in specs_per_env]
        if len(specs_per_env) != len(self.envs):
            raise ValueError(
                f"got {len(specs_per_env)} spec lists for {len(self.envs)} envs")
        if not any(specs_per_env):
            return [[] for _ in specs_per_env]
        if getattr(self.policy, "begin_episodes", None) is None:
            return [BatchedEpisodeRunner(env, self.policy).run(
                        specs, record_actions)
                    for env, specs in zip(self.envs, specs_per_env)]

        env_of, greedy_flags, rngs = [], [], []
        for e, specs in enumerate(specs_per_env):
            for use_greedy, rng in specs:
                env_of.append(e)
                greedy_flags.append(bool(use_greedy))
                if rng is not None and not isinstance(rng, np.random.Generator):
                    rng = np.random.default_rng(rng)
                rngs.append(rng)

        with profile_scope("decode"):
            try:
                return self._run(len(specs_per_env), env_of, greedy_flags,
                                 rngs, record_actions)
            finally:
                _end_run(self.policy)

    def _run(self, num_envs, env_of, greedy_flags, rngs,
             record_actions: bool) -> list[list[EpisodeResult]]:
        states = [self.envs[e].reset() for e in env_of]
        self.policy.begin_episodes([env.instance for env in self.envs])
        results = [EpisodeResult(state=s, total_reward=0.0) for s in states]

        active = [k for k, s in enumerate(states) if not s.done]
        while active:
            actions = self.policy.act_batch(
                [states[k] for k in active],
                greedy=[greedy_flags[k] for k in active],
                rngs=[rngs[k] for k in active],
                instance_idxs=[env_of[k] for k in active])
            for k, action in zip(active, actions):
                _, reward, _ = self.envs[env_of[k]].step_state(
                    states[k], action.worker_id, action.task_id)
                results[k].total_reward += reward
                if record_actions:
                    results[k].records.append(action)
            active = [k for k in active if not states[k].done]

        grouped: list[list[EpisodeResult]] = [[] for _ in range(num_envs)]
        for e, result in zip(env_of, results):
            grouped[e].append(result)
        return grouped
