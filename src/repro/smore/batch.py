"""The lock-step decode engine: every rollout of every solve and policy step.

:class:`MultiInstanceRunner` advances rollouts over B instances together.
With TASNet each decoding step costs one batched two-stage forward over
every active rollout; the static encoders run once per instance
(:meth:`TASNetPolicy.begin_episodes`) and are shared by its rollouts.
One rollout of one instance (B=1, K=1) is the degenerate case, so
greedy solves, sample-and-select-best, cross-instance batches and
REINFORCE iterations all decode through the same loop.

Determinism contract: each rollout owns its spec ``(greedy, rng)`` and
its generator is consumed in exactly the per-state order (worker choice,
then task choice, per step), so a rollout decodes the same actions
whatever its batch companions.  Episodes that finish early simply drop
out of the active set; the stragglers keep stepping in ever-smaller
batches.
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
    """K rollouts of one env: ``MultiInstanceRunner([env], policy)``.

    The one-instance spelling of :class:`MultiInstanceRunner`, kept for
    callers outside the library; :meth:`run` is exactly
    ``MultiInstanceRunner([env], policy).run([specs])[0]``.
    """

    def __init__(self, env: SelectionEnv, policy):
        self.env = env
        self.policy = policy

    def run(self, specs, record_actions: bool = False) -> list[EpisodeResult]:
        """Roll one episode per ``(greedy, rng)`` spec on the env."""
        return MultiInstanceRunner([self.env], self.policy).run(
            [specs], record_actions)[0]


class MultiInstanceRunner:
    """Run rollouts over B heterogeneous instances in one lock-step batch.

    ``envs`` holds one :class:`SelectionEnv` per instance and each env
    gets its own rollout schedule: a list of ``(greedy, rng)`` specs,
    where ``rng`` may be ``None`` (greedy rollouts draw nothing), a seed,
    or a ready :class:`numpy.random.Generator`.  Policies exposing
    :meth:`begin_episodes` and ``act_batch(..., instance_idxs=...)``
    (TASNet) decode every active rollout of every instance through a
    single two-stage forward per step.  Per-state policies (selection
    rules, the flat ablation policy) bind one instance at a time, so
    they run the same loop once per env with one :meth:`act` call per
    state.  Either way each rollout consumes its own generator in the
    worker-then-task order, so results match per-instance decoding
    rollout-for-rollout.
    """

    def __init__(self, envs, policy):
        self.envs = list(envs)
        self.policy = policy

    def run(self, specs_per_env,
            record_actions: bool = False) -> list[list[EpisodeResult]]:
        """Roll each env's specs; returns one result list per env."""
        specs_per_env = [list(specs) for specs in specs_per_env]
        if len(specs_per_env) != len(self.envs):
            raise ValueError(
                f"got {len(specs_per_env)} spec lists for {len(self.envs)} envs")
        env_of, greedy_flags, rngs = [], [], []
        for e, specs in enumerate(specs_per_env):
            for use_greedy, rng in specs:
                env_of.append(e)
                greedy_flags.append(bool(use_greedy))
                if rng is not None and not isinstance(rng, np.random.Generator):
                    rng = np.random.default_rng(rng)
                rngs.append(rng)
        grouped: list[list[EpisodeResult]] = [[] for _ in self.envs]
        if not env_of:
            return grouped
        # TASNet decodes every rollout of every env in one pass; per-state
        # policies bind one instance at a time, so they take one per env.
        batched = getattr(self.policy, "begin_episodes", None) is not None
        if batched:
            passes = [list(range(len(env_of)))]
        else:
            passes = [[k for k, e in enumerate(env_of) if e == env]
                      for env in sorted(set(env_of))]

        with profile_scope("decode"):
            try:
                for rollouts in passes:
                    results = self._run(
                        [env_of[k] for k in rollouts],
                        [greedy_flags[k] for k in rollouts],
                        [rngs[k] for k in rollouts], record_actions, batched)
                    for k, result in zip(rollouts, results):
                        grouped[env_of[k]].append(result)
            finally:
                _end_run(self.policy)
        return grouped

    def _run(self, env_of, greedy_flags, rngs, record_actions: bool,
             batched: bool) -> list[EpisodeResult]:
        """The step loop: rollout k on ``envs[env_of[k]]`` until all end."""
        policy = self.policy
        states = [self.envs[e].reset() for e in env_of]
        if batched:
            policy.begin_episodes([env.instance for env in self.envs])
        else:
            policy.begin_episode(self.envs[env_of[0]].instance)
        results = [EpisodeResult(state=s, total_reward=0.0) for s in states]

        active = [k for k, s in enumerate(states) if not s.done]
        while active:
            if batched:
                actions = policy.act_batch(
                    [states[k] for k in active],
                    greedy=[greedy_flags[k] for k in active],
                    rngs=[rngs[k] for k in active],
                    instance_idxs=[env_of[k] for k in active])
            else:
                actions = [policy.act(states[k], greedy=greedy_flags[k],
                                      rng=rngs[k])
                           for k in active]
            for k, action in zip(active, actions):
                _, reward, _ = self.envs[env_of[k]].step_state(
                    states[k], action.worker_id, action.task_id)
                results[k].total_reward += reward
                if record_actions:
                    results[k].records.append(action)
            active = [k for k in active if not states[k].done]
        return results
