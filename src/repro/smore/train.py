"""REINFORCE training of TASNet with a critic baseline (Section IV-F).

For each training iteration a batch of USMDW instances is rolled out with
sampled actions; the policy gradient of Equation 12 —
``(phi(pi) - b(s)) * grad log p(pi)`` — updates the policy, and the critic
is regressed onto the realised coverage.  Greedy rollouts on held-out
instances provide validation, as in the paper ("sample during training,
argmax during validation and testing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import nn, obs
from ..core.instance import USMDWInstance
from ..obs import TrainingHistory
from ..obs.profile import scope as profile_scope
from ..parallel import parallel_map
from ..tsptw.base import RoutePlanner
from .batch import MultiInstanceRunner
from .critic import CriticNetwork, critic_features
from .env import SelectionEnv
from .solver import run_episode

__all__ = ["TrainingConfig", "TASNetTrainer", "imitation_pretrain"]


def imitation_pretrain(policy, planner: RoutePlanner,
                       instances: Sequence[USMDWInstance],
                       iterations: int = 10, lr: float = 3e-3,
                       explore: float = 0.2, seed: int = 0,
                       grad_clip: float = 1.0, teacher=None) -> list[float]:
    """Warm-start the policy by behaviour-cloning the greedy selection rule.

    The paper trains TASNet from scratch on a GPU over thousands of
    instances; at CPU scale, REINFORCE from a random initialisation needs
    many more episodes than a benchmark run can afford.  Cloning the
    max-coverage-gain / min-cost rule first (the very heuristic TASNet's
    soft mask encodes) gives REINFORCE a competent starting policy; the
    RL fine-tuning then improves past the myopic teacher.  Documented as a
    training-schedule substitution in DESIGN.md.

    With probability ``explore`` the rollout follows the policy's own
    sampled action instead of the teacher's, so the cloned policy also
    sees off-teacher states.  Returns the per-iteration mean cross-entropy.
    """
    from .solver import RatioSelectionRule

    rng = np.random.default_rng(seed)
    optimizer = nn.Adam(policy.parameters(), lr=lr)
    if teacher is None:
        teacher = RatioSelectionRule()
    history: list[float] = []
    # One env per instance: the candidate-table snapshot survives across
    # iterations, so the O(W x S) init sweep is paid once per instance.
    envs: dict[int, SelectionEnv] = {}
    for iteration in range(iterations):
        index = int(rng.integers(0, len(instances)))
        instance = instances[index]
        env = envs.get(index)
        if env is None:
            env = envs.setdefault(index, SelectionEnv(instance, planner))
        state = env.reset()
        policy.begin_episode(instance)
        teacher.begin_episode(instance)
        loss = None
        steps = 0
        while not state.done:
            target = teacher.act(state)
            # Log-prob of the teacher's action under the learner: force the
            # learner to evaluate exactly that pair.
            log_prob = policy.log_prob_of(state, target.worker_id,
                                          target.task_id)
            loss = -log_prob if loss is None else loss - log_prob
            steps += 1
            if rng.random() < explore:
                action = policy.act(state, greedy=False, rng=rng)
            else:
                action = target
            state, _, _ = env.step(action.worker_id, action.task_id)
        if loss is None:
            continue
        loss = loss * (1.0 / steps)
        optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(policy.parameters(), grad_clip)
        optimizer.step()
        history.append(loss.item())
    return history


@dataclass
class TrainingConfig:
    """REINFORCE hyper-parameters (paper: Adam, lr 1e-4; scaled for CPU).

    ``baseline`` selects the variance-reduction scheme: ``"critic"`` (the
    paper's choice), ``"rollout"`` (the self-critic greedy-rollout baseline
    of Kool et al. the paper compares against and finds less
    training-efficient), or ``"none"``.
    """

    iterations: int = 20
    batch_size: int = 4
    lr: float = 1e-3
    critic_lr: float = 1e-3
    grad_clip: float = 1.0
    seed: int = 0
    baseline: str = "critic"
    #: Sampled rollouts decoded per instance each iteration.  The whole
    #: iteration batch (batch_size instances x K rollouts) decodes as one
    #: cross-instance lock-step run, each rollout on its own seed.
    rollouts_per_instance: int = 1
    #: Process-pool size for greedy validation rollouts (repro.parallel).
    #: Training rollouts stay in-process — their autograd graphs cannot
    #: cross a process boundary.
    eval_workers: int = 1

    def __post_init__(self):
        if self.baseline not in ("critic", "rollout", "none"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.rollouts_per_instance < 1:
            raise ValueError("rollouts_per_instance must be >= 1")


@dataclass
class TASNetTrainer:
    """Trains any policy exposing ``begin_episode`` / ``act`` / ``parameters``."""

    policy: object
    planner: RoutePlanner
    config: TrainingConfig = field(default_factory=TrainingConfig)
    critic: CriticNetwork | None = None
    #: Named training curves (dict-compatible).  ``train_iteration``
    #: records ``reward`` / ``reward_std`` / ``loss`` / ``grad_norm`` /
    #: ``entropy`` (and ``critic_loss`` under the critic baseline);
    #: :meth:`evaluate` records ``eval``; :meth:`train` appends the best
    #: validation score under ``val``.
    history: TrainingHistory = field(
        default_factory=lambda: TrainingHistory(
            reward=[], baseline=[], critic_loss=[]))

    def __post_init__(self):
        self.rng = np.random.default_rng(self.config.seed)
        if self.critic is None:
            self.critic = CriticNetwork(rng=np.random.default_rng(self.config.seed + 1))
        self.optimizer = nn.Adam(self.policy.parameters(), lr=self.config.lr)
        self.critic_optimizer = nn.Adam(self.critic.parameters(),
                                        lr=self.config.critic_lr)
        self._envs: dict[int, SelectionEnv] = {}

    # ------------------------------------------------------------------ #
    def _env(self, instance: USMDWInstance) -> SelectionEnv:
        """Per-instance environment, kept so candidate snapshots are reused
        across every rollout of the whole training run."""
        key = id(instance)
        env = self._envs.get(key)
        if env is None or env.instance is not instance:
            env = SelectionEnv(instance, self.planner)
            self._envs[key] = env
        return env

    def _rollouts(self, batch_instances):
        """Sampled rollouts of the iteration batch in one lock-step run.

        B instances x K rollouts advance together through
        :class:`MultiInstanceRunner`; each decoding step is a single
        two-stage forward over every active episode.  Each rollout
        samples from its own generator seeded off the trainer rng
        (instance-major), so companions never perturb each other's
        stream.  Returns ``(phi, log-prob sum, features, steps,
        instance)`` tuples.
        """
        envs = [self._env(instance) for instance in batch_instances]
        specs_per_env, features = [], []
        for instance, env in zip(batch_instances, envs):
            features.append(critic_features(instance, env.reset()))
            seeds = self.rng.integers(
                0, 2**63 - 1, size=self.config.rollouts_per_instance)
            specs_per_env.append([(False, int(seed)) for seed in seeds])
        grouped = MultiInstanceRunner(envs, self.policy).run(
            specs_per_env, record_actions=True)
        samples = []
        for instance, feats, episodes in zip(batch_instances, features,
                                             grouped):
            for episode in episodes:
                # sum(rest, first) adds left to right, one node per step.
                log_probs = [record.log_prob for record in episode.records]
                log_prob_sum = (sum(log_probs[1:], log_probs[0])
                                if log_probs else None)
                samples.append((episode.state.phi(), log_prob_sum, feats,
                                len(episode.records), instance))
        return samples

    def _greedy_rollout_value(self, instance: USMDWInstance) -> float:
        """Self-critic baseline: coverage of the current policy decoded
        greedily on the same instance (Kool et al.'s rollout baseline)."""
        env = self._env(instance)
        with nn.no_grad():
            state, _, _ = run_episode(env, self.policy, greedy=True)
        return state.phi()

    def train_iteration(self, instances: Sequence[USMDWInstance]) -> float:
        """One REINFORCE update over a batch sampled from ``instances``.

        All rollouts of the iteration accumulate into one policy-loss
        graph and trigger exactly one backward; the critic evaluates the
        whole batch of feature vectors in a single forward that serves
        both the (detached) baselines and the regression loss.  Every
        rollout of the batch decodes in one lock-step run
        (:meth:`_rollouts`), whose decode state dies with the run.
        """
        cfg = self.config
        hook = nn.get_tensor_hook()
        profiled = hook.enabled and hasattr(hook, "diff")
        profile_baseline = hook.snapshot() if profiled else None
        batch_idx = self.rng.choice(len(instances),
                                    size=min(cfg.batch_size, len(instances)),
                                    replace=False)
        rewards = []
        samples = []  # (phi, log-prob sum, features, instance)
        total_log_prob = 0.0
        total_steps = 0
        rollout_span = obs.span("train.rollouts",
                                instances=len(batch_idx),
                                rollouts_per_instance=cfg.rollouts_per_instance)
        with rollout_span, profile_scope("train.rollouts"):
            batch_instances = [instances[int(idx)] for idx in batch_idx]
            for phi, log_prob_sum, features, steps, instance in \
                    self._rollouts(batch_instances):
                rewards.append(phi)
                if log_prob_sum is None:
                    continue  # instance admitted no assignments at all
                total_log_prob += float(log_prob_sum.item())
                total_steps += steps
                samples.append((phi, log_prob_sum, features, instance))

        policy_loss = None
        critic_loss = None
        if samples:
            phis = np.array([phi for phi, _, _, _ in samples])
            if cfg.baseline == "critic":
                feature_batch = np.stack([f for _, _, f, _ in samples])
                values = self.critic.values(feature_batch)
                baselines = values.data
                critic_loss = nn.ops.sum((values - nn.Tensor(phis)) ** 2.0)
            elif cfg.baseline == "rollout":
                # Greedy decode once per distinct instance, not per sample.
                cache: dict[int, float] = {}
                baselines = np.array([
                    cache[id(inst)] if id(inst) in cache else cache.setdefault(
                        id(inst), self._greedy_rollout_value(inst))
                    for _, _, _, inst in samples])
            else:
                baselines = np.zeros(len(samples))
            total = len(batch_idx) * cfg.rollouts_per_instance
            for (phi, log_prob_sum, _, _), baseline in zip(samples, baselines):
                advantage = phi - float(baseline)
                term = log_prob_sum * (-advantage / total)
                policy_loss = (term if policy_loss is None
                               else policy_loss + term)

        grad_norm = 0.0
        loss_value = 0.0
        if policy_loss is not None:
            loss_value = float(policy_loss.item())
            with profile_scope("train.update"):
                self.optimizer.zero_grad()
                policy_loss.backward()
                grad_norm = nn.clip_grad_norm(self.policy.parameters(),
                                              cfg.grad_clip)
                self.optimizer.step()
        critic_loss_value = None
        if critic_loss is not None:
            critic_loss_value = float(critic_loss.item())
            with profile_scope("train.critic"):
                self.critic_optimizer.zero_grad()
                critic_loss.backward()
                self.critic_optimizer.step()
            self.history["critic_loss"].append(critic_loss_value)

        mean_reward = float(np.mean(rewards)) if rewards else 0.0
        reward_std = float(np.std(rewards)) if rewards else 0.0
        # Sample estimate of the policy entropy: the mean negative
        # log-probability of the actions actually drawn this iteration.
        entropy = (-total_log_prob / total_steps) if total_steps else 0.0
        self.history.record(reward=mean_reward, reward_std=reward_std,
                            loss=loss_value, grad_norm=grad_norm,
                            entropy=entropy)
        if profiled:
            self._record_profile(hook.diff(profile_baseline))
        obs.count("train.iterations")
        obs.event("train.iteration", epoch=len(self.history["reward"]),
                  reward=mean_reward, reward_std=reward_std,
                  loss=loss_value, grad_norm=grad_norm, entropy=entropy,
                  critic_loss=critic_loss_value)
        return mean_reward

    def _record_profile(self, delta: dict) -> None:
        """Fold one iteration's op-profiler delta into the history.

        ``delta`` is an :meth:`~repro.obs.profile.OpProfiler.diff`
        payload; scope rows are excluded from the time sums (they would
        double-count the ops running inside them).  Adds per-epoch
        ``profile_forward_seconds`` / ``profile_backward_seconds`` /
        ``profile_flops`` / ``profile_peak_live_bytes`` series and a
        max-merged ``train.peak_live_bytes`` gauge.
        """
        forward_seconds = 0.0
        backward_seconds = 0.0
        total_flops = 0
        for row in delta.get("ops", {}).values():
            kind, _, fwd_s, _, bwd_s, flops, bwd_flops, _, _ = row
            if kind != "scope":
                forward_seconds += fwd_s
                backward_seconds += bwd_s
            total_flops += flops + bwd_flops
        peak = delta.get("peak_live_bytes", 0)
        self.history.record(profile_forward_seconds=forward_seconds,
                            profile_backward_seconds=backward_seconds,
                            profile_flops=total_flops,
                            profile_peak_live_bytes=peak)
        obs.gauge("train.peak_live_bytes", peak)

    def train(self, instances: Sequence[USMDWInstance],
              val_instances: Sequence[USMDWInstance] | None = None,
              eval_every: int = 5, patience: int | None = None) -> None:
        """Run the configured number of iterations.

        With ``val_instances``, the policy is greedily evaluated every
        ``eval_every`` iterations and the best-scoring parameters are
        restored at the end — the paper's validate-then-test-best protocol.
        ``patience`` (in evaluation rounds) enables early stopping when
        validation stops improving.
        """
        best_score = -float("inf")
        best_state = None
        stale_rounds = 0
        net = getattr(self.policy, "net", None)
        track = val_instances is not None and net is not None
        if track:
            best_score = self.evaluate(val_instances)
            best_state = net.state_dict()
        for iteration in range(self.config.iterations):
            self.train_iteration(instances)
            if track and (iteration + 1) % eval_every == 0:
                score = self.evaluate(val_instances)
                if score > best_score:
                    best_score = score
                    best_state = net.state_dict()
                    stale_rounds = 0
                else:
                    stale_rounds += 1
                    if patience is not None and stale_rounds >= patience:
                        break
        if track:
            final = self.evaluate(val_instances)
            if final > best_score:
                best_score = final
            elif best_state is not None:
                net.load_state_dict(best_state)
            self.history.setdefault("val", []).append(best_score)

    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path) -> None:
        """Persist policy + critic weights and Adam moments to one npz."""
        payload: dict[str, np.ndarray] = {}
        net = getattr(self.policy, "net", None)
        if net is None:
            raise ValueError("policy has no .net to checkpoint")
        for name, value in net.state_dict().items():
            payload[f"policy/{name}"] = value
        for name, value in self.critic.state_dict().items():
            payload[f"critic/{name}"] = value
        opt_state = self.optimizer.state_dict()
        payload["opt/step_count"] = np.array(opt_state["step_count"])
        for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
            payload[f"opt/m{i}"] = m
            payload[f"opt/v{i}"] = v
        np.savez(path, **payload)

    def load_checkpoint(self, path) -> None:
        """Restore a checkpoint written by :meth:`save_checkpoint`."""
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
        net = getattr(self.policy, "net")
        net.load_state_dict({
            name[len("policy/"):]: value for name, value in data.items()
            if name.startswith("policy/")
        })
        self.critic.load_state_dict({
            name[len("critic/"):]: value for name, value in data.items()
            if name.startswith("critic/")
        })
        count = sum(1 for name in data if name.startswith("opt/m"))
        self.optimizer.load_state_dict({
            "step_count": int(data["opt/step_count"]),
            "m": [data[f"opt/m{i}"] for i in range(count)],
            "v": [data[f"opt/v{i}"] for i in range(count)],
        })

    # ------------------------------------------------------------------ #
    def evaluate(self, instances: Sequence[USMDWInstance]) -> float:
        """Mean greedy-rollout coverage over held-out instances.

        Greedy decoding is deterministic, so fanning the instances out over
        ``config.eval_workers`` processes returns exactly the serial score.
        """

        def score_one(instance: USMDWInstance) -> float:
            env = self._env(instance)
            with nn.no_grad():
                state, _, _ = run_episode(env, self.policy, greedy=True)
            return state.phi()

        with obs.span("train.eval", instances=len(instances)):
            scores = parallel_map(score_one, instances,
                                  workers=self.config.eval_workers)
        score = float(np.mean(scores)) if scores else 0.0
        self.history.record(eval=score)
        obs.event("train.eval", coverage=score)
        return score
