"""Critic baseline for REINFORCE (paper Section IV-F).

The paper reports that a critic baseline trains more efficiently than
self-critic rollout baselines.  Our critic is a small MLP over instance
summary statistics — a deliberately lightweight state-value estimate
``b(s)`` of the achievable data coverage given the initial state: problem
sizes, budget, worker slack, and candidate availability.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.instance import USMDWInstance
from .state import SelectionState

__all__ = ["CriticNetwork", "critic_features"]

NUM_CRITIC_FEATURES = 8


def critic_features(instance: USMDWInstance, state: SelectionState) -> np.ndarray:
    """Summary features of the initial selection state.

    Scale-free where possible so one critic generalises across instances
    of the same dataset family.
    """
    workers = instance.workers
    num_workers = len(workers)
    num_tasks = max(len(instance.sensing_tasks), 1)
    mean_travel = float(np.mean([w.num_travel_tasks for w in workers]))
    mean_budget_time = float(np.mean([w.time_budget for w in workers]))
    mask = state.candidates.mask
    num_pairs = int(mask.sum())
    num_candidate_tasks = int(mask.any(axis=0).sum())
    return np.array([
        num_workers / 32.0,
        num_tasks / 512.0,
        instance.budget / 1000.0,
        mean_travel / 32.0,
        mean_budget_time / max(instance.coverage.time_span, 1e-9),
        num_pairs / (num_workers * num_tasks),
        num_candidate_tasks / num_tasks,
        instance.coverage.alpha,
    ])


class CriticNetwork(nn.Module):
    """MLP state-value estimator ``b(s)``."""

    def __init__(self, hidden: int = 32, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.mlp = nn.MLP([NUM_CRITIC_FEATURES, hidden, hidden, 1], rng=rng)

    def forward(self, features: np.ndarray) -> nn.Tensor:
        """Scalar value estimate for a single feature vector."""
        out = self.mlp(nn.Tensor(features.reshape(1, -1)))
        return nn.ops.reshape(out, (1,))[0]

    def value_from_features(self, features: np.ndarray) -> nn.Tensor:
        return self(features)

    def values(self, features_batch: np.ndarray) -> nn.Tensor:
        """Value estimates for a batch of feature vectors, shape ``(B,)``.

        One MLP forward serves a whole REINFORCE batch — both the
        baselines (detached) and the critic regression loss read from
        this single graph.
        """
        batch = np.asarray(features_batch, dtype=float)
        out = self.mlp(nn.Tensor(batch))
        return nn.ops.reshape(out, (batch.shape[0],))

    def value(self, instance: USMDWInstance, state: SelectionState) -> nn.Tensor:
        return self(critic_features(instance, state))
