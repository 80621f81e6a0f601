"""TASNet — the Two-stage Assignment Selection Network (paper Section IV).

The policy network behind SMORE's iterative selection.  Three modules,
mirroring Figure 3:

1. **Worker & sensing-task representation** (Section IV-C) — each worker's
   travel information is rasterised onto the region grid (1 = origin,
   2 = destination, 3 = travel task), passed through a convolution + FC,
   then a Transformer encoder fuses information across workers.  Sensing
   tasks (location + time window) go through their own Transformer encoder
   to capture spatio-temporal closeness.
2. **Worker selection** (Section IV-D) — a group state encoder pools
   worker state embeddings (worker embedding concatenated with the mean of
   the worker's assigned-task embeddings) through multi-head attention and
   appends the remaining budget; a pointer decoder with a dot-product
   glimpse then scores each worker, masking workers with no feasible
   candidates.
3. **Sensing task selection** (Section IV-E) — an individual state encoder
   combines the selected worker's enhanced embedding with global context
   (budget, group embedding, mean sensing-task embedding); the
   heuristic-enhanced task decoder appends ``delta_phi`` / ``delta_in`` to
   each candidate key and modulates the pointer logits with the
   coverage-incentive soft mask (Equations 9-11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .heuristics import soft_mask

__all__ = ["TASNetConfig", "WorkerEncoder", "SensingTaskEncoder",
           "WorkerSelection", "TaskSelection", "TASNet"]


@dataclass(frozen=True)
class TASNetConfig:
    """Architecture and soft-mask hyper-parameters.

    The paper uses 3 encoder layers with 8 heads and lambda = 0.5; the
    defaults here are CPU-sized but configurable up to the paper's scale.
    """

    d_model: int = 32
    num_heads: int = 4
    num_layers: int = 2
    conv_channels: int = 4
    clip: float = 10.0
    lam: float = 0.5
    #: Disable for the "w/o Soft Mask" ablation (Figure 5).
    use_soft_mask: bool = True
    #: Disable to drop delta_phi/delta_in from the pointer keys — an
    #: extension ablation isolating the decoder's *data fusion* from the
    #: soft mask (both are part of the heuristic enhancement of IV-E).
    use_heuristic_fusion: bool = True

    def __post_init__(self):
        if self.d_model % self.num_heads:
            raise ValueError("d_model must be divisible by num_heads")


class WorkerEncoder(nn.Module):
    """Travel-information grid -> conv + FC -> cross-worker Transformer."""

    def __init__(self, config: TASNetConfig, grid_nx: int, grid_ny: int,
                 rng: np.random.Generator):
        super().__init__()
        d = config.d_model
        self.grid_nx = grid_nx
        self.grid_ny = grid_ny
        self.conv = nn.Conv2D(1, config.conv_channels, kernel_size=3,
                              padding=1, rng=rng)
        self.fc = nn.Linear(config.conv_channels * grid_nx * grid_ny, d, rng=rng)
        self.encoder = nn.TransformerEncoder(d, config.num_heads,
                                             config.num_layers, rng=rng)

    def forward(self, worker_grids: np.ndarray) -> nn.Tensor:
        """``worker_grids``: (n_workers, nx, ny) travel-information matrices."""
        n = worker_grids.shape[0]
        x = nn.Tensor(worker_grids.reshape(n, 1, self.grid_nx, self.grid_ny))
        spatial = nn.ops.relu(self.conv(x))
        flat = nn.ops.reshape(spatial, (n, -1))
        per_worker = self.fc(flat)
        return self.encoder(per_worker)


class SensingTaskEncoder(nn.Module):
    """(x, y, tw_s, tw_e) -> linear embed -> Transformer over all tasks."""

    NUM_FEATURES = 4

    def __init__(self, config: TASNetConfig, rng: np.random.Generator):
        super().__init__()
        d = config.d_model
        self.embed = nn.Linear(self.NUM_FEATURES, d, rng=rng)
        self.encoder = nn.TransformerEncoder(d, config.num_heads,
                                             config.num_layers, rng=rng)

    def forward(self, task_features: np.ndarray) -> nn.Tensor:
        return self.encoder(self.embed(nn.Tensor(task_features)))


class WorkerSelection(nn.Module):
    """Group state encoder + worker decoder (Section IV-D)."""

    def __init__(self, config: TASNetConfig, rng: np.random.Generator):
        super().__init__()
        d = config.d_model
        self.group_mha = nn.MultiHeadAttention(2 * d, config.num_heads, rng=rng)
        self.budget_fc = nn.Linear(1, d, rng=rng)
        self.glimpse_q = nn.Linear(3 * d, 2 * d, bias=False, rng=rng)
        self.pointer = nn.PointerAttention(2 * d, 2 * d, clip=config.clip, rng=rng)

    def forward_batch(self, worker_state_emb: nn.Tensor,
                      budget_norm: np.ndarray,
                      mask: np.ndarray,
                      pad_mask: np.ndarray | None = None
                      ) -> tuple[nn.Tensor, nn.Tensor]:
        """Stage-1 forward for K rollouts at once.

        ``worker_state_emb``: (K, n_w, 2d); ``budget_norm``: (K,);
        ``mask``: boolean (K, n_w), True for workers with no feasible
        candidate in that rollout.  Returns ((K, n_w) log-probs, (K, 2d)
        group embeddings).  Every reduction runs along axes whose length
        matches the per-state forward (the test oracle in
        ``tests/smore/oracle.py``), so per-rollout slices reproduce it.

        ``pad_mask`` marks padded worker slots when rollouts of different
        instances (unequal worker counts) share one batch: the group
        pooling then attends and averages over real workers only, and the
        caller folds the same padding into ``mask`` so padded slots carry
        zero probability.  With ``pad_mask=None`` the path is unchanged.
        """
        batch = worker_state_emb.shape[0]
        if pad_mask is None:
            h_g = nn.ops.mean(self.group_mha(worker_state_emb), axis=1)
        else:
            attended = self.group_mha(worker_state_emb,
                                      key_padding_mask=pad_mask)
            h_g = nn.ops.masked_mean(attended, pad_mask[:, :, None], axis=1)
        budget_emb = self.budget_fc(nn.Tensor(
            np.asarray(budget_norm, dtype=np.float64).reshape(batch, 1)))
        h_c = nn.ops.concat([h_g, budget_emb], axis=1)

        q = self.glimpse_q(h_c)                                     # (K, 2d)
        d_q = q.shape[-1]
        q_col = nn.ops.reshape(q, (batch, d_q, 1))
        scores = nn.ops.reshape(nn.ops.matmul(worker_state_emb, q_col),
                                (batch, -1))                        # (K, n_w)
        scores = nn.ops.mul(scores, 1.0 / np.sqrt(d_q))
        scores = nn.ops.masked_fill(scores, mask, -1e9)
        attn = nn.ops.softmax(scores)
        attn_row = nn.ops.reshape(attn, (batch, 1, -1))
        h_c_prime = nn.ops.reshape(
            nn.ops.matmul(attn_row, worker_state_emb), (batch, -1))  # (K, 2d)

        logits = self.pointer(h_c_prime, worker_state_emb, mask=mask)
        return nn.ops.log_softmax(logits), h_g


class TaskSelection(nn.Module):
    """Individual state encoder + heuristic-enhanced task decoder (IV-E)."""

    def __init__(self, config: TASNetConfig, rng: np.random.Generator):
        super().__init__()
        d = config.d_model
        self.lam = config.lam
        self.use_soft_mask = config.use_soft_mask
        self.use_heuristic_fusion = config.use_heuristic_fusion
        self.assigned_attn = nn.MultiHeadAttention(d, config.num_heads, rng=rng)
        self.budget_fc = nn.Linear(1, d, rng=rng)
        # h_w = [a_j; w_j; FC(B); h_g; s_mean] -> 2d + d + 2d + d = 6d.
        key_in = d + 2 if config.use_heuristic_fusion else d
        self.pointer = nn.PointerAttention(6 * d, key_in, d_key=d,
                                           clip=config.clip, rng=rng)

    def precompute_keys(self, task_emb: nn.Tensor) -> nn.Tensor:
        """Static pointer-key projections of task embeddings, once per
        episode — per-step decoding gathers rows instead of re-projecting
        (see :meth:`~repro.nn.PointerAttention.precompute_keys`)."""
        return self.pointer.precompute_keys(task_emb)

    def forward_batch(self, worker_emb: nn.Tensor,
                      assigned_emb: nn.Tensor | None,
                      assigned_mask: np.ndarray | None,
                      budget_norm: np.ndarray, h_g: nn.Tensor,
                      task_mean: nn.Tensor, key_table: nn.Tensor,
                      cand_idx: np.ndarray,
                      candidate_mask: np.ndarray, delta_phi: np.ndarray,
                      delta_in: np.ndarray) -> nn.Tensor:
        """Stage-2 forward for K rollouts (each with its chosen worker).

        Shapes: ``worker_emb`` (K, d); ``assigned_emb`` (K, a_max, d) with
        boolean padding mask ``assigned_mask`` (K, a_max), or None when no
        rollout has assignments yet; ``budget_norm`` (K,); ``h_g`` (K, 2d);
        ``task_mean`` (K, d); ``key_table`` :meth:`precompute_keys`
        output, whose rows ``cand_idx`` (K, m_max) picks, padded per
        ``candidate_mask`` (K, m_max); ``delta_phi`` / ``delta_in``
        (K, m_max) zero-padded.  Returns (K, m_max) log-probs with
        ``NEG_INF`` on padding.

        The soft mask min-max normalises the coverage-incentive ratio
        *within each rollout's real candidates* (Equation 9), so it is
        evaluated row-by-row on the unpadded slices — padding must never
        shift a rollout's normalisation.
        """
        batch, d = worker_emb.shape
        if assigned_emb is not None and assigned_emb.shape[1] > 0:
            attended = self.assigned_attn(assigned_emb,
                                          key_padding_mask=assigned_mask)
            a_j = nn.ops.masked_mean(attended, assigned_mask[:, :, None],
                                     axis=1)
        else:
            a_j = nn.Tensor(np.zeros((batch, d)))
        budget_emb = self.budget_fc(nn.Tensor(
            np.asarray(budget_norm, dtype=np.float64).reshape(batch, 1)))
        h_w = nn.ops.concat([a_j, worker_emb, budget_emb, h_g, task_mean],
                            axis=1)                                  # (K, 6d)

        signals = (np.stack([delta_phi, delta_in], axis=2)
                   if self.use_heuristic_fusion else None)
        logits = self.pointer.forward_precomputed(
            h_w, key_table, cand_idx, extra=signals)                # (K, m)

        if self.use_soft_mask:
            mask_values = np.ones_like(delta_phi)
            for k in range(batch):
                real = ~candidate_mask[k]
                mask_values[k, real] = soft_mask(
                    delta_phi[k, real], delta_in[k, real], lam=self.lam)
            logits = nn.ops.mul(logits, nn.Tensor(mask_values))
        return nn.ops.masked_log_softmax(logits, candidate_mask)


class TASNet(nn.Module):
    """The full two-stage policy network."""

    def __init__(self, config: TASNetConfig, grid_nx: int, grid_ny: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.config = config
        self.worker_encoder = WorkerEncoder(config, grid_nx, grid_ny, rng)
        self.task_encoder = SensingTaskEncoder(config, rng)
        self.worker_selection = WorkerSelection(config, rng)
        self.task_selection = TaskSelection(config, rng)

    # The policy wrapper (repro.smore.policy) drives these submodules —
    # encoding is done once per episode, selection once per step — so
    # TASNet itself exposes no monolithic forward().
    def forward(self, *args, **kwargs):  # pragma: no cover
        raise NotImplementedError(
            "drive TASNet through repro.smore.policy.TASNetPolicy")
