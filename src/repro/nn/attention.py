"""Attention modules: multi-head attention and Transformer encoder blocks.

These follow the architecture used throughout the paper: the worker and
sensing-task encoders of TASNet are "Transformer-like encoders composed of a
multi-head attention layer and a node-wise feed-forward layer" (Section
IV-C), and the pointer decoders use single-head attention with tanh logit
clipping (Equations 5-7).
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .backend import get_backend
from .layers import LayerNorm, Linear, Module
from .tensor import Tensor, as_tensor

__all__ = [
    "scaled_dot_product_attention", "MultiHeadAttention",
    "TransformerEncoderLayer", "TransformerEncoder", "PointerAttention",
]

_NEG_INF = -1e9


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: np.ndarray | None = None) -> Tensor:
    """Attention(Q, K, V) = softmax(Q K^T / sqrt(d)) V.

    ``mask`` is a boolean array broadcastable to the score shape with True
    marking *disallowed* positions.
    """
    return get_backend().attention(q, k, v, mask=mask)


class MultiHeadAttention(Module):
    """Multi-head attention over sets.

    Accepts un-batched inputs of shape ``(n, d_model)`` (the iterative
    selection loop deals with one problem instance at a time) or batched
    inputs of shape ``(B, n, d_model)``; heads are carried as an internal
    axis in both cases.
    """

    def __init__(self, d_model: int, num_heads: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.w_q = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_k = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_v = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_o = Linear(d_model, d_model, bias=False, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            n = x.shape[0]
            x = ops.reshape(x, (n, self.num_heads, self.d_head))
            return ops.transpose(x, (1, 0, 2))        # (H, n, dh)
        batch, n = x.shape[0], x.shape[1]
        x = ops.reshape(x, (batch, n, self.num_heads, self.d_head))
        return ops.transpose(x, (0, 2, 1, 3))          # (B, H, n, dh)

    def forward(self, query, key=None, value=None,
                mask: np.ndarray | None = None,
                key_padding_mask: np.ndarray | None = None) -> Tensor:
        """``key_padding_mask`` is a boolean ``(n,)`` — or ``(B, n)`` for
        batched inputs — with True marking padded key positions; it is
        expanded over heads and query positions and OR-combined with
        ``mask``.  This is how variable-length sets ride through one
        batched forward: pad to a common ``n``, mask the tail.
        """
        query = as_tensor(query)
        key = query if key is None else as_tensor(key)
        value = key if value is None else as_tensor(value)
        batched = query.ndim == 3

        if key_padding_mask is not None:
            padding = np.asarray(key_padding_mask, dtype=bool)
            # Broadcast over (B,) H and query positions: (B, 1, 1, n) /
            # (1, 1, n) aligns with score shape (B, H, n_q, n_k).
            expanded = padding[..., None, None, :] if batched \
                else padding[None, None, :]
            mask = expanded if mask is None else np.logical_or(mask, expanded)

        q = self._split_heads(self.w_q(query))
        k = self._split_heads(self.w_k(key))
        v = self._split_heads(self.w_v(value))

        attended = scaled_dot_product_attention(q, k, v, mask=mask)
        if batched:
            attended = ops.transpose(attended, (0, 2, 1, 3))
            attended = ops.reshape(
                attended, (query.shape[0], query.shape[1], self.d_model))
        else:
            attended = ops.transpose(attended, (1, 0, 2))
            attended = ops.reshape(attended, (query.shape[0], self.d_model))
        return self.w_o(attended)

    def forward_flops(self, n_q: int, n_k: int | None = None,
                      batch: int = 1, matmul_only: bool = False) -> int:
        """Closed-form forward FLOPs at the given query/key set sizes.

        With ``matmul_only=True`` only the four projections and the two
        attention products are counted.  The profiler tallies the
        projections under ``matmul`` and the attention core (products,
        scaling, softmax) under ``attention_core``; the regression bench
        reconciles their sum with the full count within 1%.
        """
        from . import flops

        n_k = n_q if n_k is None else n_k
        # w_q and w_o run over the n_q query rows; w_k and w_v over n_k.
        total = 2 * (flops.linear_flops(batch * n_q, self.d_model,
                                        self.d_model, bias=False)
                     + flops.linear_flops(batch * n_k, self.d_model,
                                          self.d_model, bias=False))
        total += flops.attention_flops(batch, self.num_heads, n_q, n_k,
                                       self.d_head, matmul_only=matmul_only)
        return total


class TransformerEncoderLayer(Module):
    """MHA + node-wise feed-forward, each with residual + LayerNorm."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        d_ff = d_ff or 4 * d_model
        self.attention = MultiHeadAttention(d_model, num_heads, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rng=rng)
        self.ff2 = Linear(d_ff, d_model, rng=rng)

    def forward(self, x, mask: np.ndarray | None = None) -> Tensor:
        x = as_tensor(x)
        attended = self.attention(x, mask=mask)
        x = self.norm1(ops.add(x, attended))
        ff = get_backend().ffn(x, self.ff1.weight, self.ff1.bias,
                               self.ff2.weight, self.ff2.bias)
        x = self.norm2(ops.add(x, ff))
        return x


class TransformerEncoder(Module):
    """Stack of encoder layers (the paper uses 3 layers, 8 heads)."""

    def __init__(self, d_model: int, num_heads: int, num_layers: int,
                 d_ff: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.layers = [
            TransformerEncoderLayer(d_model, num_heads, d_ff=d_ff, rng=rng)
            for _ in range(num_layers)
        ]

    def forward(self, x, mask: np.ndarray | None = None) -> Tensor:
        x = as_tensor(x)
        for layer in self.layers:
            x = layer(x, mask=mask)
        return x


class PointerAttention(Module):
    """Single-head pointer scoring with tanh clipping (Equations 5-6).

    Computes ``u_j = C * tanh(q^T k_j / sqrt(d))`` per candidate ``j`` with
    ``-inf`` on masked candidates.  The caller applies softmax (possibly
    after the soft-mask modulation of Equation 11).
    """

    def __init__(self, d_query: int, d_key_in: int, d_key: int | None = None,
                 clip: float = 10.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        d_key = d_key or d_key_in
        self.clip = clip
        self.d_key = d_key
        self.w_q = Linear(d_query, d_key, bias=False, rng=rng)
        self.w_k = Linear(d_key_in, d_key, bias=False, rng=rng)

    def forward(self, query, keys, mask: np.ndarray | None = None) -> Tensor:
        """Return clipped logits, shape ``(n,)`` — or ``(B, n)`` batched.

        Serial form: ``query`` has shape ``(d_query,)``, ``keys`` has shape
        ``(n, d_key_in)``.  Batched form (the decode engine's hot path):
        ``query`` is ``(B, d_query)`` and ``keys`` is ``(B, n, d_key_in)``
        — one pointer evaluation per rollout in a single pass.  ``mask``
        is boolean ``(n,)`` / ``(B, n)`` with True marking disallowed
        candidates (including padding).
        """
        query = as_tensor(query)
        keys = as_tensor(keys)
        q = self.w_q(query)                    # (d_key,) or (B, d_key)
        k = self.w_k(keys)                     # (n, d_key) or (B, n, d_key)
        if keys.ndim == 3:
            batch = keys.shape[0]
            q_col = ops.reshape(q, (batch, self.d_key, 1))
            scores = ops.reshape(ops.matmul(k, q_col), (batch, -1))
        else:
            scores = ops.matmul(k, q)          # (n,)
        return get_backend().pointer_tail(
            scores, 1.0 / math.sqrt(self.d_key), self.clip, mask=mask)

    def precompute_keys(self, keys_static) -> Tensor:
        """Project static key features once, for reuse across decode steps.

        ``w_k`` splits by input row: rows ``[:d_static]`` act on features
        that stay fixed for a whole episode (e.g. candidate embeddings),
        rows ``[d_static:]`` on per-step features handled by the ``extra``
        argument of :meth:`forward_precomputed`.  Callers project the
        static block once per episode and gather rows of the result per
        step — turning the per-step key projection, the dominant decode
        GEMM, into an index lookup.  Gradients still flow into ``w_k``
        through every gathered use.
        """
        keys_static = as_tensor(keys_static)
        w_static = self.w_k.weight[:keys_static.shape[-1]]
        return ops.matmul(keys_static, w_static)

    def forward_precomputed(self, query, keys, index, extra=None,
                            mask: np.ndarray | None = None) -> Tensor:
        """Pointer logits from pre-projected keys (:meth:`precompute_keys`).

        ``keys``: the precomputed static projection, ``(N, d_key)``;
        ``index`` picks each candidate's row, ``(n,)`` serial or
        ``(B, n)`` batched.  ``extra``: per-step key features
        ``(n, e)`` / ``(B, n, e)``
        projected through the trailing ``e`` input rows of ``w_k`` and
        added — the split ``W [s; x] = W_s s + W_x x`` evaluated as two
        products.  Gather, projection and add form one graph node
        (:func:`~repro.nn.ops.pointer_keys`).
        """
        k = ops.pointer_keys(keys, index, extra, self.w_k.weight)
        q = self.w_q(query)
        if k.ndim == 3:
            batch = k.shape[0]
            q_col = ops.reshape(q, (batch, self.d_key, 1))
            scores = ops.reshape(ops.matmul(k, q_col), (batch, -1))
        else:
            scores = ops.matmul(k, q)          # (n,)
        return get_backend().pointer_tail(
            scores, 1.0 / math.sqrt(self.d_key), self.clip, mask=mask)

    def forward_flops(self, n: int, d_query: int, d_key_in: int,
                      batch: int = 1, matmul_only: bool = False) -> int:
        """Closed-form forward FLOPs for ``n`` candidate keys per item."""
        from . import flops

        total = (flops.linear_flops(batch, d_query, self.d_key, bias=False)
                 + flops.linear_flops(batch * n, d_key_in, self.d_key,
                                      bias=False)
                 + 2 * batch * n * self.d_key)       # k @ q scores
        if not matmul_only:
            total += batch * n * (1 + flops.ELEMENTWISE_COST["clip_tanh"])
        return total
