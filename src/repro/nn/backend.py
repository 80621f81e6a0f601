"""Model-level kernels of ``repro.nn``.

The op-level profiler (:mod:`repro.obs.profile`) shows the object-graph
autograd spending most of its time in Python dispatch around a small set
of model-level kernels (affine maps, layer norm, the feed-forward block,
the attention core, the pointer-logit tail).  :class:`Backend` names
those kernels in one place.  Most compose primitive ops of
:mod:`repro.nn.ops`; the attention core and the feed-forward block are
one op each (:func:`~repro.nn.ops.attention_core`,
:func:`~repro.nn.ops.ffn_block`), bit-identical to their composed
chains but updating one buffer in place — the encoder's ``(H, n, n)``
score tensor is the widest array on the inference path.  Layers
(:mod:`repro.nn.layers`, :mod:`repro.nn.attention`) call the kernels
through :func:`get_backend`, which gives profilers and benchmarks one
seam to time every kernel at.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .tensor import Tensor, as_tensor

__all__ = ["Backend", "get_backend", "backend_name"]

#: Logit value for masked positions — matches ``ops.NEG_INF``.
NEG_INF = ops.NEG_INF


class Backend:
    """The model-level kernels.

    Every method is a fixed sequence of :mod:`repro.nn.ops` ops, so its
    graph, profiler op stream and numerics are those of the ops.  All
    kernels take/return :class:`Tensor` and are fully differentiable.
    """

    name = "reference"

    # -- affine ---------------------------------------------------------- #
    def linear(self, x: Tensor, weight: Tensor,
               bias: Tensor | None = None) -> Tensor:
        """``x @ weight (+ bias)`` over the last axis."""
        out = ops.matmul(x, weight)
        if bias is not None:
            out = ops.add(out, bias)
        return out

    # -- normalisation --------------------------------------------------- #
    def layernorm(self, x: Tensor, gamma: Tensor, beta: Tensor,
                  eps: float) -> Tensor:
        """Layer normalisation over the last axis."""
        mu = ops.mean(x, axis=-1, keepdims=True)
        centered = ops.sub(x, mu)
        var = ops.mean(ops.mul(centered, centered), axis=-1, keepdims=True)
        std = ops.sqrt(ops.add(var, eps))
        normed = ops.div(centered, std)
        return ops.add(ops.mul(normed, gamma), beta)

    # -- feed-forward ----------------------------------------------------- #
    def ffn(self, x: Tensor, w1: Tensor, b1: Tensor,
            w2: Tensor, b2: Tensor) -> Tensor:
        """Node-wise feed-forward ``relu(x W1 + b1) W2 + b2``."""
        return ops.ffn_block(x, w1, b1, w2, b2)

    # -- attention -------------------------------------------------------- #
    def attention(self, q: Tensor, k: Tensor, v: Tensor,
                  mask: np.ndarray | None = None) -> Tensor:
        """``softmax(Q K^T / sqrt(d)) V`` with optional boolean mask
        (True = disallowed) broadcastable to the score shape."""
        return ops.attention_core(q, k, v, 1.0 / math.sqrt(q.shape[-1]),
                                  mask)

    # -- pointer logits --------------------------------------------------- #
    def pointer_tail(self, scores: Tensor, scale: float, clip: float,
                     mask: np.ndarray | None = None) -> Tensor:
        """Scale, tanh-clip, and mask raw pointer scores (Eq. 5-6)."""
        logits = ops.clip_tanh(ops.mul(scores, scale), clip)
        if mask is not None:
            logits = ops.masked_fill(logits, mask, NEG_INF)
        return logits

    # -- masked reduction -------------------------------------------------- #
    def masked_mean(self, x: Tensor, mask: np.ndarray, axis: int) -> Tensor:
        """Mean over ``axis`` counting only entries where mask is False."""
        return ops.masked_mean(x, mask, axis)

    # -- elementwise chains ------------------------------------------------ #
    def chain(self, x: Tensor, stages) -> Tensor:
        """Apply a sequence of elementwise stages to ``x``.

        ``stages`` is a tuple of ``(op,)`` / ``(op, constant)`` entries
        drawn from ``add``, ``mul``, ``tanh``, ``sigmoid``, ``relu``,
        ``clip_tanh``, applied as one primitive op per stage.
        """
        out = as_tensor(x)
        for stage in stages:
            op = stage[0]
            if op == "add":
                out = ops.add(out, float(stage[1]))
            elif op == "mul":
                out = ops.mul(out, float(stage[1]))
            elif op == "tanh":
                out = ops.tanh(out)
            elif op == "sigmoid":
                out = ops.sigmoid(out)
            elif op == "relu":
                out = ops.relu(out)
            elif op == "clip_tanh":
                out = ops.clip_tanh(out, float(stage[1]))
            else:
                raise ValueError(f"unknown chain stage {op!r}")
        return out


_BACKEND = Backend()


def get_backend() -> Backend:
    """The one kernel implementation every layer calls through."""
    return _BACKEND


def backend_name() -> str:
    """Name of the kernel implementation (recorded with measurements)."""
    return _BACKEND.name
