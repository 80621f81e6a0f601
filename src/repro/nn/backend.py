"""Model-level kernels of ``repro.nn``.

The op-level profiler (:mod:`repro.obs.profile`) shows the object-graph
autograd spending most of its time in Python dispatch around a small set
of model-level kernels (affine maps, layer norm, the feed-forward block,
the attention core, the pointer-logit tail).  :class:`Backend` names
those kernels in one place and composes each from the primitive ops in
:mod:`repro.nn.ops`.  Layers (:mod:`repro.nn.layers`,
:mod:`repro.nn.attention`) call them through :func:`get_backend`, which
gives profilers and benchmarks one seam to time every kernel at.
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
    """The model-level kernels, composed from primitive ops.

    Every method is a fixed sequence of :mod:`repro.nn.ops` primitives,
    so its graph, profiler op stream and numerics are those of the
    primitives.  All kernels take/return :class:`Tensor` and are fully
    differentiable.
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
        hidden = ops.relu(ops.add(ops.matmul(x, w1), b1))
        return ops.add(ops.matmul(hidden, w2), b2)

    # -- attention -------------------------------------------------------- #
    def attention(self, q: Tensor, k: Tensor, v: Tensor,
                  mask: np.ndarray | None = None) -> Tensor:
        """``softmax(Q K^T / sqrt(d)) V`` with optional boolean mask
        (True = disallowed) broadcastable to the score shape."""
        d_k = q.shape[-1]
        axes = list(range(k.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        scores = ops.matmul(q, ops.transpose(k, tuple(axes)))
        scores = ops.mul(scores, 1.0 / math.sqrt(d_k))
        if mask is not None:
            scores = ops.masked_fill(scores, mask, NEG_INF)
        weights = ops.softmax(scores, axis=-1)
        return ops.matmul(weights, v)

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
