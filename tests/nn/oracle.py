"""Kernel oracle: the composed attention core and feed-forward block.

``Backend.attention`` and ``Backend.ffn`` each run as one in-place op
(:func:`repro.nn.ops.attention_core`, :func:`repro.nn.ops.ffn_block`).
These functions are the primitive-op chains those ops replaced; the ops
must reproduce them bitwise, forward values and every gradient.
"""

import math

from repro.nn import ops


def attention(q, k, v, mask=None):
    """``softmax(Q K^T / sqrt(d)) V`` from primitive ops."""
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ops.matmul(q, ops.transpose(k, tuple(axes)))
    scores = ops.mul(scores, 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = ops.masked_fill(scores, mask, ops.NEG_INF)
    return ops.matmul(ops.softmax(scores, axis=-1), v)


def ffn(x, w1, b1, w2, b2):
    """``relu(x W1 + b1) W2 + b2`` from primitive ops."""
    hidden = ops.relu(ops.add(ops.matmul(x, w1), b1))
    return ops.add(ops.matmul(hidden, w2), b2)


def install(monkeypatch):
    """Route ``Backend.attention``/``Backend.ffn`` through the oracle."""
    from repro.nn.backend import Backend

    monkeypatch.setattr(Backend, "attention",
                        lambda self, q, k, v, mask=None:
                        attention(q, k, v, mask))
    monkeypatch.setattr(Backend, "ffn",
                        lambda self, x, w1, b1, w2, b2:
                        ffn(x, w1, b1, w2, b2))
