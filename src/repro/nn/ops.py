"""Differentiable operations on :class:`repro.nn.tensor.Tensor`.

Every function here computes a forward result with numpy and registers a
backward closure returning one gradient per parent.  Gradients through
broadcast operands are reduced with :func:`~repro.nn.tensor.unbroadcast`.
"""

from __future__ import annotations

import builtins

import numpy as np

from .tensor import Tensor, as_tensor, instrument_op, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "matmul", "exp", "log",
    "sqrt", "tanh", "sigmoid", "relu", "sum", "mean", "max", "reshape",
    "transpose", "concat", "stack", "getitem", "softmax", "log_softmax",
    "clip_tanh", "where", "dropout", "gather_rows", "scatter_rows",
    "pointer_keys", "masked_fill", "abs", "attention_core", "ffn_block",
    "broadcast_to", "masked_softmax", "masked_log_softmax", "masked_mean",
    "pad_stack",
]

#: Logit value used for masked-out entries (matches the pointer decoders).
NEG_INF = -1e9


# --------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------- #
def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return Tensor._make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data ** 2), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise negation ``-a``."""
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor._make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return Tensor._make(out_data, (a,), backward)


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (sign subgradient)."""
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return Tensor._make(out_data, (a,), backward)


def flat_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with a stacked-``a`` x 2D-``b`` product folded flat.

    numpy dispatches ``(B, m, k) @ (k, n)`` as B separate GEMM calls; for
    the decode-loop shapes (many small leading batches against one shared
    weight) one ``(B*m, k) @ (k, n)`` call is several times faster.  Each
    output row is the same row-times-matrix product either way, so the
    fold does not change results on the BLAS this repo pins via its
    serial-vs-batched parity tests.
    """
    if a.ndim > 2 and b.ndim == 2:
        lead = a.shape[:-1]
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(*lead, b.shape[-1])
    return a @ b


def matmul_backward(grad: np.ndarray, a_data: np.ndarray,
                    b_data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``a @ b`` w.r.t. both operands (numpy @ semantics)."""
    if a_data.ndim == 1 and b_data.ndim == 1:
        grad_a = grad * b_data
        grad_b = grad * a_data
    elif a_data.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        grad_a = (grad[..., None, :] * b_data).sum(axis=-1)
        grad_a = unbroadcast(grad_a, a_data.shape)
        grad_b = unbroadcast(a_data[..., :, None] * grad[..., None, :], b_data.shape)
    elif b_data.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        grad_a = unbroadcast(grad[..., :, None] * b_data, a_data.shape)
        grad_b = (a_data * grad[..., :, None]).reshape(-1, a_data.shape[-1]).sum(axis=0)
    else:
        grad_a = unbroadcast(flat_matmul(grad, np.swapaxes(b_data, -1, -2)),
                             a_data.shape)
        if b_data.ndim == 2 and a_data.ndim > 2:
            # Batched rows against one shared matrix: fold the batch axes
            # into the contraction and run a single flat GEMM instead of
            # materialising a (batch, k, n) stack that unbroadcast would
            # immediately reduce away — the hot layout for batched decode
            # (every Linear applies one weight to (B, rows, k) inputs).
            a_flat = a_data.reshape(-1, a_data.shape[-1])
            grad_b = a_flat.T @ grad.reshape(-1, grad.shape[-1])
        else:
            grad_b = unbroadcast(np.swapaxes(a_data, -1, -2) @ grad,
                                 b_data.shape)
    return grad_a, grad_b


def matmul(a, b) -> Tensor:
    """Matrix product supporting batched operands (numpy @ semantics)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = flat_matmul(a.data, b.data)

    def backward(grad):
        return matmul_backward(grad, a.data, b.data)

    return Tensor._make(out_data, (a, b), backward)


# --------------------------------------------------------------------- #
# Elementwise nonlinearities
# --------------------------------------------------------------------- #
def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return Tensor._make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / out_data,)

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data ** 2),)

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    """Elementwise logistic sigmoid."""
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    """Elementwise rectified linear unit ``max(a, 0)``."""
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (a.data > 0.0),)

    return Tensor._make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------- #
def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all elements when None)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        grad_arr = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                grad_arr = np.expand_dims(grad_arr, ax)
        return (np.broadcast_to(grad_arr, a.shape).copy(),)

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (all elements when None)."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(grad):
        grad_arr = np.asarray(grad) / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                grad_arr = np.expand_dims(grad_arr, ax)
        return (np.broadcast_to(grad_arr, a.shape).copy(),)

    return Tensor._make(out_data, (a,), backward)


def max(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; ties share the gradient equally."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad):
        grad_arr = np.asarray(grad)
        out_expanded = out_data
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                grad_arr = np.expand_dims(grad_arr, ax)
                out_expanded = np.expand_dims(out_expanded, ax)
        mask = (a.data == out_expanded).astype(np.float64)
        # Split gradient equally among ties, matching subgradient convention.
        mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return (mask * grad_arr,)

    return Tensor._make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------- #
def reshape(a, shape) -> Tensor:
    """View ``a`` with a new shape."""
    a = as_tensor(a)
    original_shape = a.shape
    out_data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(original_shape),)

    return Tensor._make(out_data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is None)."""
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad):
        return (grad.transpose(inverse),)

    return Tensor._make(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    split_points = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, split_points, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        moved = np.moveaxis(grad, axis, 0)
        return tuple(moved[i] for i in range(len(tensors)))

    return Tensor._make(out_data, tuple(tensors), backward)


def getitem(a, index) -> Tensor:
    """Differentiable indexing/slicing ``a[index]``."""
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return Tensor._make(out_data, (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """Select rows ``a[indices]`` along axis 0 (differentiable embedding lookup)."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, grad)
        return (full,)

    return Tensor._make(out_data, (a,), backward)


def scatter_rows(base, indices, rows) -> Tensor:
    """Functional row update: ``out = base; out[indices] = rows``.

    ``indices`` must be unique (last-write-wins semantics are not
    differentiable); rows of ``base`` not listed pass through unchanged.
    Backward routes the incoming gradient to ``rows`` at the scattered
    positions and to ``base`` everywhere else — each output row has
    exactly one producer, so no gradient is double-counted.  Used to
    maintain per-rollout embedding banks across decoding steps without
    rebuilding the whole tensor each step.
    """
    base, rows = as_tensor(base), as_tensor(rows)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = base.data.copy()
    out_data[idx] = rows.data

    def backward(grad):
        grad_base = grad.copy()
        grad_base[idx] = 0.0
        return grad_base, grad[idx]

    return Tensor._make(out_data, (base, rows), backward)


def pointer_keys(table, indices, extra=None, weight=None) -> Tensor:
    """Pointer keys ``table[indices] + extra @ weight[-e:]`` as one node.

    ``table`` holds precomputed static key projections; ``indices`` picks
    rows of it (any index shape, e.g. ``(m,)`` or padded ``(K, m_max)``).
    ``extra`` carries ``e`` per-key step features projected through the
    trailing ``e`` rows of ``weight``.
    The forward runs the same numpy arithmetic as ``gather_rows`` +
    ``matmul`` + ``add``, so results are bit-identical to that chain, but
    the graph keeps one output instead of three.  Backward is a
    scatter-add into ``table`` plus one flat GEMM for the weight rows.
    """
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = table.data[idx]
    if extra is None:
        parents = (table,)
    else:
        extra, weight = as_tensor(extra), as_tensor(weight)
        start = weight.shape[0] - extra.shape[-1]
        out_data = out_data + flat_matmul(extra.data, weight.data[start:])
        parents = (table, extra, weight)

    def backward(grad):
        grad_table = np.zeros_like(table.data)
        np.add.at(grad_table, idx, grad)
        if extra is None:
            return (grad_table,)
        grad_weight = np.zeros_like(weight.data)
        grad_weight[start:] = (extra.data.reshape(-1, extra.shape[-1]).T
                               @ grad.reshape(-1, grad.shape[-1]))
        grad_extra = (flat_matmul(grad, weight.data[start:].T)
                      if extra.requires_grad else None)
        return grad_table, grad_extra, grad_weight

    return Tensor._make(out_data, parents, backward)


def attention_core(q, k, v, scale: float, mask=None) -> Tensor:
    """``softmax(scale * Q K^T, masked) V`` as one graph node.

    Runs the arithmetic of ``matmul`` + ``transpose``, ``mul``,
    ``masked_fill``, ``softmax`` and ``matmul`` in the same IEEE order,
    so results are bit-identical to that chain, but the score tensor is
    one buffer updated in place (scale, masked fill, max-shift, exp,
    normalise) instead of five fresh ``(..., n_q, n_k)`` arrays.  It ends
    up holding the softmax weights, which the backward reuses.  ``mask``
    (True = disallowed) must broadcast to the score shape; it is copied,
    like :func:`masked_fill` does.  The backward replays the chain's
    backward ops in order and returns gradients for ``(q, k, v)``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    k_t = k.data.transpose(axes)
    weights = flat_matmul(q.data, k_t)
    weights *= scale
    if mask is not None:
        mask = np.array(mask, dtype=bool, copy=True)
        np.copyto(weights, NEG_INF, where=mask)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out_data = flat_matmul(weights, v.data)

    def backward(grad):
        grad_w, grad_v = matmul_backward(grad, weights, v.data)
        dot = (grad_w * weights).sum(axis=-1, keepdims=True)
        grad_s = weights * (grad_w - dot)
        if mask is not None:
            grad_s = np.where(mask, 0.0, grad_s)
        grad_q, grad_k_t = matmul_backward(grad_s * scale, q.data, k_t)
        return grad_q, grad_k_t.transpose(axes), grad_v

    return Tensor._make(out_data, (q, k, v), backward)


def ffn_block(x, w1, b1, w2, b2) -> Tensor:
    """Feed-forward block ``relu(x W1 + b1) W2 + b2`` as one graph node.

    Same IEEE op order as ``matmul``/``add``/``relu``/``matmul``/``add``
    (bit-identical results), with the bias add and the relu applied in
    place to one hidden buffer; the backward replays the chain's
    backward ops in order.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    hidden = flat_matmul(x.data, w1.data)
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out_data = flat_matmul(hidden, w2.data)
    out_data += b2.data

    def backward(grad):
        grad_b2 = unbroadcast(grad, b2.shape)
        grad_h, grad_w2 = matmul_backward(grad, hidden, w2.data)
        # relu(h) > 0 exactly where h > 0, so the mask needs no copy of h.
        grad_h = grad_h * (hidden > 0.0)
        grad_b1 = unbroadcast(grad_h, b1.shape)
        grad_x, grad_w1 = matmul_backward(grad_h, x.data, w1.data)
        return grad_x, grad_w1, grad_b1, grad_w2, grad_b2

    return Tensor._make(out_data, (x, w1, b1, w2, b2), backward)


# --------------------------------------------------------------------- #
# Softmax family and masking
# --------------------------------------------------------------------- #
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (a,), backward)


def clip_tanh(a, clip: float) -> Tensor:
    """``clip * tanh(a)`` — the logit clipping of Bello et al. / Kool et al."""
    a = as_tensor(a)
    t = np.tanh(a.data)
    out_data = clip * t

    def backward(grad):
        return (grad * clip * (1.0 - t ** 2),)

    return Tensor._make(out_data, (a,), backward)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where ``mask`` is True with ``value`` (no grad there).

    The mask is copied: callers may mutate their mask arrays between the
    forward pass and ``backward()`` (the pointer decoders update their
    ``visited`` mask in place every step).
    """
    a = as_tensor(a)
    mask_arr = np.array(mask, dtype=bool, copy=True)
    out_data = np.where(mask_arr, value, a.data)

    def backward(grad):
        return (np.where(mask_arr, 0.0, grad),)

    return Tensor._make(out_data, (a,), backward)


def where(condition, a, b) -> Tensor:
    """Elementwise select: ``a`` where condition else ``b``."""
    cond = np.array(condition, dtype=bool, copy=True)  # guard vs mutation
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(np.where(cond, grad, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, grad), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def broadcast_to(a, shape) -> Tensor:
    """Broadcast ``a`` to ``shape`` (numpy rules); backward sums the
    expanded axes back down via :func:`unbroadcast`.

    Used by the batched decoders to share per-instance static embeddings
    (computed once) across a leading rollout axis.
    """
    a = as_tensor(a)
    out_data = np.broadcast_to(a.data, shape).copy()

    def backward(grad):
        return (unbroadcast(grad, a.shape),)

    return Tensor._make(out_data, (a,), backward)


def masked_softmax(a, mask, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` restricted to entries where ``mask`` is False.

    ``mask`` is boolean, broadcastable to ``a.shape``, with True marking
    *disallowed* (e.g. padded) positions: they get probability exactly 0.0
    and receive no gradient, so padded rows cannot leak into real ones.
    Fully masked rows yield all-zero probabilities (never NaN) — the
    convention the batched decode engine relies on for variable-length
    candidate sets padded to a common width.
    """
    a = as_tensor(a)
    mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape).copy()
    neg = np.where(mask_arr, -np.inf, a.data)
    row_max = neg.max(axis=axis, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exps = np.where(mask_arr, 0.0, np.exp(neg - safe_max))
    denom = exps.sum(axis=axis, keepdims=True)
    out_data = exps / np.where(denom == 0.0, 1.0, denom)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (np.where(mask_arr, 0.0, out_data * (grad - dot)),)

    return Tensor._make(out_data, (a,), backward)


def masked_log_softmax(a, mask, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` over the entries where ``mask`` is False.

    Masked positions output the constant ``NEG_INF`` with zero gradient;
    unmasked positions match :func:`log_softmax` over the unmasked subset
    bit-for-bit when the row carries no padding (the normalising sum then
    runs over the identical entries in the identical order).  Fully masked
    rows output ``NEG_INF`` everywhere.
    """
    a = as_tensor(a)
    mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape).copy()
    neg = np.where(mask_arr, -np.inf, a.data)
    row_max = neg.max(axis=axis, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    shifted = a.data - safe_max
    exps = np.where(mask_arr, 0.0, np.exp(shifted))
    denom = exps.sum(axis=axis, keepdims=True)
    log_norm = np.log(np.where(denom == 0.0, 1.0, denom))
    out_data = np.where(mask_arr, NEG_INF, shifted - log_norm)
    soft = np.where(mask_arr, 0.0, np.exp(out_data))

    def backward(grad):
        gsum = np.where(mask_arr, 0.0, grad).sum(axis=axis, keepdims=True)
        return (np.where(mask_arr, 0.0, grad - soft * gsum),)

    return Tensor._make(out_data, (a,), backward)


def masked_mean(a, mask, axis: int) -> Tensor:
    """Mean over ``axis`` counting only entries where ``mask`` is False.

    ``mask`` must broadcast to ``a.shape`` (True = excluded/padded).  Rows
    whose every entry is masked yield 0.0 — matching the all-zero
    embedding the serial policy uses for workers with no assigned tasks.
    Composed from primitive ops, so gradients need no custom backward.
    """
    a = as_tensor(a)
    mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    counts = np.maximum((~mask_arr).sum(axis=axis), 1)
    zeroed = where(mask_arr, Tensor(0.0), a)
    return div(sum(zeroed, axis=axis), counts.astype(np.float64))


def pad_stack(arrays, pad_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length arrays into one padded batch plus its mask.

    ``arrays`` is a sequence of numpy arrays shaped ``(n_i, ...)`` with
    identical trailing dimensions.  Returns ``(batch, mask)`` where
    ``batch`` has shape ``(B, n_max, ...)`` with short rows padded by
    ``pad_value`` and ``mask`` is boolean ``(B, n_max)`` with True marking
    the padded tail — the convention every ``masked_*`` op above expects.
    Plain-numpy utility (no autograd): use it for feature/signal arrays;
    pad differentiable embeddings via index matrices + :func:`gather_rows`.
    """
    # Skip the per-array ``asarray`` copy when callers already hold
    # contiguous float64 ndarrays (the decode hot loop always does).
    float64 = np.dtype(np.float64)
    arrays = [arr if type(arr) is np.ndarray and arr.dtype == float64
              else np.asarray(arr, dtype=np.float64) for arr in arrays]
    # ``max`` is shadowed by the reduction op above.
    n_max = builtins.max((arr.shape[0] for arr in arrays), default=0)
    trailing = arrays[0].shape[1:] if arrays else ()
    for i, arr in enumerate(arrays):
        if arr.shape[1:] != trailing:
            raise ValueError(
                "pad_stack arrays must share trailing dimensions: array 0 "
                f"has shape {arrays[0].shape}, array {i} has {arr.shape} "
                "(only the leading axis may vary)")
    out_shape = (len(arrays), n_max) + trailing
    if pad_value == 0.0:
        batch = np.zeros(out_shape)
    else:
        batch = np.full(out_shape, float(pad_value))
    mask = np.ones((len(arrays), n_max), dtype=bool)
    for i, arr in enumerate(arrays):
        n = arr.shape[0]
        batch[i, :n] = arr
        mask[i, :n] = False
    return batch, mask


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep
    out_data = a.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Profiler instrumentation
# --------------------------------------------------------------------- #
# Every public op is rebound to its instrumented wrapper at import time.
# Rebinding the *module globals* (not just ``__all__`` exports) matters:
# composite ops such as ``masked_mean`` call ``where``/``sum``/``div``
# through this namespace, so their constituents nest naturally under the
# composite frame in stack-aware hooks.  ``pad_stack`` is a plain-numpy
# utility (no Tensor output) and stays unwrapped.
for _name in __all__:
    if _name == "pad_stack":
        continue
    globals()[_name] = instrument_op(globals()[_name], _name)
del _name
