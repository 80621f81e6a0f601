"""FLOP and byte cost models for the autograd engine's ops.

The op-level profiler (:mod:`repro.obs.profile`) attributes *estimated*
floating-point operations and bytes moved to every recorded op.  The
models here are deliberately simple and documented so their error bars
are known:

* **matmul** is exact up to the fused multiply-add convention: one
  multiply plus one add per inner-product term, i.e. ``2 * prod(out) *
  K`` FLOPs for a ``(..., M, K) @ (..., K, N)`` product (vector operands
  follow the same formula with the contracted axis as ``K``).
* **elementwise** ops count a small constant per output element (1 for
  ``add``/``mul``/``relu``; transcendental ops like ``exp``/``tanh``
  count 1 — hardware cost varies by an order of magnitude, so treat
  transcendental-heavy totals as lower bounds).
* **reductions** count ``cost * input elements``.
* **softmax-family** ops count max + subtract + exp + sum + divide
  passes (~5 per element; masked variants add the mask select passes).
* **attention_core** counts its two products at the matmul rate plus
  the score scaling, the softmax passes and (when masked) the masked
  fill — :func:`attention_flops` plus one pass per masked score;
  **ffn_block** counts its two products and bias adds at the
  :func:`linear_flops` rate plus one relu pass over the hidden layer.
* **shape ops** (reshape/transpose/concat/stack/getitem/gather) count 0
  FLOPs — they move bytes, which the byte model captures.
* **backward** closures are charged twice their op's forward FLOPs (the
  standard reverse-mode rule of thumb; exact for matmul, whose backward
  is two products of the same dimensions).

Bytes are counted as ``8 * (input elements + output elements)`` —
float64 traffic through the op, ignoring cache reuse.

Closed-form module-level counts (:func:`linear_flops`,
:func:`attention_flops`, :func:`mha_flops`) express the same matmul
convention at the layer level; the profile regression benchmark checks
that profiler-recorded ``matmul`` plus ``attention_core`` totals for
known-shape attention forwards match these within 1%.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flop_count", "byte_count", "estimate", "estimate_backward",
           "linear_flops", "attention_flops", "mha_flops",
           "ELEMENTWISE_COST", "REDUCTION_COST", "SOFTMAX_COST",
           "BACKWARD_FACTOR"]

#: FLOPs per *output* element for elementwise ops.
ELEMENTWISE_COST = {
    "add": 1, "sub": 1, "mul": 1, "div": 1, "neg": 1, "abs": 1,
    "power": 2, "exp": 1, "log": 1, "sqrt": 1, "tanh": 1, "sigmoid": 3,
    "relu": 1, "clip_tanh": 2, "where": 1, "masked_fill": 1, "dropout": 2,
}

#: FLOPs per *input* element for reductions.
REDUCTION_COST = {"sum": 1, "mean": 1, "max": 1}

#: FLOPs per element for the softmax family (max/shift/exp/sum/div passes).
SOFTMAX_COST = {"softmax": 5, "log_softmax": 5,
                "masked_softmax": 7, "masked_log_softmax": 7}

#: Ops that move data without arithmetic.
_ZERO_COST = {"reshape", "transpose", "concat", "stack", "getitem",
              "gather_rows", "broadcast_to", "masked_mean"}
# masked_mean composes where/sum/div, which are themselves recorded; a
# zero own-cost avoids double counting its constituents.

#: Backward FLOPs as a multiple of the op's forward FLOPs.
BACKWARD_FACTOR = 2

_ITEM_BYTES = 8  # float64


def _shapes_of(args) -> list[tuple[int, ...]]:
    """Array shapes of an op's positional arguments (lists flattened)."""
    shapes = []
    for arg in args:
        data = getattr(arg, "data", arg)
        if isinstance(data, np.ndarray):
            shapes.append(data.shape)
        elif isinstance(data, (list, tuple)):
            for item in data:
                inner = getattr(item, "data", item)
                if isinstance(inner, np.ndarray):
                    shapes.append(inner.shape)
    return shapes


def _elements(shape) -> int:
    return int(np.prod(shape)) if shape else 1


def flop_count(name: str, in_shapes, out_shape) -> int:
    """Estimated forward FLOPs for op ``name`` given its shapes."""
    out_elems = _elements(out_shape) if out_shape is not None else 0
    if name == "matmul":
        if len(in_shapes) < 2:
            return 0
        a_shape, b_shape = in_shapes[0], in_shapes[1]
        k = a_shape[-1] if a_shape else 1
        if len(a_shape) == 1 and len(b_shape) == 1:
            return 2 * k
        return 2 * out_elems * k
    if name == "pointer_keys":
        # Forward args and backward parents both end (extra, weight);
        # without extra the op is a pure gather.
        if len(in_shapes) < 3:
            return 0
        return 2 * out_elems * in_shapes[-2][-1] + out_elems
    if name == "attention_core":
        # Args and backward parents both start (q, k, v); a fourth
        # forward shape is the mask.
        if len(in_shapes) < 3 or not out_elems:
            return 0
        d_k, n_k = in_shapes[0][-1], in_shapes[1][-2]
        scores = out_elems // out_shape[-1] * n_k
        flops = 2 * scores * (d_k + out_shape[-1])     # the two products
        flops += scores                                 # 1/sqrt(d) scaling
        flops += SOFTMAX_COST["softmax"] * scores
        if len(in_shapes) > 3:
            flops += ELEMENTWISE_COST["masked_fill"] * scores
        return flops
    if name == "ffn_block":
        # (x, w1, b1, w2, b2): two affine maps and a relu in between.
        if len(in_shapes) < 5 or not out_elems:
            return 0
        d_in, d_ff = in_shapes[1]
        rows = out_elems // out_shape[-1]
        return (linear_flops(rows, d_in, d_ff)
                + ELEMENTWISE_COST["relu"] * rows * d_ff
                + linear_flops(rows, d_ff, out_shape[-1]))
    if name in _ZERO_COST:
        return 0
    if name in REDUCTION_COST:
        in_elems = _elements(in_shapes[0]) if in_shapes else out_elems
        return REDUCTION_COST[name] * in_elems
    if name in SOFTMAX_COST:
        return SOFTMAX_COST[name] * out_elems
    return ELEMENTWISE_COST.get(name, 1) * out_elems


def byte_count(in_shapes, out_shape) -> int:
    """float64 bytes read plus written by an op with the given shapes."""
    total = sum(_elements(s) for s in in_shapes)
    if out_shape is not None:
        total += _elements(out_shape)
    return _ITEM_BYTES * total


def estimate(name: str, args, out) -> tuple[int, int]:
    """(FLOPs, bytes) for a recorded forward op from its raw args/result.

    ``out`` is the op's return value — a Tensor for differentiable ops,
    None when the op raised; non-array results contribute no output
    elements.
    """
    in_shapes = _shapes_of(args)
    out_data = getattr(out, "data", out)
    out_shape = out_data.shape if isinstance(out_data, np.ndarray) else None
    return flop_count(name, in_shapes, out_shape), \
        byte_count(in_shapes, out_shape)


def estimate_backward(name: str, node) -> tuple[int, int]:
    """(FLOPs, bytes) for one backward closure of graph node ``node``.

    Charged as :data:`BACKWARD_FACTOR` times the forward cost rebuilt
    from the node's parents and output; bytes cover the incoming gradient
    plus one gradient per parent.
    """
    parent_shapes = [p.data.shape for p in node._parents]
    out_shape = node.data.shape
    flops = BACKWARD_FACTOR * flop_count(name, parent_shapes, out_shape)
    nbytes = _ITEM_BYTES * (_elements(out_shape)
                            + sum(_elements(s) for s in parent_shapes))
    return flops, nbytes


# --------------------------------------------------------------------- #
# Closed-form module-level counts
# --------------------------------------------------------------------- #
def linear_flops(rows: int, in_features: int, out_features: int,
                 bias: bool = True) -> int:
    """FLOPs of ``Linear`` over ``rows`` input rows (matmul + bias add)."""
    flops = 2 * rows * in_features * out_features
    if bias:
        flops += rows * out_features
    return flops


def attention_flops(batch: int, heads: int, n_q: int, n_k: int,
                    d_head: int, matmul_only: bool = False) -> int:
    """FLOPs of scaled dot-product attention at the given score shape.

    Counts the two products ``Q K^T`` and ``weights @ V`` (each
    ``2 * B * H * n_q * n_k * d_head``); with ``matmul_only=False`` the
    score scaling and softmax passes are added.
    """
    scores = batch * heads * n_q * n_k
    flops = 2 * 2 * scores * d_head
    if not matmul_only:
        flops += scores                          # 1/sqrt(d) scaling
        flops += SOFTMAX_COST["softmax"] * scores
    return flops


def mha_flops(batch: int, n: int, d_model: int, num_heads: int,
              matmul_only: bool = False) -> int:
    """FLOPs of one ``MultiHeadAttention`` self-attention forward.

    Four bias-free ``d_model x d_model`` projections (q, k, v, o) over
    ``batch * n`` rows plus the per-head attention core.
    """
    rows = batch * n
    flops = 4 * linear_flops(rows, d_model, d_model, bias=False)
    flops += attention_flops(batch, num_heads, n, n, d_model // num_heads,
                             matmul_only=matmul_only)
    return flops
