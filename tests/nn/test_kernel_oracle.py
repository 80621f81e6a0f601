"""The one-node attention core and feed-forward block against their oracle.

``ops.attention_core`` and ``ops.ffn_block`` must equal the composed
primitive chains of :mod:`tests.nn.oracle` bitwise: forward values and
every gradient, unbatched and batched, with and without masks, under
grad and ``no_grad``, and through a REINFORCE update.
"""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn import ops

from . import oracle


def _leaf(rng, shape):
    return nn.Tensor(rng.normal(size=shape), requires_grad=True)


def _grads_of(run, leaves, seed):
    """Forward value plus every leaf gradient under a random upstream grad."""
    for leaf in leaves:
        leaf.zero_grad()
    out = run()
    upstream = np.random.default_rng(seed).normal(size=out.shape)
    out.backward(upstream)
    return out.data.copy(), [leaf.grad.copy() for leaf in leaves]


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _attention_masks(shape):
    """None, a key-padding mask (``(B, 1, 1, n_k)``-style) and a full one."""
    *lead, n_q, n_k = shape
    padding = np.zeros(tuple(lead[:-1]) + (1, 1, n_k), dtype=bool)
    padding[..., n_k - 2:] = True
    full = np.random.default_rng(9).random(shape) < 0.3
    full[..., 0] = False  # keep every row partly unmasked
    return [None, padding, full]


ATTENTION_SHAPES = [
    ((2, 5, 4), (2, 7, 4)),            # unbatched: (H, n, d_head)
    ((3, 2, 6, 4), (3, 2, 6, 4)),      # batched: (B, H, n, d_head)
]


class TestAttentionCore:
    @pytest.mark.parametrize("shapes", ATTENTION_SHAPES)
    @pytest.mark.parametrize("mask_kind", [0, 1, 2])
    def test_forward_and_grads_match_oracle(self, shapes, mask_kind):
        q_shape, k_shape = shapes
        rng = np.random.default_rng(1)
        q, k, v = _leaf(rng, q_shape), _leaf(rng, k_shape), _leaf(rng, k_shape)
        mask = _attention_masks(q_shape[:-1] + k_shape[-2:-1])[mask_kind]
        scale = 1.0 / math.sqrt(q_shape[-1])
        got = _grads_of(lambda: ops.attention_core(q, k, v, scale, mask),
                        (q, k, v), seed=2)
        want = _grads_of(lambda: oracle.attention(q, k, v, mask),
                         (q, k, v), seed=2)
        _assert_bitwise(got[0], want[0])
        for g, w in zip(got[1], want[1]):
            _assert_bitwise(g, w)

    @pytest.mark.parametrize("shapes", ATTENTION_SHAPES)
    def test_no_grad_forward_matches_oracle(self, shapes):
        q_shape, k_shape = shapes
        rng = np.random.default_rng(3)
        q, k, v = _leaf(rng, q_shape), _leaf(rng, k_shape), _leaf(rng, k_shape)
        mask = _attention_masks(q_shape[:-1] + k_shape[-2:-1])[1]
        with nn.no_grad():
            got = ops.attention_core(q, k, v, 1.0 / math.sqrt(q_shape[-1]),
                                     mask)
            want = oracle.attention(q, k, v, mask)
        assert not got.requires_grad
        _assert_bitwise(got.data, want.data)

    def test_mask_is_copied(self):
        rng = np.random.default_rng(4)
        q, k, v = (_leaf(rng, (2, 3, 4)) for _ in range(3))
        mask = np.zeros((2, 3, 3), dtype=bool)
        mask[:, :, 2] = True
        want = _grads_of(lambda: oracle.attention(q, k, v, mask.copy()),
                         (q, k, v), seed=5)
        for leaf in (q, k, v):
            leaf.zero_grad()
        out = ops.attention_core(q, k, v, 0.5, mask)
        mask[:] = False  # callers may reuse their mask before backward
        out.backward(np.random.default_rng(5).normal(size=out.shape))
        for leaf, w in zip((q, k, v), want[1]):
            _assert_bitwise(leaf.grad, w)


class TestFFNBlock:
    @pytest.mark.parametrize("x_shape", [(6, 8), (3, 5, 8)])
    def test_forward_and_grads_match_oracle(self, x_shape):
        rng = np.random.default_rng(6)
        x = _leaf(rng, x_shape)
        params = [_leaf(rng, (8, 12)), _leaf(rng, (12,)),
                  _leaf(rng, (12, 8)), _leaf(rng, (8,))]
        leaves = [x] + params
        got = _grads_of(lambda: ops.ffn_block(x, *params), leaves, seed=7)
        want = _grads_of(lambda: oracle.ffn(x, *params), leaves, seed=7)
        _assert_bitwise(got[0], want[0])
        for g, w in zip(got[1], want[1]):
            _assert_bitwise(g, w)

    def test_no_grad_forward_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = _leaf(rng, (3, 5, 8))
        params = [_leaf(rng, (8, 12)), _leaf(rng, (12,)),
                  _leaf(rng, (12, 8)), _leaf(rng, (8,))]
        with nn.no_grad():
            got = ops.ffn_block(x, *params)
            want = oracle.ffn(x, *params)
        assert not got.requires_grad
        _assert_bitwise(got.data, want.data)


def _encoder_run(encoder, x, padding):
    """Forward + backward of a self-attention encoder stack; returns the
    output and every parameter gradient plus the input gradient."""
    for p in encoder.parameters():
        p.zero_grad()
    x.zero_grad()
    out = encoder(x, key_padding_mask=padding)
    ops.sum(ops.mul(out, out)).backward()
    return [out.data.copy(), x.grad.copy()] + [
        p.grad.copy() for p in encoder.parameters()]


class _Stack(nn.Module):
    """Two encoder layers sharing their input, with key padding."""

    def __init__(self, rng):
        super().__init__()
        self.mha = nn.MultiHeadAttention(8, 2, rng=rng)
        self.layer = nn.TransformerEncoderLayer(8, 2, rng=rng)

    def forward(self, x, key_padding_mask=None):
        attended = self.mha(x, key_padding_mask=key_padding_mask)
        padding = key_padding_mask
        if padding is not None:
            padding = padding[..., None, None, :] if x.ndim == 3 \
                else padding[None, None, :]
        return self.layer(ops.add(x, attended), mask=padding)


class TestThroughLayers:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("padded", [False, True])
    def test_encoder_bitwise_with_oracle(self, monkeypatch, batched, padded):
        rng = np.random.default_rng(10)
        stack = _Stack(rng)
        shape = (3, 6, 8) if batched else (6, 8)
        x = _leaf(rng, shape)
        padding = None
        if padded:
            padding = np.zeros(shape[:-1], dtype=bool)
            padding[..., 4:] = True
        got = _encoder_run(stack, x, padding)
        with monkeypatch.context() as patch:
            oracle.install(patch)
            want = _encoder_run(stack, x, padding)
        for g, w in zip(got, want):
            _assert_bitwise(g, w)


def test_reinforce_weights_bitwise_with_oracle(monkeypatch):
    """Two REINFORCE iterations give identical policy and critic weights."""
    from repro.datasets.instances import InstanceOptions, generate_instances
    from repro.smore import (TASNet, TASNetConfig, TASNetPolicy,
                             TASNetTrainer, TrainingConfig)
    from repro.tsptw import InsertionSolver

    instances = generate_instances(
        "delivery", 2, seed=7,
        options=InstanceOptions(task_density=0.04, budget=120.0))
    grid = instances[0].coverage.grid

    def train():
        net = TASNet(TASNetConfig(d_model=16, num_heads=2, num_layers=2,
                                  conv_channels=4),
                     grid_nx=grid.nx, grid_ny=grid.ny,
                     rng=np.random.default_rng(0))
        trainer = TASNetTrainer(
            TASNetPolicy(net), InsertionSolver(),
            TrainingConfig(batch_size=2, rollouts_per_instance=2, seed=3))
        for _ in range(2):
            trainer.train_iteration(instances)
        params = list(trainer.policy.parameters())
        params += list(trainer.critic.parameters())
        return [p.data.copy() for p in params]

    got = train()
    with monkeypatch.context() as patch:
        oracle.install(patch)
        want = train()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_bitwise(g, w)
