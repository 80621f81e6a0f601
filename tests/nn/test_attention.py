"""Tests for attention modules: MHA, Transformer encoder, pointer attention."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ops
from repro.nn.attention import scaled_dot_product_attention

#: Every test runs on the one kernel implementation; the fixture
#: records its name in the test id.
pytestmark = pytest.mark.usefixtures("nn_backend")


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestScaledDotProductAttention:
    def test_output_shape(self, rng):
        q = nn.Tensor(rng.normal(size=(2, 5, 8)))
        k = nn.Tensor(rng.normal(size=(2, 7, 8)))
        v = nn.Tensor(rng.normal(size=(2, 7, 8)))
        out = scaled_dot_product_attention(q, k, v)
        assert out.shape == (2, 5, 8)

    def test_uniform_attention_averages_values(self):
        # Zero queries/keys -> uniform weights -> output = mean of values.
        q = nn.Tensor(np.zeros((1, 2, 4)))
        k = nn.Tensor(np.zeros((1, 3, 4)))
        v = nn.Tensor(np.arange(12.0).reshape(1, 3, 4))
        out = scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(out.data[0, 0], v.data[0].mean(axis=0))

    def test_mask_excludes_positions(self, rng):
        q = nn.Tensor(rng.normal(size=(1, 1, 4)))
        k = nn.Tensor(rng.normal(size=(1, 3, 4)))
        v = nn.Tensor(np.array([[[1.0] * 4, [2.0] * 4, [3.0] * 4]]))
        mask = np.array([[[False, True, True]]])
        out = scaled_dot_product_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(out.data[0, 0], [1.0] * 4, atol=1e-6)


class TestMultiHeadAttention:
    def test_requires_divisible_heads(self, rng):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3, rng=rng)

    def test_self_attention_shape(self, rng):
        mha = nn.MultiHeadAttention(16, 4, rng=rng)
        out = mha(nn.Tensor(rng.normal(size=(6, 16))))
        assert out.shape == (6, 16)

    def test_cross_attention_shape(self, rng):
        mha = nn.MultiHeadAttention(16, 4, rng=rng)
        q = nn.Tensor(rng.normal(size=(2, 16)))
        kv = nn.Tensor(rng.normal(size=(9, 16)))
        out = mha(q, kv)
        assert out.shape == (2, 16)

    def test_gradients_reach_all_projections(self, rng):
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        out = mha(nn.Tensor(rng.normal(size=(4, 8))))
        ops.sum(out).backward()
        for name, param in mha.named_parameters():
            assert param.grad is not None, f"{name} got no gradient"

    def test_permutation_equivariance(self, rng):
        # Self-attention over a set commutes with permuting the rows.
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = mha(nn.Tensor(x)).data
        out_perm = mha(nn.Tensor(x[perm])).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-10)

    def test_batched_matches_per_sample(self, rng):
        # A (B, n, d) forward must equal B separate (n, d) forwards.
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        batch = rng.normal(size=(3, 5, 8))
        batched = mha(nn.Tensor(batch)).data
        for b in range(3):
            single = mha(nn.Tensor(batch[b])).data
            np.testing.assert_allclose(batched[b], single, atol=1e-10)

    def test_batched_gradients_flow(self, rng):
        mha = nn.MultiHeadAttention(8, 2, rng=rng)
        x = nn.Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        ops.sum(mha(x)).backward()
        assert x.grad is not None
        assert np.any(x.grad != 0)


class TestTransformerEncoder:
    def test_stack_depth(self, rng):
        enc = nn.TransformerEncoder(8, 2, 3, rng=rng)
        assert len(enc.layers) == 3

    def test_output_shape(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        out = enc(nn.Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_permutation_equivariance(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            enc(nn.Tensor(x)).data[perm], enc(nn.Tensor(x[perm])).data, atol=1e-9)

    def test_single_element_set(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        out = enc(nn.Tensor(rng.normal(size=(1, 8))))
        assert out.shape == (1, 8)
        assert np.all(np.isfinite(out.data))

    def test_batched_matches_per_sample(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        batch = rng.normal(size=(3, 6, 8))
        batched = enc(nn.Tensor(batch)).data
        for b in range(3):
            single = enc(nn.Tensor(batch[b])).data
            np.testing.assert_allclose(batched[b], single, atol=1e-9)

    def test_trainable_end_to_end(self, rng):
        enc = nn.TransformerEncoder(8, 2, 1, rng=rng)
        head = nn.Linear(8, 1, rng=rng)
        params = enc.parameters() + head.parameters()
        optimizer = nn.Adam(params, lr=1e-3)
        x = nn.Tensor(rng.normal(size=(5, 8)))
        target = nn.Tensor(rng.normal(size=(5, 1)))
        losses = []
        for _ in range(60):
            loss = ((head(enc(x)) - target) ** 2.0).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]


class TestPointerAttention:
    def test_logits_clipped(self, rng):
        ptr = nn.PointerAttention(8, 8, clip=10.0, rng=rng)
        q = nn.Tensor(rng.normal(size=8) * 100)
        keys = nn.Tensor(rng.normal(size=(6, 8)) * 100)
        logits = ptr(q, keys)
        assert np.all(np.abs(logits.data) <= 10.0 + 1e-9)

    def test_mask_sets_neg_inf(self, rng):
        ptr = nn.PointerAttention(8, 8, rng=rng)
        q = nn.Tensor(rng.normal(size=8))
        keys = nn.Tensor(rng.normal(size=(4, 8)))
        mask = np.array([True, False, True, False])
        logits = ptr(q, keys, mask=mask)
        assert logits.data[0] < -1e8
        assert logits.data[2] < -1e8
        assert abs(logits.data[1]) <= 10.0

    def test_masked_softmax_zero_probability(self, rng):
        ptr = nn.PointerAttention(8, 8, rng=rng)
        q = nn.Tensor(rng.normal(size=8))
        keys = nn.Tensor(rng.normal(size=(4, 8)))
        mask = np.array([True, False, False, False])
        probs = ops.softmax(ptr(q, keys, mask=mask)).data
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0)

    def test_different_key_input_dim(self, rng):
        ptr = nn.PointerAttention(12, 10, d_key=8, rng=rng)
        logits = ptr(nn.Tensor(rng.normal(size=12)),
                     nn.Tensor(rng.normal(size=(3, 10))))
        assert logits.shape == (3,)

    def test_gradient_flow(self, rng):
        ptr = nn.PointerAttention(8, 8, rng=rng)
        q = nn.Tensor(rng.normal(size=8), requires_grad=True)
        keys = nn.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        logp = ops.log_softmax(ptr(q, keys))
        logp[1].backward()
        assert q.grad is not None
        assert keys.grad is not None
