"""Batched/masked ops: forward semantics, FD gradients, batched attention.

The batched decode engine rides on a small set of padding-aware
primitives — masked (log-)softmax, masked mean, broadcast, ``pad_stack``
— plus batched forms of multi-head and pointer attention.  These tests
pin three things: finite-difference-verified backward passes (including
fully-masked rows), exact zero gradient flow into padded positions, and
bit-level agreement between one batched forward over padded sets and the
per-item unbatched forwards it replaces.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import MultiHeadAttention, PointerAttention, Tensor, ops

from .gradcheck import check_gradient

#: Every test runs on the one kernel implementation; the fixture
#: records its name in the test id.
pytestmark = pytest.mark.usefixtures("nn_backend")


def _mask_3x5():
    """A (3, 5) padding mask: rows with 0, 2 and all 5 masked entries."""
    mask = np.zeros((3, 5), dtype=bool)
    mask[1, 3:] = True
    mask[2, :] = True
    return mask


# --------------------------------------------------------------------- #
# Forward semantics
# --------------------------------------------------------------------- #
def test_masked_softmax_matches_plain_softmax_without_padding():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6))
    mask = np.zeros((4, 6), dtype=bool)
    plain = ops.softmax(Tensor(x)).data
    masked = ops.masked_softmax(Tensor(x), mask).data
    np.testing.assert_array_equal(masked, plain)


def test_masked_softmax_padded_entries_are_exact_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5))
    mask = _mask_3x5()
    out = ops.masked_softmax(Tensor(x), mask).data
    assert np.all(out[mask] == 0.0)
    # Unpadded rows still normalise to 1; the fully-masked row is all 0.
    np.testing.assert_allclose(out[0].sum(), 1.0)
    np.testing.assert_allclose(out[1].sum(), 1.0)
    assert np.all(out[2] == 0.0)
    # Each live prefix equals the softmax of the unpadded slice.
    np.testing.assert_allclose(out[1, :3],
                               ops.softmax(Tensor(x[1, :3])).data)


def test_masked_log_softmax_matches_log_softmax_on_live_slices():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    mask = _mask_3x5()
    out = ops.masked_log_softmax(Tensor(x), mask).data
    np.testing.assert_array_equal(out[0],
                                  ops.log_softmax(Tensor(x[0])).data)
    np.testing.assert_array_equal(out[1, :3],
                                  ops.log_softmax(Tensor(x[1, :3])).data)
    assert np.all(out[mask] == ops.NEG_INF)
    assert np.all(np.isfinite(out[:2][~mask[:2]]))


def test_masked_mean_ignores_padding_and_empty_rows():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 5))
    mask = _mask_3x5()
    out = ops.masked_mean(Tensor(x), mask, axis=1).data
    np.testing.assert_allclose(out[0], x[0].mean())
    np.testing.assert_allclose(out[1], x[1, :3].mean())
    assert out[2] == 0.0  # empty row -> defined as zero, not NaN


def test_pad_stack_shapes_and_mask():
    rows = [np.arange(3.0), np.arange(5.0), np.array([])]
    batch, mask = nn.pad_stack(rows, pad_value=-1.0)
    assert batch.shape == (3, 5) and mask.shape == (3, 5)
    np.testing.assert_array_equal(batch[0], [0, 1, 2, -1, -1])
    np.testing.assert_array_equal(batch[1], [0, 1, 2, 3, 4])
    np.testing.assert_array_equal(batch[2], [-1] * 5)
    np.testing.assert_array_equal(
        mask, [[False, False, False, True, True],
               [False] * 5,
               [True] * 5])


def test_pad_stack_trailing_dims():
    rows = [np.ones((2, 4)), np.zeros((0, 4)), 2.0 * np.ones((1, 4))]
    batch, mask = nn.pad_stack(rows)
    assert batch.shape == (3, 2, 4)
    np.testing.assert_array_equal(mask,
                                  [[False, False], [True, True],
                                   [False, True]])
    assert np.all(batch[1] == 0.0) and np.all(batch[2, 1] == 0.0)


def test_broadcast_to_forward_and_gradient():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3))
    out = ops.broadcast_to(Tensor(x), (4, 2, 3))
    np.testing.assert_array_equal(out.data, np.broadcast_to(x, (4, 2, 3)))
    check_gradient(
        lambda t: ops.sum(ops.broadcast_to(t, (4, 2, 3)) ** 2.0),
        (2, 3), rng)


# --------------------------------------------------------------------- #
# Finite-difference gradients
# --------------------------------------------------------------------- #
def test_masked_softmax_gradient():
    rng = np.random.default_rng(5)
    mask = _mask_3x5()
    weights = rng.normal(size=(3, 5))

    def build(t):
        return ops.sum(ops.masked_softmax(t, mask) * Tensor(weights))

    check_gradient(build, (3, 5), rng)


def test_masked_log_softmax_gradient():
    rng = np.random.default_rng(6)
    mask = _mask_3x5()
    # Zero weight on padded outputs: they are the NEG_INF constant, so a
    # finite-difference probe must not read them.
    weights = np.where(mask, 0.0, rng.normal(size=(3, 5)))

    def build(t):
        return ops.sum(ops.masked_log_softmax(t, mask) * Tensor(weights))

    check_gradient(build, (3, 5), rng)


def test_masked_mean_gradient():
    rng = np.random.default_rng(7)
    mask = _mask_3x5()
    weights = rng.normal(size=(3,))

    def build(t):
        return ops.sum(ops.masked_mean(t, mask, axis=1) * Tensor(weights))

    check_gradient(build, (3, 5), rng)


@pytest.mark.parametrize("op", [ops.masked_softmax, ops.masked_log_softmax])
def test_masked_ops_zero_gradient_into_padding(op):
    rng = np.random.default_rng(8)
    mask = _mask_3x5()
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    weights = np.where(mask, 0.0, rng.normal(size=(3, 5)))
    ops.sum(op(x, mask) * Tensor(weights)).backward()
    assert np.all(x.grad[mask] == 0.0)
    assert np.all(x.grad[2] == 0.0)  # fully-masked row contributes nothing


# --------------------------------------------------------------------- #
# Batched attention vs. per-item reference
# --------------------------------------------------------------------- #
def test_batched_mha_matches_per_item_forward():
    rng = np.random.default_rng(9)
    mha = MultiHeadAttention(d_model=8, num_heads=2,
                             rng=np.random.default_rng(0))
    lengths = [5, 3, 1]
    items = [rng.normal(size=(n, 8)) for n in lengths]
    batch, mask = nn.pad_stack(items)
    out = mha(Tensor(batch), key_padding_mask=mask).data
    for k, item in enumerate(items):
        ref = mha(Tensor(item)).data
        np.testing.assert_allclose(out[k, :lengths[k]], ref,
                                   atol=1e-12, rtol=1e-12)


def test_batched_mha_key_padding_mask_gradcheck():
    rng = np.random.default_rng(10)
    mha = MultiHeadAttention(d_model=4, num_heads=2,
                             rng=np.random.default_rng(1))
    mask = np.array([[False, False, True], [False, True, True]])
    # Read only live outputs; padded queries attend too but are dropped.
    weights = np.where(mask[..., None], 0.0, rng.normal(size=(2, 3, 4)))

    def build(t):
        return ops.sum(mha(t, key_padding_mask=mask) * Tensor(weights))

    check_gradient(build, (2, 3, 4), rng)


def test_batched_pointer_attention_matches_serial():
    rng = np.random.default_rng(11)
    pointer = PointerAttention(d_query=6, d_key_in=4,
                               rng=np.random.default_rng(2))
    queries = rng.normal(size=(3, 6))
    keys = rng.normal(size=(3, 5, 4))
    mask = _mask_3x5()
    batched = pointer(Tensor(queries), Tensor(keys), mask=mask).data
    for k in range(3):
        serial = pointer(Tensor(queries[k]), Tensor(keys[k]),
                         mask=mask[k]).data
        np.testing.assert_allclose(batched[k], serial,
                                   atol=1e-12, rtol=1e-12)
