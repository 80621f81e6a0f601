"""Shape-heterogeneous batches through pad_stack and batched attention.

The serving path batches requests whose instances have different worker
and task counts (varying S, W), so every ragged set rides through
``pad_stack`` + ``key_padding_mask``.  The contract under test: padding
is *invisible* — each row of a padded batched forward matches the
un-padded serial forward on that row alone, and garbage in the padded
tail can never leak into valid positions.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import MultiHeadAttention, PointerAttention
from repro.nn.ops import pad_stack

LENGTHS = [3, 7, 1, 5]          # genuinely ragged set sizes
D_MODEL = 16


def _ragged(rng, lengths, *trailing):
    return [rng.normal(size=(n, *trailing)) for n in lengths]


class TestPadStack:
    def test_shapes_mask_and_values(self):
        rng = np.random.default_rng(0)
        arrays = _ragged(rng, LENGTHS, 4)
        batch, mask = pad_stack(arrays)
        assert batch.shape == (len(LENGTHS), max(LENGTHS), 4)
        assert mask.shape == (len(LENGTHS), max(LENGTHS))
        for i, arr in enumerate(arrays):
            n = arr.shape[0]
            np.testing.assert_array_equal(batch[i, :n], arr)
            assert not mask[i, :n].any()       # valid prefix unmasked
            assert mask[i, n:].all()           # padded tail masked
            assert (batch[i, n:] == 0.0).all()

    def test_pad_value(self):
        batch, _ = pad_stack([np.ones((1, 2)), np.ones((3, 2))],
                             pad_value=-9.0)
        assert (batch[0, 1:] == -9.0).all()

    def test_zero_length_row(self):
        batch, mask = pad_stack([np.zeros((0, 3)), np.ones((2, 3))])
        assert batch.shape == (2, 2, 3)
        assert mask[0].all()
        assert not mask[1].any()

    def test_empty_input(self):
        batch, mask = pad_stack([])
        assert batch.shape == (0, 0)
        assert mask.shape == (0, 0)

    def test_mismatched_trailing_dims_is_a_clear_error(self):
        with pytest.raises(ValueError, match="trailing dimensions"):
            pad_stack([np.zeros((2, 3)), np.zeros((4, 5))])
        with pytest.raises(ValueError, match="array 1"):
            pad_stack([np.zeros((2, 3)), np.zeros((2,))])

    def test_non_float64_inputs_are_converted(self):
        batch, _ = pad_stack([np.arange(3, dtype=np.int32).reshape(3, 1)])
        assert batch.dtype == np.float64
        np.testing.assert_array_equal(batch[0, :, 0], [0.0, 1.0, 2.0])


class TestBatchedMultiHeadAttention:
    def test_padded_rows_match_serial_forward(self, nn_backend):
        """Each row of the padded batched self-attention equals the
        un-padded serial forward on that row's set alone."""
        rng = np.random.default_rng(1)
        mha = MultiHeadAttention(D_MODEL, num_heads=4,
                                 rng=np.random.default_rng(2))
        sets = _ragged(rng, LENGTHS, D_MODEL)
        batch, mask = pad_stack(sets)

        with nn.no_grad():
            batched = mha(batch, key_padding_mask=mask).data
            for i, row in enumerate(sets):
                serial = mha(row).data
                np.testing.assert_allclose(batched[i, :row.shape[0]], serial,
                                           rtol=1e-12, atol=1e-12)

    def test_padding_tail_cannot_leak(self, nn_backend):
        """Rewriting the padded tail with garbage leaves every valid
        output position untouched."""
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(D_MODEL, num_heads=2,
                                 rng=np.random.default_rng(4))
        sets = _ragged(rng, LENGTHS, D_MODEL)
        batch, mask = pad_stack(sets)
        poisoned = batch.copy()
        poisoned[mask] = 1e6

        with nn.no_grad():
            clean = mha(batch, key_padding_mask=mask).data
            dirty = mha(poisoned, key_padding_mask=mask).data
        for i, n in enumerate(LENGTHS):
            np.testing.assert_allclose(dirty[i, :n], clean[i, :n],
                                       rtol=1e-12, atol=1e-12)

    def test_cross_attention_with_ragged_keys(self, nn_backend):
        """Fixed-size queries attending over ragged key sets (the
        worker-over-tasks pattern) match per-row serial attention."""
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(D_MODEL, num_heads=4,
                                 rng=np.random.default_rng(6))
        queries = rng.normal(size=(len(LENGTHS), 2, D_MODEL))
        key_sets = _ragged(rng, LENGTHS, D_MODEL)
        keys, mask = pad_stack(key_sets)

        with nn.no_grad():
            batched = mha(queries, keys, key_padding_mask=mask).data
            for i, key_set in enumerate(key_sets):
                serial = mha(queries[i], key_set).data
                np.testing.assert_allclose(batched[i], serial,
                                           rtol=1e-12, atol=1e-12)


class TestBatchedPointerAttention:
    def test_batched_logits_match_serial(self, nn_backend):
        rng = np.random.default_rng(7)
        pointer = PointerAttention(d_query=D_MODEL, d_key_in=D_MODEL,
                                   rng=np.random.default_rng(8))
        queries = rng.normal(size=(len(LENGTHS), D_MODEL))
        key_sets = _ragged(rng, LENGTHS, D_MODEL)
        keys, mask = pad_stack(key_sets)

        with nn.no_grad():
            batched = pointer(queries, keys, mask=mask).data
            for i, key_set in enumerate(key_sets):
                n = key_set.shape[0]
                serial = pointer(queries[i], key_set).data
                np.testing.assert_allclose(batched[i, :n], serial,
                                           rtol=1e-12, atol=1e-12)
                # Padded candidates are hard-masked out of the softmax
                # (the ops-layer NEG_INF sentinel, not IEEE -inf).
                from repro.nn.ops import NEG_INF
                assert np.all(batched[i, n:] == NEG_INF)

    def test_precomputed_path_matches_forward_on_ragged_batch(
            self, nn_backend):
        """The static-key fast path agrees with the direct forward on a
        padded heterogeneous batch."""
        rng = np.random.default_rng(9)
        pointer = PointerAttention(d_query=D_MODEL, d_key_in=D_MODEL,
                                   rng=np.random.default_rng(10))
        queries = rng.normal(size=(len(LENGTHS), D_MODEL))
        key_sets = _ragged(rng, LENGTHS, D_MODEL)
        keys, mask = pad_stack(key_sets)

        with nn.no_grad():
            want = pointer(queries, keys, mask=mask).data
            # Score every padded slot: row b * n_max + j of the flat
            # projection is keys[b, j].
            projected = pointer.precompute_keys(
                keys.reshape(-1, keys.shape[-1]))
            index = np.arange(keys.shape[0] * keys.shape[1]).reshape(
                keys.shape[:2])
            got = pointer.forward_precomputed(queries, projected, index,
                                              mask=mask).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
