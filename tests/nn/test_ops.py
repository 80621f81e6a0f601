"""Gradient-correctness tests for every differentiable op (finite differences)."""

import numpy as np
import pytest

from repro.nn import Tensor, ops

from .gradcheck import check_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestArithmeticGradients:
    def test_add(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.add(x, other)), (3, 4), rng)

    def test_sub(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.sub(other, x)), (3, 4), rng)

    def test_mul(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.mul(x, other)), (3, 4), rng)

    def test_div_numerator(self, rng):
        other = Tensor(rng.normal(size=(3, 4)) + 3.0)
        check_gradient(lambda x: ops.sum(ops.div(x, other)), (3, 4), rng)

    def test_div_denominator(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.div(other, x)), (3, 4), rng,
                       shift=4.0)

    def test_neg(self, rng):
        check_gradient(lambda x: ops.sum(ops.neg(x)), (5,), rng)

    def test_power(self, rng):
        check_gradient(lambda x: ops.sum(ops.power(x, 3.0)), (4,), rng)

    def test_abs(self, rng):
        check_gradient(lambda x: ops.sum(ops.abs(x)), (4,), rng, shift=2.0)

    def test_matmul_2d(self, rng):
        other = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda x: ops.sum(ops.matmul(x, other)), (3, 4), rng)

    def test_matmul_2d_right(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.matmul(other, x)), (4, 5), rng)

    def test_matmul_batched(self, rng):
        other = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda x: ops.sum(ops.matmul(x, other)), (2, 3, 4), rng)

    def test_matmul_batched_broadcast_left(self, rng):
        other = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda x: ops.sum(ops.matmul(x, other)), (3, 4), rng)

    def test_matmul_vector_right(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: ops.sum(ops.matmul(other, x)), (4,), rng)

    def test_matmul_vector_left(self, rng):
        other = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda x: ops.sum(ops.matmul(x, other)), (4,), rng)

    def test_matmul_vector_vector(self, rng):
        other = Tensor(rng.normal(size=4))
        check_gradient(lambda x: ops.matmul(x, other), (4,), rng)


class TestElementwiseGradients:
    def test_exp(self, rng):
        check_gradient(lambda x: ops.sum(ops.exp(x)), (3, 3), rng)

    def test_log(self, rng):
        check_gradient(lambda x: ops.sum(ops.log(x)), (3, 3), rng,
                       scale=0.2, shift=2.0)

    def test_sqrt(self, rng):
        check_gradient(lambda x: ops.sum(ops.sqrt(x)), (3, 3), rng,
                       scale=0.2, shift=2.0)

    def test_tanh(self, rng):
        check_gradient(lambda x: ops.sum(ops.tanh(x)), (3, 3), rng)

    def test_sigmoid(self, rng):
        check_gradient(lambda x: ops.sum(ops.sigmoid(x)), (3, 3), rng)

    def test_relu(self, rng):
        check_gradient(lambda x: ops.sum(ops.relu(x)), (3, 3), rng, shift=1.5)

    def test_clip_tanh(self, rng):
        check_gradient(lambda x: ops.sum(ops.clip_tanh(x, 10.0)), (5,), rng)


class TestReductionGradients:
    def test_sum_all(self, rng):
        check_gradient(lambda x: ops.sum(x), (3, 4), rng)

    def test_sum_axis(self, rng):
        check_gradient(lambda x: ops.sum(ops.mul(ops.sum(x, axis=0), 2.0)), (3, 4), rng)

    def test_sum_axis_keepdims(self, rng):
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.sum(x, axis=1, keepdims=True), 3.0)),
            (3, 4), rng)

    def test_mean_all(self, rng):
        check_gradient(lambda x: ops.mean(x), (3, 4), rng)

    def test_mean_axis(self, rng):
        check_gradient(lambda x: ops.sum(ops.mean(x, axis=1)), (3, 4), rng)

    def test_max_all(self, rng):
        check_gradient(lambda x: ops.max(x), (3, 4), rng)

    def test_max_axis(self, rng):
        check_gradient(lambda x: ops.sum(ops.max(x, axis=0)), (3, 4), rng)

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        ops.max(x).backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])


class TestShapeGradients:
    def test_reshape(self, rng):
        other = Tensor(rng.normal(size=(2, 6)))
        check_gradient(lambda x: ops.sum(ops.mul(ops.reshape(x, (2, 6)), other)),
                       (3, 4), rng)

    def test_transpose_default(self, rng):
        other = Tensor(rng.normal(size=(4, 3)))
        check_gradient(lambda x: ops.sum(ops.mul(ops.transpose(x), other)),
                       (3, 4), rng)

    def test_transpose_axes(self, rng):
        other = Tensor(rng.normal(size=(4, 2, 3)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.transpose(x, (2, 0, 1)), other)),
            (2, 3, 4), rng)

    def test_concat(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(size=(6, 4)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.concat([x, other], axis=0), weight)),
            (3, 4), rng)

    def test_stack(self, rng):
        other = Tensor(rng.normal(size=(3,)))
        weight = Tensor(rng.normal(size=(2, 3)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.stack([x, other]), weight)), (3,), rng)

    def test_getitem(self, rng):
        check_gradient(lambda x: ops.sum(ops.mul(x[1:3], 2.0)), (5, 2), rng)

    def test_gather_rows(self, rng):
        idx = np.array([0, 2, 2, 1])
        weight = Tensor(rng.normal(size=(4, 3)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.gather_rows(x, idx), weight)),
            (3, 3), rng)

    def test_gather_rows_repeated_index_accumulates(self):
        x = Tensor(np.eye(3), requires_grad=True)
        out = ops.gather_rows(x, np.array([1, 1]))
        ops.sum(out).backward()
        np.testing.assert_allclose(x.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(x.grad[0], 0.0)


class TestPointerKeys:
    """``pointer_keys`` is the gather + matmul + add chain as one node."""

    @pytest.mark.parametrize("idx", [
        np.array([3, 0, 3, 5]),                        # serial 1-D
        np.array([[1, 4, 2, 0], [5, 5, 0, 0], [2, 0, 0, 0]]),  # padded
    ], ids=["serial", "padded"])
    def test_forward_bitwise_equals_chain(self, rng, idx):
        table = Tensor(rng.normal(size=(6, 8)))
        weight = Tensor(rng.normal(size=(10, 8)))
        extra = Tensor(rng.normal(size=idx.shape + (2,)))
        want = ops.add(ops.gather_rows(table, idx),
                       ops.matmul(extra, weight[8:]))
        got = ops.pointer_keys(table, idx, extra, weight)
        np.testing.assert_array_equal(got.data, want.data)
        # Without step features the op is the gather alone.
        np.testing.assert_array_equal(
            ops.pointer_keys(table, idx).data,
            ops.gather_rows(table, idx).data)

    def test_gradients_match_chain(self, rng):
        idx = np.array([[1, 4, 1], [5, 0, 0]])
        table_data = rng.normal(size=(6, 8))
        weight_data = rng.normal(size=(10, 8))
        extra = Tensor(rng.normal(size=(2, 3, 2)))
        grads = []
        for one_node in (True, False):
            table = Tensor(table_data, requires_grad=True)
            weight = Tensor(weight_data, requires_grad=True)
            keys = (ops.pointer_keys(table, idx, extra, weight) if one_node
                    else ops.add(ops.gather_rows(table, idx),
                                 ops.matmul(extra, weight[8:])))
            ops.sum(ops.mul(keys, keys)).backward()
            grads.append((table.grad, weight.grad))
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_gradcheck_table(self, rng):
        idx = np.array([[0, 2, 2], [1, 0, 0]])
        weight = Tensor(rng.normal(size=(5, 4)))
        extra = Tensor(rng.normal(size=(2, 3, 2)))
        probe = Tensor(rng.normal(size=(2, 3, 4)))
        check_gradient(
            lambda x: ops.sum(ops.mul(
                ops.pointer_keys(x, idx, extra, weight), probe)),
            (3, 4), rng)

    def test_gradcheck_weight(self, rng):
        idx = np.array([2, 0, 1, 2])
        table = Tensor(rng.normal(size=(3, 4)))
        extra = Tensor(rng.normal(size=(4, 2)))
        check_gradient(
            lambda w: ops.sum(ops.tanh(
                ops.pointer_keys(table, idx, extra, w))),
            (6, 4), rng)

    def test_gradcheck_extra(self, rng):
        idx = np.array([[0, 1], [1, 1]])
        table = Tensor(rng.normal(size=(2, 3)))
        weight = Tensor(rng.normal(size=(5, 3)))
        check_gradient(
            lambda e: ops.sum(ops.tanh(
                ops.pointer_keys(table, idx, e, weight))),
            (2, 2, 2), rng)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        out = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_gradient(self, rng):
        weight = Tensor(rng.normal(size=(3, 5)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.softmax(x, axis=-1), weight)),
            (3, 5), rng)

    def test_log_softmax_gradient(self, rng):
        weight = Tensor(rng.normal(size=(3, 5)))
        check_gradient(
            lambda x: ops.sum(ops.mul(ops.log_softmax(x, axis=-1), weight)),
            (3, 5), rng)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(2, 7)))
        np.testing.assert_allclose(
            ops.log_softmax(x).data, np.log(ops.softmax(x).data), atol=1e-12)

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([1000.0, 1000.0]))
        out = ops.softmax(x)
        np.testing.assert_allclose(out.data, [0.5, 0.5])


class TestMaskingOps:
    def test_masked_fill_forward(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        out = ops.masked_fill(x, np.array([False, True, False]), -99.0)
        np.testing.assert_allclose(out.data, [1.0, -99.0, 3.0])

    def test_masked_fill_blocks_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = ops.masked_fill(x, np.array([False, True, False]), -99.0)
        ops.sum(out).backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0])

    def test_masked_fill_mask_mutation_after_forward(self):
        # Regression: pointer decoders mutate their visited mask in place
        # between forward and backward; the op must snapshot the mask.
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        mask = np.array([False, True, False])
        out = ops.masked_fill(x, mask, -99.0)
        mask[:] = True  # mutate after the op was recorded
        ops.sum(out).backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0])

    def test_where_forward_and_grad(self, rng):
        cond = np.array([True, False, True])
        b = Tensor(np.zeros(3), requires_grad=True)
        a = Tensor(np.ones(3), requires_grad=True)
        out = ops.where(cond, a, b)
        ops.sum(out).backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = ops.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(10000))
        out = ops.dropout(x, 0.5, rng, training=True)
        # Inverted dropout keeps the expectation: mean stays near 1.
        assert abs(out.data.mean() - 1.0) < 0.05
