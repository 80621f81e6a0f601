"""FLOP/byte cost models and their agreement with recorded profiles."""

import numpy as np

from repro import nn
from repro.nn import flops, ops
from repro.obs.profile import OpProfiler, profiling


class TestFlopCount:
    def test_matmul_matrix_matrix(self):
        assert flops.flop_count("matmul", [(8, 16), (16, 4)], (8, 4)) \
            == 2 * 8 * 4 * 16

    def test_matmul_batched(self):
        assert flops.flop_count("matmul", [(2, 3, 8, 16), (2, 3, 16, 4)],
                                (2, 3, 8, 4)) == 2 * 2 * 3 * 8 * 4 * 16

    def test_matmul_vector_vector(self):
        assert flops.flop_count("matmul", [(16,), (16,)], ()) == 2 * 16

    def test_elementwise_uses_output_elements(self):
        assert flops.flop_count("add", [(4, 4), (4,)], (4, 4)) == 16

    def test_reduction_uses_input_elements(self):
        assert flops.flop_count("sum", [(10, 10)], ()) == 100

    def test_shape_ops_are_free(self):
        assert flops.flop_count("reshape", [(6, 6)], (36,)) == 0
        assert flops.flop_count("transpose", [(6, 6)], (6, 6)) == 0

    def test_byte_count_is_float64_traffic(self):
        assert flops.byte_count([(4, 4), (4, 4)], (4, 4)) == 8 * 48

    def test_pointer_keys_priced_as_projection_plus_add(self):
        # Forward args: table, indices, extra, weight.
        assert flops.flop_count("pointer_keys",
                                [(9, 8), (3, 5), (3, 5, 2), (10, 8)],
                                (3, 5, 8)) == 2 * 120 * 2 + 120
        # A pure gather (no step features) is free, like gather_rows.
        assert flops.flop_count("pointer_keys", [(9, 8), (3, 5)],
                                (3, 5, 8)) == 0

    def test_pointer_keys_recorded_and_backward_charged(self):
        rng = np.random.default_rng(5)
        table = nn.Tensor(rng.normal(size=(9, 8)), requires_grad=True)
        weight = nn.Tensor(rng.normal(size=(10, 8)), requires_grad=True)
        extra = nn.Tensor(rng.normal(size=(3, 5, 2)))
        idx = rng.integers(0, 9, size=(3, 5))
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            ops.sum(ops.pointer_keys(table, idx, extra, weight)).backward()
        stat = profiler.ops["pointer_keys"]
        assert stat.flops == 2 * 120 * 2 + 120
        assert stat.bwd_flops == flops.BACKWARD_FACTOR * stat.flops

    def test_attention_core_priced_as_closed_form(self):
        # (B, H, n_q, d) x (B, H, n_k, d): products, scaling and softmax.
        assert flops.flop_count("attention_core",
                                [(2, 4, 5, 8), (2, 4, 7, 8), (2, 4, 7, 8)],
                                (2, 4, 5, 8)) \
            == flops.attention_flops(2, 4, 5, 7, 8)
        # A mask adds one fill pass over the scores.
        assert flops.flop_count("attention_core",
                                [(4, 5, 8), (4, 7, 8), (4, 7, 8), (1, 1, 7)],
                                (4, 5, 8)) \
            == flops.attention_flops(1, 4, 5, 7, 8) + 4 * 5 * 7

    def test_ffn_block_priced_as_two_linears_and_relu(self):
        assert flops.flop_count("ffn_block",
                                [(3, 5, 8), (8, 12), (12,), (12, 8), (8,)],
                                (3, 5, 8)) \
            == (flops.linear_flops(15, 8, 12) + 15 * 12
                + flops.linear_flops(15, 12, 8))

    def test_fused_nodes_recorded_and_backward_charged(self):
        rng = np.random.default_rng(6)
        q, k, v = (nn.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
                   for _ in range(3))
        x = nn.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w1, w2 = (nn.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((4, 6), (6, 4)))
        b1, b2 = (nn.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((6,), (4,)))
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            ops.sum(ops.attention_core(q, k, v, 0.5)).backward()
            ops.sum(ops.ffn_block(x, w1, b1, w2, b2)).backward()
        attention = profiler.ops["attention_core"]
        assert attention.flops == flops.attention_flops(1, 2, 5, 5, 4)
        assert attention.bwd_flops == flops.BACKWARD_FACTOR * attention.flops
        ffn = profiler.ops["ffn_block"]
        assert ffn.flops == (flops.linear_flops(5, 4, 6) + 5 * 6
                             + flops.linear_flops(5, 6, 4))
        assert ffn.bwd_flops == flops.BACKWARD_FACTOR * ffn.flops

    def test_backward_charged_at_factor(self):
        a = nn.Tensor(np.ones((8, 16)), requires_grad=True)
        b = nn.Tensor(np.ones((16, 4)), requires_grad=True)
        out = ops.matmul(a, b)
        bwd_flops, _ = flops.estimate_backward("matmul", out)
        fwd = flops.flop_count("matmul", [(8, 16), (16, 4)], (8, 4))
        assert bwd_flops == flops.BACKWARD_FACTOR * fwd


class TestClosedFormAgreement:
    """Profiler-recorded matmul FLOPs match the layer-level closed forms."""

    def _recorded_matmul_flops(self, run) -> int:
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            run()
        return profiler.ops["matmul"].flops

    def test_linear(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(16, 4, bias=False, rng=rng)
        x = nn.Tensor(rng.normal(size=(8, 16)))
        recorded = self._recorded_matmul_flops(lambda: layer(x))
        assert recorded == layer.forward_flops(8)

    def test_linear_with_bias_includes_add(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(16, 4, rng=rng)
        x = nn.Tensor(rng.normal(size=(8, 16)))
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            layer(x)
        recorded = profiler.ops["matmul"].flops + profiler.ops["add"].flops
        assert recorded == layer.forward_flops(8)

    def _recorded_mha_flops(self, run) -> int:
        # The four projections record as ``matmul``; the two attention
        # products, the scaling and the softmax as one ``attention_core``.
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            run()
        return (profiler.ops["matmul"].flops
                + profiler.ops["attention_core"].flops)

    def test_multi_head_attention_within_one_percent(self):
        rng = np.random.default_rng(1)
        mha = nn.MultiHeadAttention(32, 4, rng=rng)
        x = nn.Tensor(rng.normal(size=(10, 32)))
        recorded = self._recorded_mha_flops(lambda: mha(x))
        expected = mha.forward_flops(10)
        assert abs(recorded - expected) <= 0.01 * expected

    def test_batched_multi_head_attention(self):
        rng = np.random.default_rng(2)
        mha = nn.MultiHeadAttention(32, 4, rng=rng)
        x = nn.Tensor(rng.normal(size=(3, 10, 32)))
        recorded = self._recorded_mha_flops(lambda: mha(x))
        expected = mha.forward_flops(10, batch=3)
        assert abs(recorded - expected) <= 0.01 * expected

    def test_pointer_attention(self):
        rng = np.random.default_rng(3)
        pointer = nn.PointerAttention(12, 16, rng=rng)
        query = nn.Tensor(rng.normal(size=(12,)))
        keys = nn.Tensor(rng.normal(size=(7, 16)))
        recorded = self._recorded_matmul_flops(lambda: pointer(query, keys))
        expected = pointer.forward_flops(7, 12, 16, matmul_only=True)
        assert abs(recorded - expected) <= 0.01 * max(expected, 1)

    def test_mha_flops_helper_matches_module(self):
        rng = np.random.default_rng(4)
        mha = nn.MultiHeadAttention(32, 4, rng=rng)
        assert mha.forward_flops(10) == flops.mha_flops(1, 10, 32, 4)
