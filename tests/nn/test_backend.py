"""The model-level kernels of :class:`repro.nn.backend.Backend`.

Every kernel's backward must agree with central finite differences, the
empty elementwise chain is the identity, and ``no_grad`` builds no
graph.  Layers reach the kernels through the one module-level instance
:func:`repro.nn.get_backend` returns.
"""

import math

import numpy as np
import pytest

from repro import nn

from .gradcheck import numeric_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(3)


# --------------------------------------------------------------------- #
# Kernel catalogue: (name, builder) pairs used by the FD checks.
# Builders return (inputs, run) where run(backend) -> output Tensor and
# `inputs` are the leaf tensors whose gradients the tests compare.
# --------------------------------------------------------------------- #
def _kernel_cases(rng):
    x = nn.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    w = nn.Tensor(rng.normal(size=(8, 4)), requires_grad=True)
    b = nn.Tensor(rng.normal(size=(4,)), requires_grad=True)
    gamma = nn.Tensor(rng.normal(size=(8,)), requires_grad=True)
    beta = nn.Tensor(rng.normal(size=(8,)), requires_grad=True)
    w1 = nn.Tensor(rng.normal(size=(8, 12)), requires_grad=True)
    b1 = nn.Tensor(rng.normal(size=(12,)), requires_grad=True)
    w2 = nn.Tensor(rng.normal(size=(12, 4)), requires_grad=True)
    b2 = nn.Tensor(rng.normal(size=(4,)), requires_grad=True)
    q = nn.Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
    k = nn.Tensor(rng.normal(size=(2, 7, 8)), requires_grad=True)
    v = nn.Tensor(rng.normal(size=(2, 7, 8)), requires_grad=True)
    attn_mask = np.zeros((2, 5, 7), dtype=bool)
    attn_mask[0, :, 5:] = True
    attn_mask[1, 2, :3] = True
    scores = nn.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    ptr_mask = np.zeros((3, 6), dtype=bool)
    ptr_mask[1, 4:] = True
    mm_x = nn.Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
    mm_mask = np.zeros((3, 5, 1), dtype=bool)
    mm_mask[0, 3:] = True
    chain_x = nn.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    stages = (("mul", 0.5), ("add", 0.25), ("tanh",), ("mul", 2.0),
              ("sigmoid",), ("clip_tanh", 3.0), ("relu",))
    return [
        ("linear", (x, w), lambda be: be.linear(x, w)),
        ("linear_bias", (x, w, b), lambda be: be.linear(x, w, b)),
        ("layernorm", (x, gamma, beta),
         lambda be: be.layernorm(x, gamma, beta, 1e-5)),
        ("ffn", (x, w1, b1, w2, b2),
         lambda be: be.ffn(x, w1, b1, w2, b2)),
        ("attention", (q, k, v), lambda be: be.attention(q, k, v)),
        ("attention_masked", (q, k, v),
         lambda be: be.attention(q, k, v, mask=attn_mask)),
        ("pointer_tail", (scores,),
         lambda be: be.pointer_tail(scores, 1.0 / math.sqrt(8.0), 10.0)),
        ("pointer_tail_masked", (scores,),
         lambda be: be.pointer_tail(scores, 0.3, 5.0, mask=ptr_mask)),
        ("masked_mean", (mm_x,),
         lambda be: be.masked_mean(mm_x, mm_mask, 1)),
        ("chain", (chain_x,), lambda be: be.chain(chain_x, stages)),
    ]


def _case_ids(rng=np.random.default_rng(3)):
    return [name for name, _, _ in _kernel_cases(rng)]


class TestKernelParity:
    """Analytic kernel gradients against finite differences."""

    @pytest.mark.parametrize("nn_backend", [nn.backend_name()],
                             indirect=True)
    @pytest.mark.parametrize("case", range(len(_case_ids())),
                             ids=_case_ids())
    def test_finite_difference_gradients(self, case, nn_backend, rng):
        cases = _kernel_cases(rng)
        name, inputs, run = cases[case]
        if name == "pointer_tail_masked":
            # Masked logits are the NEG_INF constant; their magnitude
            # (1e9) swamps central-difference precision on the sum.
            pytest.skip("NEG_INF fill defeats finite-difference precision")
        be = nn_backend
        out = run(be)
        out.sum().backward()
        for t in inputs:
            def scalar(arr, t=t):
                saved = t.data.copy()
                t.data[...] = arr
                with nn.no_grad():
                    value = float(run(be).sum().data)
                t.data[...] = saved
                return value
            numeric = numeric_gradient(scalar, t.data.copy())
            np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-5,
                                       err_msg=f"{name}/{t.shape}")

    def test_chain_empty_stages_is_identity(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = nn.get_backend().chain(x, ())
        np.testing.assert_array_equal(out.data, x.data)

    def test_no_grad_builds_no_graph(self, rng):
        x = nn.Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        with nn.no_grad():
            out = nn.get_backend().linear(x, w)
        assert not out.requires_grad
