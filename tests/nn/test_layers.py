"""Tests for nn layers: shapes, gradients, module mechanics, serialisation."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ops

from .gradcheck import numeric_gradient

#: Every test runs on the one kernel implementation; the fixture
#: records its name in the test id.
pytestmark = pytest.mark.usefixtures("nn_backend")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestModuleMechanics:
    def test_named_parameters_deterministic_order(self, rng):
        model = nn.MLP([3, 5, 2], rng=rng)
        names = [name for name, _ in model.named_parameters()]
        assert names == sorted(names) or names == [n for n, _ in model.named_parameters()]
        # Re-running yields the same order.
        assert names == [name for name, _ in model.named_parameters()]

    def test_named_parameters_stamp_tensor_names(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        for name, param in enc.named_parameters():
            assert param.name == name
        assert any(p.name.startswith("layers.0.")
                   for p in enc.parameters())

    def test_shared_parameter_keeps_first_name(self, rng):
        layer = nn.Linear(3, 3, bias=False, rng=rng)
        model = nn.Module()
        model.a = layer
        model.b = layer  # same submodule reachable under two attributes
        names = dict(model.named_parameters())
        assert set(names) == {"a.weight", "b.weight"}
        # The stamped name is the first sorted-order path, matching the
        # state_dict key the tensor serialises under.
        assert layer.weight.name == "a.weight"

    def test_parameters_in_list_attributes_found(self, rng):
        enc = nn.TransformerEncoder(8, 2, 2, rng=rng)
        assert enc.num_parameters() > 0
        names = [n for n, _ in enc.named_parameters()]
        assert any("layers.0" in n for n in names)
        assert any("layers.1" in n for n in names)

    def test_zero_grad_clears_all(self, rng):
        model = nn.MLP([3, 4, 1], rng=rng)
        out = model(nn.Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self, rng):
        model = nn.Sequential(nn.Linear(3, 3, rng=rng), nn.ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self, rng):
        model = nn.MLP([3, 4, 2], rng=rng)
        clone = nn.MLP([3, 4, 2], rng=np.random.default_rng(99))
        clone.load_state_dict(model.state_dict())
        x = nn.Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_load_state_dict_rejects_missing_keys(self, rng):
        model = nn.MLP([3, 4, 2], rng=rng)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self, rng):
        model = nn.Linear(3, 2, rng=rng)
        state = model.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((9, 9))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_num_parameters_counts_elements(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        assert layer.num_parameters() == 3 * 2 + 2


class TestLinear:
    def test_forward_shape(self, rng):
        layer = nn.Linear(4, 7, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 7)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 7, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(nn.Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_weight_gradient_matches_numeric(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x_data = rng.normal(size=(4, 3))

        def loss_of_weight(w):
            layer.weight.data = w
            return ops.sum(layer(nn.Tensor(x_data)) ** 2.0).item()

        w0 = layer.weight.data.copy()
        numeric = numeric_gradient(loss_of_weight, w0.copy())
        layer.weight.data = w0
        loss = ops.sum(layer(nn.Tensor(x_data)) ** 2.0)
        layer.zero_grad()
        loss.backward()
        np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-5)


class TestMLP:
    def test_requires_two_sizes(self, rng):
        with pytest.raises(ValueError):
            nn.MLP([3], rng=rng)

    def test_learns_linear_map(self, rng):
        model = nn.MLP([2, 16, 1], rng=rng)
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:] * 0.5)
        for _ in range(200):
            pred = model(nn.Tensor(x))
            loss = ((pred - nn.Tensor(y)) ** 2.0).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.02

    def test_output_activation(self, rng):
        model = nn.MLP([2, 4, 1], rng=rng, output_activation=nn.Tanh())
        out = model(nn.Tensor(rng.normal(size=(8, 2)) * 10))
        assert np.all(np.abs(out.data) <= 1.0)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        out = emb(np.array([1, 3, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[1], out.data[2])

    def test_out_of_range_raises(self, rng):
        emb = nn.Embedding(5, 2, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatters_to_rows(self, rng):
        emb = nn.Embedding(6, 3, rng=rng)
        out = emb(np.array([2, 2, 4]))
        ops.sum(out).backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[2], 2.0)  # selected twice
        np.testing.assert_allclose(grad[4], 1.0)
        np.testing.assert_allclose(grad[0], 0.0)

    def test_trainable(self, rng):
        emb = nn.Embedding(4, 2, rng=rng)
        optimizer = nn.Adam(emb.parameters(), lr=5e-2)
        target = np.array([[1.0, -1.0]])
        for _ in range(100):
            loss = ((emb(np.array([1])) - nn.Tensor(target)) ** 2.0).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(emb.weight.data[1], target[0], atol=0.05)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        layer = nn.LayerNorm(6)
        x = nn.Tensor(rng.normal(size=(4, 6)) * 5 + 3)
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_flows_to_input(self, rng):
        layer = nn.LayerNorm(5)
        x = nn.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3, 5)))
        ops.sum(ops.mul(layer(x), w)).backward()
        assert x.grad is not None
        assert np.any(x.grad != 0)

    def test_gamma_beta_affect_output(self, rng):
        layer = nn.LayerNorm(4)
        layer.gamma.data = np.full(4, 2.0)
        layer.beta.data = np.full(4, 1.0)
        x = nn.Tensor(rng.normal(size=(2, 4)))
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 1.0, atol=1e-7)


class TestConv2D:
    def test_output_shape_same_padding(self, rng):
        conv = nn.Conv2D(2, 5, kernel_size=3, padding=1, rng=rng)
        out = conv(nn.Tensor(rng.normal(size=(3, 2, 10, 12))))
        assert out.shape == (3, 5, 10, 12)

    def test_output_shape_no_padding(self, rng):
        conv = nn.Conv2D(1, 2, kernel_size=3, padding=0, rng=rng)
        out = conv(nn.Tensor(rng.normal(size=(1, 1, 8, 8))))
        assert out.shape == (1, 2, 6, 6)

    def test_rejects_wrong_channels(self, rng):
        conv = nn.Conv2D(3, 2, rng=rng)
        with pytest.raises(ValueError):
            conv(nn.Tensor(np.zeros((1, 1, 4, 4))))

    def test_matches_manual_convolution(self, rng):
        conv = nn.Conv2D(1, 1, kernel_size=3, padding=1, rng=rng)
        kernel = conv.weight.data.reshape(3, 3)
        x = rng.normal(size=(1, 1, 5, 5))
        out = conv(nn.Tensor(x)).data[0, 0]
        padded = np.pad(x[0, 0], 1)
        expected = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                expected[i, j] = (padded[i:i + 3, j:j + 3] * kernel).sum()
        np.testing.assert_allclose(out, expected + conv.bias.data[0], atol=1e-10)

    def test_input_gradient_matches_numeric(self, rng):
        conv = nn.Conv2D(1, 2, kernel_size=3, padding=1, rng=rng)
        x_data = rng.normal(size=(1, 1, 4, 4))

        def loss_fn(arr):
            return ops.sum(conv(nn.Tensor(arr)) ** 2.0).item()

        numeric = numeric_gradient(loss_fn, x_data.copy())
        x = nn.Tensor(x_data, requires_grad=True)
        ops.sum(conv(x) ** 2.0).backward()
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestSerialization:
    def test_save_load_roundtrip(self, rng, tmp_path):
        model = nn.MLP([3, 8, 2], rng=rng)
        path = tmp_path / "model.npz"
        nn.save_module(model, path)
        fresh = nn.MLP([3, 8, 2], rng=np.random.default_rng(1))
        nn.load_module(fresh, path)
        x = nn.Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(model(x).data, fresh(x).data)

    def test_load_into_wrong_architecture_fails(self, rng, tmp_path):
        model = nn.MLP([3, 8, 2], rng=rng)
        path = tmp_path / "model.npz"
        nn.save_module(model, path)
        other = nn.MLP([3, 9, 2], rng=rng)
        with pytest.raises((KeyError, ValueError)):
            nn.load_module(other, path)
