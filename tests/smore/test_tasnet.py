"""Tests for TASNet's modules: encoders, worker selection, task selection."""

import numpy as np
import pytest

from repro import nn
from repro.smore import (
    SensingTaskEncoder,
    TASNet,
    TASNetConfig,
    TaskSelection,
    WorkerEncoder,
    WorkerSelection,
)


@pytest.fixture
def config():
    return TASNetConfig(d_model=8, num_heads=2, num_layers=1, conv_channels=2)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestConfig:
    def test_defaults_divisible(self):
        TASNetConfig()  # must not raise

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            TASNetConfig(d_model=10, num_heads=3)

    def test_soft_mask_flag(self):
        assert TASNetConfig().use_soft_mask
        assert not TASNetConfig(use_soft_mask=False).use_soft_mask


class TestWorkerEncoder:
    def test_output_shape(self, config, rng):
        encoder = WorkerEncoder(config, 4, 5, rng)
        grids = rng.random((3, 4, 5))
        out = encoder(grids)
        assert out.shape == (3, config.d_model)

    def test_single_worker(self, config, rng):
        encoder = WorkerEncoder(config, 4, 5, rng)
        out = encoder(rng.random((1, 4, 5)))
        assert out.shape == (1, config.d_model)

    def test_gradients_flow(self, config, rng):
        encoder = WorkerEncoder(config, 4, 4, rng)
        out = encoder(rng.random((2, 4, 4)))
        nn.ops.sum(out).backward()
        assert all(p.grad is not None for p in encoder.parameters())


class TestSensingTaskEncoder:
    def test_output_shape(self, config, rng):
        encoder = SensingTaskEncoder(config, rng)
        out = encoder(rng.random((7, 4)))
        assert out.shape == (7, config.d_model)

    def test_permutation_equivariant(self, config, rng):
        encoder = SensingTaskEncoder(config, rng)
        feats = rng.random((5, 4))
        perm = rng.permutation(5)
        np.testing.assert_allclose(
            encoder(feats).data[perm], encoder(feats[perm]).data, atol=1e-9)


class TestWorkerSelection:
    """Stage 1 on one state: a K=1 ``forward_batch``."""

    def test_log_probs_normalised(self, config, rng):
        module = WorkerSelection(config, rng)
        states = nn.Tensor(rng.normal(size=(1, 4, 2 * config.d_model)))
        mask = np.array([[False, False, True, False]])
        logp, h_g = module.forward_batch(states, np.array([0.5]), mask)
        probs = np.exp(logp.data[0])
        assert probs.sum() == pytest.approx(1.0)
        assert probs[2] == pytest.approx(0.0, abs=1e-9)
        assert h_g.shape == (1, 2 * config.d_model)

    def test_all_but_one_masked(self, config, rng):
        module = WorkerSelection(config, rng)
        states = nn.Tensor(rng.normal(size=(1, 3, 2 * config.d_model)))
        mask = np.array([[True, False, True]])
        logp, _ = module.forward_batch(states, np.array([1.0]), mask)
        assert np.exp(logp.data[0])[1] == pytest.approx(1.0)

    def test_budget_affects_distribution(self, config, rng):
        module = WorkerSelection(config, rng)
        states = nn.Tensor(rng.normal(size=(1, 3, 2 * config.d_model)))
        mask = np.zeros((1, 3), dtype=bool)
        low, _ = module.forward_batch(states, np.array([0.01]), mask)
        high, _ = module.forward_batch(states, np.array([1.0]), mask)
        assert not np.allclose(low.data, high.data)


def _task_logp(module, rng, n_candidates=5, assigned=2):
    """Stage 2 on one state (a K=1 ``forward_batch``): (m,) log-probs."""
    d = module.budget_fc.out_features
    assigned_emb = assigned_mask = None
    if assigned:
        assigned_emb = nn.Tensor(rng.normal(size=(1, assigned, d)))
        assigned_mask = np.zeros((1, assigned), dtype=bool)
    worker_emb = nn.Tensor(rng.normal(size=(1, d)))
    h_g = nn.Tensor(rng.normal(size=(1, 2 * d)))
    task_mean = nn.Tensor(rng.normal(size=(1, d)))
    keys = module.precompute_keys(
        nn.Tensor(rng.normal(size=(n_candidates, d))))
    delta_phi = rng.random((1, n_candidates))
    delta_in = rng.random((1, n_candidates)) + 0.5
    logp = module.forward_batch(
        worker_emb, assigned_emb, assigned_mask, np.array([0.7]), h_g,
        task_mean, keys, np.arange(n_candidates)[None],
        np.zeros((1, n_candidates), dtype=bool), delta_phi, delta_in)
    return logp.data[0]


class TestTaskSelection:
    """Stage 2 on one state: a K=1 ``forward_batch``."""

    def _run(self, config, rng, use_soft_mask=True, n_candidates=5,
             assigned=2):
        cfg = TASNetConfig(d_model=config.d_model, num_heads=config.num_heads,
                           num_layers=config.num_layers,
                           conv_channels=config.conv_channels,
                           use_soft_mask=use_soft_mask)
        return _task_logp(TaskSelection(cfg, rng), rng,
                          n_candidates=n_candidates, assigned=assigned)

    def test_log_probs_normalised(self, config, rng):
        logp = self._run(config, rng)
        assert np.exp(logp).sum() == pytest.approx(1.0)

    def test_no_assigned_tasks(self, config, rng):
        logp = self._run(config, rng, assigned=0)
        assert np.all(np.isfinite(logp))

    def test_single_candidate(self, config, rng):
        logp = self._run(config, rng, n_candidates=1)
        assert np.exp(logp)[0] == pytest.approx(1.0)

    def test_soft_mask_changes_distribution(self, config):
        rng_a = np.random.default_rng(3)
        with_mask = self._run(config, rng_a)
        rng_b = np.random.default_rng(3)
        without = self._run(config, rng_b, use_soft_mask=False)
        assert not np.allclose(with_mask, without)

    def test_fusion_disabled_still_normalised(self, config, rng):
        cfg = TASNetConfig(d_model=config.d_model, num_heads=config.num_heads,
                           num_layers=config.num_layers,
                           conv_channels=config.conv_channels,
                           use_heuristic_fusion=False)
        logp = _task_logp(TaskSelection(cfg, rng), rng, n_candidates=4,
                          assigned=0)
        assert np.exp(logp).sum() == pytest.approx(1.0)

    def test_fusion_changes_key_width(self, config, rng):
        with_fusion = TaskSelection(config, np.random.default_rng(0))
        no_fusion = TaskSelection(
            TASNetConfig(d_model=config.d_model, num_heads=config.num_heads,
                         num_layers=config.num_layers,
                         conv_channels=config.conv_channels,
                         use_heuristic_fusion=False),
            np.random.default_rng(0))
        assert (with_fusion.pointer.w_k.in_features
                == no_fusion.pointer.w_k.in_features + 2)


class TestTASNet:
    def test_parameters_collected(self, config, rng):
        net = TASNet(config, 4, 4, rng=rng)
        assert net.num_parameters() > 0
        names = [n for n, _ in net.named_parameters()]
        assert any("worker_encoder" in n for n in names)
        assert any("task_selection" in n for n in names)

    def test_forward_not_supported(self, config, rng):
        net = TASNet(config, 4, 4, rng=rng)
        with pytest.raises(NotImplementedError):
            net()

    def test_state_dict_roundtrip(self, config, rng):
        net = TASNet(config, 4, 4, rng=rng)
        clone = TASNet(config, 4, 4, rng=np.random.default_rng(99))
        clone.load_state_dict(net.state_dict())
        for (_, a), (_, b) in zip(net.named_parameters(),
                                  clone.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)
