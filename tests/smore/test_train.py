"""Tests for TASNet training: critic, REINFORCE, imitation pretraining."""

import numpy as np
import pytest

from repro import nn
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import (
    CriticNetwork,
    SelectionEnv,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
    TASNetTrainer,
    TrainingConfig,
    critic_features,
    imitation_pretrain,
    run_episode,
)
from repro.smore.critic import NUM_CRITIC_FEATURES
from repro.tsptw import InsertionSolver


class TestCritic:
    def test_feature_vector_shape(self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        features = critic_features(small_instance, state)
        assert features.shape == (NUM_CRITIC_FEATURES,)
        assert np.all(np.isfinite(features))

    def test_value_is_scalar_tensor(self, small_instance, planner):
        env = SelectionEnv(small_instance, planner)
        state = env.reset()
        critic = CriticNetwork(rng=np.random.default_rng(0))
        value = critic.value(small_instance, state)
        assert value.shape == ()

    def test_critic_learns_constant_target(self):
        critic = CriticNetwork(rng=np.random.default_rng(0))
        from repro import nn

        optimizer = nn.Adam(critic.parameters(), lr=1e-2)
        features = np.random.default_rng(1).random(NUM_CRITIC_FEATURES)
        for _ in range(150):
            value = critic.value_from_features(features)
            loss = (value - 5.0) ** 2.0
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert critic.value_from_features(features).item() == pytest.approx(
            5.0, abs=0.3)


class TestTASNetTrainer:
    def test_train_iteration_returns_reward(self, policy, planner,
                                            small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=1, batch_size=1))
        reward = trainer.train_iteration([small_instance])
        assert reward >= 0.0
        assert len(trainer.history["reward"]) == 1

    def test_training_changes_parameters(self, policy, planner,
                                         small_instance):
        before = policy.net.state_dict()
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=3, batch_size=1,
                                               lr=1e-2, seed=0))
        trainer.train([small_instance])
        after = policy.net.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_evaluate_greedy(self, policy, planner, small_instance):
        trainer = TASNetTrainer(policy, planner, TrainingConfig())
        score = trainer.evaluate([small_instance])
        assert score >= 0.0

    def test_validation_restores_best(self, policy, planner, small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=4, batch_size=1,
                                               lr=5e-2, seed=0))
        trainer.train([small_instance], val_instances=[small_instance],
                      eval_every=2)
        # The recorded best score is achievable by the restored policy.
        best = trainer.history["val"][-1]
        assert trainer.evaluate([small_instance]) == pytest.approx(best, abs=1e-9)

    def test_critic_loss_recorded(self, policy, planner, small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=2, batch_size=1))
        trainer.train([small_instance])
        assert len(trainer.history["critic_loss"]) == 2


class TestTrainingTelemetry:
    """Per-epoch observability: history series and trace events."""

    def test_history_records_epoch_series(self, policy, planner,
                                          small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=2, batch_size=1))
        trainer.train([small_instance])
        for name in ("reward", "reward_std", "loss", "grad_norm", "entropy"):
            assert len(trainer.history.series(name)) == 2, name
            assert all(np.isfinite(v) for v in trainer.history[name])
        assert trainer.history.last("reward") == trainer.history["reward"][-1]

    def test_evaluate_records_eval_series(self, policy, planner,
                                          small_instance):
        trainer = TASNetTrainer(policy, planner, TrainingConfig())
        score = trainer.evaluate([small_instance])
        assert trainer.history.series("eval") == [score]

    def test_history_summary_covers_series(self, policy, planner,
                                           small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=1, batch_size=1))
        trainer.train([small_instance])
        text = trainer.history.summary()
        assert "reward: n=1" in text
        assert "entropy: n=1" in text

    def test_iteration_emits_trace_event(self, policy, planner,
                                         small_instance):
        from repro import obs
        from repro.obs import ListSink

        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=1, batch_size=1))
        sink = ListSink()
        with obs.tracing(sink=sink) as tracer:
            trainer.train_iteration([small_instance])
            counters = dict(tracer.metrics.counters)
        assert counters["train.iterations"] == 1
        events = [r for r in sink.records if r["type"] == "event"]
        assert events[0]["name"] == "train.iteration"
        assert events[0]["epoch"] == 1
        assert "span.train.rollouts.time" in tracer.metrics.timings


class TestBaselineVariants:
    def test_invalid_baseline_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(baseline="magic")

    def test_rollout_baseline_trains(self, policy, planner, small_instance):
        trainer = TASNetTrainer(
            policy, planner,
            TrainingConfig(iterations=2, batch_size=1, baseline="rollout"))
        trainer.train([small_instance])
        assert len(trainer.history["reward"]) == 2
        # No critic regression happens under the rollout baseline.
        assert trainer.history["critic_loss"] == []

    def test_no_baseline_trains(self, policy, planner, small_instance):
        trainer = TASNetTrainer(
            policy, planner,
            TrainingConfig(iterations=2, batch_size=1, baseline="none"))
        trainer.train([small_instance])
        assert len(trainer.history["reward"]) == 2

    def test_rollout_value_matches_greedy_eval(self, policy, planner,
                                               small_instance):
        trainer = TASNetTrainer(
            policy, planner, TrainingConfig(baseline="rollout"))
        [value] = trainer._greedy_phis([small_instance])
        assert value == pytest.approx(trainer.evaluate([small_instance]))


class TestGreedyPhis:
    """Validation and the rollout baseline decode in one lock-step run."""

    @pytest.fixture
    def setup(self):
        opts = InstanceOptions(task_density=0.04, budget=120.0)
        a, b = generate_instances("delivery", 2, seed=7, options=opts)
        grid = a.coverage.grid
        net = TASNet(TASNetConfig(d_model=16, num_heads=2, num_layers=1,
                                  conv_channels=4),
                     grid_nx=grid.nx, grid_ny=grid.ny,
                     rng=np.random.default_rng(0))
        return a, b, TASNetPolicy(net)

    @staticmethod
    def _solo_phi(policy, instance):
        with nn.no_grad():
            state, _, _ = run_episode(
                SelectionEnv(instance, InsertionSolver()), policy,
                greedy=True)
        return state.phi()

    def test_batched_matches_solo_decodes(self, setup):
        a, b, policy = setup
        expected = [self._solo_phi(policy, inst) for inst in (a, b, a)]
        trainer = TASNetTrainer(policy, InsertionSolver(), TrainingConfig())
        assert trainer._greedy_phis([a, b, a]) == expected
        assert trainer.evaluate([a, b, a]) == float(np.mean(expected))


class TestCheckpointing:
    def test_roundtrip_restores_everything(self, policy, planner,
                                           small_instance, tmp_path):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=2, batch_size=1,
                                               lr=1e-2, seed=0))
        trainer.train([small_instance])
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        score_before = trainer.evaluate([small_instance])

        # Diverge, then restore.
        trainer.train([small_instance])
        trainer.load_checkpoint(path)
        assert trainer.evaluate([small_instance]) == pytest.approx(
            score_before)

    def test_optimizer_state_restored(self, policy, planner, small_instance,
                                      tmp_path):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=1, batch_size=1))
        trainer.train([small_instance])
        steps = trainer.optimizer._step_count
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        trainer.train([small_instance])
        trainer.load_checkpoint(path)
        assert trainer.optimizer._step_count == steps

    def test_early_stopping_halts(self, policy, planner, small_instance):
        trainer = TASNetTrainer(policy, planner,
                                TrainingConfig(iterations=30, batch_size=1,
                                               lr=0.0, seed=0))
        # Zero learning rate: validation never improves, so patience=1
        # stops after the second evaluation round.
        trainer.train([small_instance], val_instances=[small_instance],
                      eval_every=1, patience=1)
        assert len(trainer.history["reward"]) < 30


class TestImitationPretrain:
    def test_loss_history_length(self, policy, planner, small_instance):
        history = imitation_pretrain(policy, planner, [small_instance],
                                     iterations=3, seed=0)
        assert len(history) == 3
        assert all(np.isfinite(h) for h in history)

    def test_cloning_reduces_loss(self, policy, planner, small_instance):
        history = imitation_pretrain(policy, planner, [small_instance],
                                     iterations=12, lr=1e-2, explore=0.0,
                                     seed=0)
        assert np.mean(history[-3:]) < np.mean(history[:3])

    def test_changes_parameters(self, policy, planner, small_instance):
        before = policy.net.state_dict()
        imitation_pretrain(policy, planner, [small_instance], iterations=2,
                           seed=0)
        after = policy.net.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_custom_teacher(self, policy, planner, small_instance):
        from repro.smore import GreedySelectionRule

        history = imitation_pretrain(policy, planner, [small_instance],
                                     iterations=2, seed=0,
                                     teacher=GreedySelectionRule())
        assert len(history) == 2
