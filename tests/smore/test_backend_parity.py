"""End-to-end backend parity: SMORE decoding/training across nn backends.

The fused executor's forward passes replay the reference arithmetic
bit-for-bit, so greedy decoding — argmax over identical logits — must
produce identical routes and objectives, and sampled decoding consumes
identical uniforms at identical cumulative probabilities.  Training
gradients come from handwritten flat backwards; parameters after a few
Adam steps agree to tight tolerance rather than bitwise.
"""

import numpy as np
import pytest

from repro import nn
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import (
    SMORESolver,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
    TASNetTrainer,
    TrainingConfig,
)
from repro.tsptw import InsertionSolver

from .oracle import PerInstanceTrainer

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    opts = InstanceOptions(task_density=0.04, budget=120.0)
    return generate_instances("delivery", 2, seed=21, options=opts)


def _solver(instances):
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    return SMORESolver(InsertionSolver(), TASNetPolicy(net))


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


class TestSolveParity:
    def test_greedy_solve_bit_identical(self, instances):
        results = {}
        for name in ("reference", "fused"):
            solver = _solver(instances)
            with nn.use_backend(name):
                results[name] = [solver.solve(inst) for inst in instances]
        for ref, fused in zip(results["reference"], results["fused"]):
            assert _routes(ref) == _routes(fused)
            assert ref.objective == fused.objective

    def test_sampled_solve_bit_identical(self, instances):
        """Identical logits -> identical cdfs -> identical samples."""
        results = {}
        for name in ("reference", "fused"):
            solver = _solver(instances)
            with nn.use_backend(name):
                results[name] = [
                    solver.solve(inst, greedy=False,
                                 rng=np.random.default_rng(77 + i),
                                 num_samples=3)
                    for i, inst in enumerate(instances)]
        for ref, fused in zip(results["reference"], results["fused"]):
            assert _routes(ref) == _routes(fused)
            assert ref.objective == fused.objective

    def test_solve_many_bit_identical_across_backends(self, instances):
        results = {}
        for name in ("reference", "fused"):
            solver = _solver(instances)
            with nn.use_backend(name):
                results[name] = solver.solve_many(instances)
        for ref, fused in zip(results["reference"], results["fused"]):
            assert _routes(ref) == _routes(fused)


class TestTrainParity:
    # "cross-instance" is the trainer's one lock-step decode of the whole
    # batch; "per-instance" is the test oracle looping one decode per
    # instance.  Both must hold backend parity.
    @pytest.mark.parametrize("trainer_cls", [PerInstanceTrainer,
                                             TASNetTrainer],
                             ids=["per-instance", "cross-instance"])
    def test_train_iteration_params_close(self, instances, trainer_cls):
        trainers = {}
        metrics = {}
        for name in ("reference", "fused"):
            grid = instances[0].coverage.grid
            net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                         rng=np.random.default_rng(0))
            cfg = TrainingConfig(batch_size=2, rollouts_per_instance=2, seed=9)
            trainer = trainer_cls(TASNetPolicy(net), InsertionSolver(), cfg)
            with nn.use_backend(name):
                metrics[name] = [trainer.train_iteration(instances)
                                 for _ in range(2)]
            trainers[name] = trainer
        # Bit-identical forwards -> identical sampled actions -> equal
        # reward curves; backward formulas differ only in association.
        assert metrics["reference"] == metrics["fused"]
        ref_params = trainers["reference"].policy.parameters()
        fused_params = trainers["fused"].policy.parameters()
        for ref, fused in zip(ref_params, fused_params):
            np.testing.assert_allclose(fused.data, ref.data,
                                       rtol=1e-9, atol=1e-11)
