"""Op-level profiler: accounting, transparency, and fork-pool parity.

The PR's headline guarantees, asserted here rather than eyeballed:

* profiler-on runs are numerically bit-identical to profiler-off
  (forward values, gradients, Adam updates on a seeded TASNet step);
* ``no_grad`` decoding records zero backward samples;
* op call counts and FLOP totals are identical serial vs. across the
  fork pool when both decode the same contiguous chunks of the rollout
  schedule — the profiler deltas ship back with each item and merge in
  item order, like the telemetry.  (Chunking sets batch widths, so
  padded op shapes depend on it.)
"""

import numpy as np
import pytest

from repro import nn, obs
from repro.core import (
    CoverageModel,
    Grid,
    Location,
    Region,
    SensingTask,
    TravelTask,
    USMDWInstance,
    Worker,
)
from repro.nn import ops
from repro.obs.profile import (
    OpProfiler,
    profiling,
    render_profile,
    render_stacks,
    scope,
)
import repro.parallel
from repro.parallel import fork_available
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.smore.train import TASNetTrainer, TrainingConfig
from repro.tsptw import InsertionSolver


@pytest.fixture
def instance():
    region = Region(800, 800)
    grid = Grid(region, 4, 4)
    coverage = CoverageModel(grid, time_span=240.0, slot_minutes=60.0,
                             alpha=0.5)
    workers = (
        Worker(1, Location(50, 50), Location(750, 50), 0.0, 120.0,
               (TravelTask(10, Location(400, 50), 10.0),)),
        Worker(2, Location(50, 750), Location(750, 750), 0.0, 120.0,
               (TravelTask(20, Location(400, 750), 10.0),)),
    )
    tasks = tuple(
        SensingTask(100 + k, Location(100 + 120 * k, 100 + 100 * (k % 3)),
                    60.0 * (k % 4), 60.0 * (k % 4) + 60.0, 5.0)
        for k in range(6)
    )
    return USMDWInstance(workers=workers, sensing_tasks=tasks,
                         budget=100.0, mu=1.0, coverage=coverage,
                         name="profile-smoke")


def _make_policy(seed=0):
    config = TASNetConfig(d_model=8, num_heads=2, num_layers=1,
                          conv_channels=2)
    net = TASNet(config, 4, 4, rng=np.random.default_rng(seed))
    return TASNetPolicy(net)


def _make_solver():
    return SMORESolver(InsertionSolver(), _make_policy(), name="SMORE")


class TestOpProfilerCore:
    def test_forward_records_calls_time_flops(self):
        profiler = OpProfiler()
        a = nn.Tensor(np.ones((4, 8)), requires_grad=True)
        b = nn.Tensor(np.ones((8, 2)), requires_grad=True)
        with profiling(profiler=profiler):
            ops.matmul(a, b)
        stat = profiler.ops["matmul"]
        assert stat.fwd_calls == 1
        assert stat.fwd_seconds > 0
        assert stat.flops == 2 * 4 * 2 * 8
        assert stat.bwd_calls == 0

    def test_backward_samples_attributed_to_op_names(self):
        profiler = OpProfiler()
        a = nn.Tensor(np.ones((4, 8)), requires_grad=True)
        b = nn.Tensor(np.ones((8, 2)), requires_grad=True)
        with profiling(profiler=profiler):
            out = ops.sum(ops.tanh(ops.matmul(a, b)))
            out.backward()
        for name in ("matmul", "tanh", "sum"):
            assert profiler.ops[name].bwd_calls == 1
        assert profiler.ops["matmul"].bwd_flops \
            == 2 * profiler.ops["matmul"].flops
        assert "backward" in profiler.ops
        assert profiler.ops["backward"].kind == "scope"

    def test_composite_op_nests_constituents(self):
        profiler = OpProfiler()
        x = nn.Tensor(np.ones((3, 5)))
        mask = np.zeros((3, 5), dtype=bool)
        mask[:, 3:] = True
        with profiling(profiler=profiler):
            ops.masked_mean(x, mask, axis=-1)
        assert any(path.startswith("masked_mean;") for path in profiler.stacks)

    def test_scope_self_time_excludes_children(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            with scope("outer"):
                ops.matmul(nn.Tensor(np.ones((50, 50))),
                           nn.Tensor(np.ones((50, 50))))
        outer_self = profiler.self_seconds("outer")
        outer_total = profiler.ops["outer"].fwd_seconds
        child = profiler.ops["matmul"].fwd_seconds
        assert outer_total >= child
        assert outer_self <= outer_total - child + 1e-6

    def test_exception_in_op_still_closes_frame(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            with pytest.raises(ValueError):
                ops.matmul(nn.Tensor(np.ones((2, 3))),
                           nn.Tensor(np.ones((2, 3))))
            ops.add(nn.Tensor(np.ones(2)), nn.Tensor(np.ones(2)))
        assert profiler._frames == []
        assert profiler.ops["add"].fwd_calls == 1

    def test_live_bytes_watermark(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            tensors = [nn.Tensor(np.zeros(1000)) for _ in range(3)]
            assert profiler.live_bytes >= 3 * 8000
            del tensors
        import gc

        gc.collect()
        assert profiler.peak_live_bytes >= 3 * 8000
        assert profiler.live_bytes < 3 * 8000

    def test_collapsed_format(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            with scope("a"):
                ops.matmul(nn.Tensor(np.ones((40, 40))),
                           nn.Tensor(np.ones((40, 40))))
        lines = profiler.collapsed().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0
        assert any(line.startswith("a;matmul ") for line in lines)

    def test_render_helpers_return_text(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            ops.add(nn.Tensor(np.ones(4)), nn.Tensor(np.ones(4)))
        assert "add" in render_profile(profiler)
        assert "add" in render_stacks(profiler)

    def test_profiling_restores_previous_hook(self):
        before = nn.get_tensor_hook()
        with profiling():
            assert nn.get_tensor_hook() is not before
        assert nn.get_tensor_hook() is before

    def test_scope_is_noop_without_hook(self):
        assert scope("x") is scope("y")

    def test_profile_written_to_jsonl(self, tmp_path):
        import json

        path = tmp_path / "profile.jsonl"
        with profiling(path):
            ops.add(nn.Tensor(np.ones(4)), nn.Tensor(np.ones(4)))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        types = {record["type"] for record in records}
        assert {"op", "stack", "memory", "summary"} <= types


class TestSnapshotMerge:
    def _sample_profiler(self):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            out = ops.sum(ops.matmul(
                nn.Tensor(np.ones((4, 8)), requires_grad=True),
                nn.Tensor(np.ones((8, 2)), requires_grad=True)))
            out.backward()
        return profiler

    def test_merge_of_diff_reproduces_totals(self):
        profiler = self._sample_profiler()
        empty_base = OpProfiler().snapshot()
        delta = profiler.diff(empty_base)
        fresh = OpProfiler()
        fresh.merge(delta)
        assert fresh.ops.keys() == profiler.ops.keys()
        for name in profiler.ops:
            assert fresh.ops[name]._row() == profiler.ops[name]._row()
        assert fresh.peak_live_bytes == profiler.peak_live_bytes

    def test_diff_is_delta_since_baseline(self):
        profiler = self._sample_profiler()
        baseline = profiler.snapshot()
        with profiling(profiler=profiler):
            ops.matmul(nn.Tensor(np.ones((4, 8))),
                       nn.Tensor(np.ones((8, 2))))
        delta = profiler.diff(baseline)
        assert delta["ops"]["matmul"][1] == 1  # one new forward call
        assert "sum" not in delta["ops"]       # unchanged op dropped

    def test_peak_bytes_max_merges(self):
        low, high = OpProfiler(), OpProfiler()
        low.peak_live_bytes = 100
        high.peak_live_bytes = 500
        low.merge(high.diff(OpProfiler().snapshot()))
        assert low.peak_live_bytes == 500

    def test_publish_into_metrics(self):
        profiler = self._sample_profiler()
        metrics = obs.MetricsRegistry()
        profiler.publish(metrics)
        rows = dict((name, (calls, seconds, flops))
                    for name, calls, seconds, flops
                    in metrics.profile_summary())
        assert rows["matmul"][0] == profiler.ops["matmul"].calls
        assert rows["matmul"][2] == profiler.ops["matmul"].total_flops
        assert metrics.gauges["profile.peak_live_bytes"] \
            == profiler.peak_live_bytes


class TestNumericTransparency:
    """Hook-on is bit-identical to hook-off (the acceptance criterion)."""

    def _train_step(self, instances, profiler=None):
        trainer = TASNetTrainer(
            _make_policy(seed=7), InsertionSolver(),
            TrainingConfig(iterations=1, batch_size=1, seed=3,
                           rollouts_per_instance=2))
        if profiler is None:
            trainer.train_iteration(instances)
        else:
            with profiling(profiler=profiler):
                trainer.train_iteration(instances)
        state = trainer.policy.net.state_dict()
        history = {name: list(values) for name, values
                   in trainer.history.items()
                   if not name.startswith("profile_")}
        return state, history

    def test_train_step_bit_identical_with_profiler(self, instance):
        baseline_state, baseline_history = self._train_step([instance])
        profiler = OpProfiler()
        profiled_state, profiled_history = self._train_step([instance],
                                                            profiler)
        assert baseline_history == profiled_history
        assert baseline_state.keys() == profiled_state.keys()
        for name in baseline_state:
            np.testing.assert_array_equal(baseline_state[name],
                                          profiled_state[name])
        # The profiled run actually recorded the update machinery.
        assert profiler.ops["matmul"].bwd_calls > 0
        assert "adam.step" in profiler.ops
        assert "clip_grad_norm" in profiler.ops

    def test_profiled_solve_matches_unprofiled(self, instance):
        baseline = _make_solver().solve(
            instance, greedy=False, rng=np.random.default_rng(5),
            num_samples=3)
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            profiled = _make_solver().solve(
                instance, greedy=False, rng=np.random.default_rng(5),
                num_samples=3)
        assert profiled.objective == baseline.objective
        assert sorted(t.task_id for t in profiled.completed_tasks) \
            == sorted(t.task_id for t in baseline.completed_tasks)

    def test_no_grad_decode_records_zero_backward_samples(self, instance):
        profiler = OpProfiler()
        with profiling(profiler=profiler):
            _make_solver().solve(instance, greedy=True)
        assert profiler.ops  # ops were recorded...
        assert all(stat.bwd_calls == 0 for stat in profiler.ops.values())
        assert "backward" not in profiler.ops

    def test_history_profile_series_recorded(self, instance):
        trainer = TASNetTrainer(
            _make_policy(seed=7), InsertionSolver(),
            TrainingConfig(iterations=1, batch_size=1, seed=3))
        with profiling():
            trainer.train_iteration([instance])
        for series in ("profile_forward_seconds", "profile_backward_seconds",
                       "profile_flops", "profile_peak_live_bytes"):
            assert len(trainer.history.series(series)) == 1
        assert trainer.history.last("profile_flops") > 0
        assert trainer.history.last("profile_backward_seconds") > 0
        # Without a profiler the series stay absent (no zero-padding).
        trainer.train_iteration([instance])
        assert len(trainer.history.series("profile_flops")) == 1


class TestPoolParity:
    @pytest.mark.skipif(not fork_available(), reason="needs fork pools")
    def test_per_episode_profile_identical_serial_vs_pool(self, instance,
                                                          monkeypatch):
        def profiled_solve():
            profiler = OpProfiler()
            with profiling(profiler=profiler):
                solution = _make_solver().solve(
                    instance, greedy=False, rng=np.random.default_rng(7),
                    num_samples=4, workers=2)
            return solution, profiler

        pool_solution, pooled = profiled_solve()
        # Without fork, parallel_map runs the same two chunks in-process.
        monkeypatch.setattr(repro.parallel, "fork_available", lambda: False)
        serial_solution, serial = profiled_solve()
        assert pool_solution.objective == serial_solution.objective
        assert pooled.ops.keys() == serial.ops.keys()
        for name in serial.ops:
            assert pooled.ops[name].fwd_calls == serial.ops[name].fwd_calls, \
                name
            assert pooled.ops[name].flops == serial.ops[name].flops, name
            assert pooled.ops[name].nbytes == serial.ops[name].nbytes, name
        assert pooled.peak_live_bytes > 0
