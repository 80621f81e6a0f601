"""Profile regression bench (PR 4): ``results/BENCH_PR4.json``.

Pins the op-level autograd profiler (:mod:`repro.obs.profile`) on
paper-scale workloads:

- **Attribution** — profiling one TASNet training epoch at the paper's
  network scale (d_model 128, 8 heads, 3 encoder layers) must attribute
  at least 95% of the epoch's wall time to named ops and scopes: the
  self time left on the outer ``epoch`` scope (time no instrumented op,
  backward closure, optimizer region, or inner scope claimed) stays
  below 5%.
- **FLOP fidelity** — the profiler-recorded matmul FLOPs for the
  decode's attention core, run batched at the decode's own shape
  (``num_samples`` rollouts over the instance's task set), match the
  closed-form count from :meth:`MultiHeadAttention.forward_flops`
  within 1%.
- **Disabled cost** — with the null hook installed every instrumented
  op is one ``enabled`` check; the unit cost of that check times the
  number of instrumentation points a profiled solve records stays
  below 2% of the unprofiled solve's wall time.
- **Transparency** — a profiled batched solve returns the bit-identical
  objective to an unprofiled one (profiling observes, never perturbs).

The per-op tables (top ops by time and by FLOPs, peak live tensor
bytes) go into the artefact so attribution drift shows up as a diff.
"""

import time

import numpy as np

from repro import nn
from repro.datasets import InstanceOptions, generate_instances
from repro.nn.tensor import instrument_op
from repro.obs.profile import OpProfiler, profiling, scope
from repro.smore import (SMORESolver, TASNet, TASNetConfig, TASNetPolicy,
                         TASNetTrainer, TrainingConfig)
from repro.tsptw import InsertionSolver

from .conftest import write_bench

NUM_SAMPLES = 4
D_MODEL = 128
NUM_HEADS = 8
NUM_LAYERS = 3
MAX_UNACCOUNTED = 0.05
MAX_FLOP_ERROR = 0.01
MAX_DISABLED_OVERHEAD = 0.02
NOOP_REPS = 100_000
TOP_OPS = 8


def _paper_policy(instance, seed=0):
    grid = instance.coverage.grid
    net = TASNet(TASNetConfig(d_model=D_MODEL, num_heads=NUM_HEADS,
                              num_layers=NUM_LAYERS),
                 grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(seed))
    return TASNetPolicy(net)


def _top_ops(profiler, key, limit=TOP_OPS):
    rows = [(name, stat) for name, stat in profiler.ops.items()
            if stat.kind != "scope"]
    rows.sort(key=lambda item: key(item[1]), reverse=True)
    return [{"op": name, "calls": stat.calls,
             "seconds": stat.seconds, "flops": stat.total_flops}
            for name, stat in rows[:limit]]


def _disabled_unit_cost():
    """Per-call cost of the instrumentation wrapper with the null hook."""

    def noop(x):
        return x

    wrapped = instrument_op(noop, "bench_noop")
    start = time.perf_counter()
    for _ in range(NOOP_REPS):
        wrapped(None)
    wrapped_cost = (time.perf_counter() - start) / NOOP_REPS
    start = time.perf_counter()
    for _ in range(NOOP_REPS):
        noop(None)
    raw_cost = (time.perf_counter() - start) / NOOP_REPS
    return max(wrapped_cost - raw_cost, 0.0)


def test_profile_regression(benchmark, results_dir):
    def run():
        options = InstanceOptions(task_density=0.15)
        instance = generate_instances("delivery", 1, seed=100,
                                      options=options)[0]

        # -- paper-scale epoch: wall-time attribution ------------------ #
        trainer = TASNetTrainer(
            _paper_policy(instance), InsertionSolver(),
            TrainingConfig(iterations=1, batch_size=1,
                           rollouts_per_instance=2, seed=0))
        epoch_profiler = OpProfiler()
        with profiling(profiler=epoch_profiler):
            with scope("epoch"):
                trainer.train_iteration([instance])
        epoch_wall = epoch_profiler.ops["epoch"].fwd_seconds
        unaccounted = epoch_profiler.self_seconds("epoch")
        backward_flops = sum(stat.bwd_flops
                             for stat in epoch_profiler.ops.values())

        # -- batched solve: transparency + disabled-hook cost ---------- #
        solver = SMORESolver(InsertionSolver(), _paper_policy(instance))
        start = time.perf_counter()
        plain = solver.solve(instance, num_samples=NUM_SAMPLES,
                             rng=np.random.default_rng(0))
        plain_time = time.perf_counter() - start

        solve_profiler = OpProfiler()
        with profiling(profiler=solve_profiler):
            with scope("workload.solve"):
                start = time.perf_counter()
                profiled = solver.solve(instance, num_samples=NUM_SAMPLES,
                                        rng=np.random.default_rng(0))
                profiled_time = time.perf_counter() - start

        # Each op call is one ``enabled`` check when disabled; tensor
        # construction and backward-walk checks ride on the same flag,
        # so count forward calls twice plus every backward sample.
        points = sum(2 * stat.fwd_calls + stat.bwd_calls
                     for stat in solve_profiler.ops.values())
        unit_cost = _disabled_unit_cost()
        disabled_overhead = unit_cost * points / plain_time

        # -- decode attention core: closed-form FLOP agreement --------- #
        n_tasks = instance.num_sensing_tasks
        mha = nn.MultiHeadAttention(D_MODEL, NUM_HEADS,
                                    rng=np.random.default_rng(1))
        x = nn.Tensor(np.random.default_rng(2).normal(
            size=(NUM_SAMPLES, n_tasks, D_MODEL)))
        mha_profiler = OpProfiler()
        with profiling(profiler=mha_profiler):
            mha(x)
        # Projections record as ``matmul``; both attention products, the
        # scaling and the softmax as one ``attention_core``.
        recorded_flops = (mha_profiler.ops["matmul"].flops
                          + mha_profiler.ops["attention_core"].flops)
        closed_form = mha.forward_flops(n_tasks, batch=NUM_SAMPLES)
        flop_error = abs(recorded_flops - closed_form) / closed_form

        return {
            "instance": {"W": instance.num_workers,
                         "S": instance.num_sensing_tasks,
                         "num_samples": NUM_SAMPLES},
            "network": {"d_model": D_MODEL, "num_heads": NUM_HEADS,
                        "num_layers": NUM_LAYERS},
            "epoch": {
                "wall_time": epoch_wall,
                "unaccounted_seconds": unaccounted,
                "unaccounted_fraction": unaccounted / epoch_wall,
                "flops": epoch_profiler.total_flops(),
                "backward_flops": backward_flops,
                "peak_live_bytes": epoch_profiler.peak_live_bytes,
                "history_profile_flops":
                    trainer.history.last("profile_flops"),
                "top_ops_by_time": _top_ops(
                    epoch_profiler, lambda stat: stat.seconds),
            },
            "solve": {
                "wall_time_plain": plain_time,
                "wall_time_profiled": profiled_time,
                "enabled_ratio": profiled_time / plain_time,
                "phi_plain": plain.objective,
                "phi_profiled": profiled.objective,
                "instrumentation_points": points,
                "disabled_unit_seconds": unit_cost,
                "disabled_overhead": disabled_overhead,
                "top_ops_by_flops": _top_ops(
                    solve_profiler, lambda stat: stat.total_flops),
            },
            "decode_attention_flops": {
                "batch": NUM_SAMPLES, "n": n_tasks,
                "recorded": recorded_flops,
                "closed_form": closed_form,
                "relative_error": flop_error,
            },
        }

    record = benchmark.pedantic(run, iterations=1, rounds=1)
    text = write_bench(results_dir, 4, record)
    print("\n" + text)

    # >= 95% of the epoch's wall time lands on named ops and scopes.
    assert record["epoch"]["unaccounted_fraction"] < MAX_UNACCOUNTED
    # The hot path is attributed: matmul shows up with real FLOPs, the
    # backward walk is costed, and the live-tensor watermark moved.
    top_names = [row["op"] for row in record["epoch"]["top_ops_by_time"]]
    assert "matmul" in top_names
    assert record["epoch"]["backward_flops"] > 0
    assert record["epoch"]["peak_live_bytes"] > 0
    assert record["epoch"]["history_profile_flops"] == \
        record["epoch"]["flops"]
    # Profiling observes without perturbing the computation.
    assert record["solve"]["phi_profiled"] == record["solve"]["phi_plain"]
    # The disabled hook's share of an unprofiled solve stays negligible.
    assert record["solve"]["instrumentation_points"] > 0
    assert record["solve"]["disabled_overhead"] < MAX_DISABLED_OVERHEAD
    # Recorded FLOPs agree with the closed-form attention count.
    assert record["decode_attention_flops"]["relative_error"] \
        <= MAX_FLOP_ERROR
