"""Perf regression bench: one ``results/BENCH_PR<n>.json`` per PR.

Smoke-scale guardrails for the performance layer.  PR 1 (snapshot reuse,
planner caching, fork-pool parity):

- sample-and-select-best inference pays the O(|W| x |S|) candidate
  initialisation exactly once (snapshot reuse), not once per rollout;
- a :class:`~repro.tsptw.CachedPlanner` wrapper reports a non-trivial hit
  rate on the counters the solution carries;
- a parallel (``workers=2``) solve returns the same objective as serial.

PR 2's batched-over-per-episode decode throughput record
(``results/BENCH_PR2.json``) is history: every rollout now decodes
through the one lock-step runner, so there is no second path to time.

PR 3 (observability layer): the ``repro.obs`` instrumentation is free
when tracing is disabled — the estimated cost of the solver's no-op
instrumentation points stays below 2% of a smoke solve — and a traced
solve decodes the identical solution.

Timings and call counts are written to the per-PR artefacts so
regressions show up as a diff; assertions pin call counts (absolute
wall time is hardware-dependent).
"""

import time

import numpy as np

from repro import obs
from repro.datasets import InstanceOptions, generate_instances
from repro.smore import RatioSelectionRule, SMORESolver
from repro.tsptw import CachedPlanner, InsertionSolver

from .conftest import write_bench

NUM_SAMPLES = 4
MAX_DISABLED_OVERHEAD = 0.02
NOOP_REPS = 100_000


def test_perf_regression(benchmark, results_dir):
    def run():
        options = InstanceOptions(task_density=0.15)
        instance = generate_instances("delivery", 1, seed=100,
                                      options=options)[0]
        solver = SMORESolver(InsertionSolver(), RatioSelectionRule())

        start = time.perf_counter()
        reuse = solver.solve(instance, num_samples=NUM_SAMPLES,
                             rng=np.random.default_rng(0))
        reuse_time = time.perf_counter() - start

        # Same instance solved twice through one memoising wrapper (the
        # experiment-grid scenario): the second solve repeats every
        # planner query, so its counters show the cross-solve hit rate.
        cached_solver = SMORESolver(CachedPlanner(InsertionSolver()),
                                    RatioSelectionRule())
        cached_solver.solve(instance)
        cached = cached_solver.solve(instance)

        parallel = solver.solve(instance, num_samples=NUM_SAMPLES,
                                rng=np.random.default_rng(0), workers=2)

        return {
            "instance": {"W": instance.num_workers,
                         "S": instance.num_sensing_tasks,
                         "num_samples": NUM_SAMPLES},
            "snapshot_reuse": dict(reuse.perf.to_dict(),
                                   wall_time=reuse_time),
            "cached_planner": cached.perf.to_dict(),
            "parallel": {"phi_serial": reuse.objective,
                         "phi_parallel": parallel.objective,
                         "planner_calls": parallel.perf.planner_calls},
        }

    record = benchmark.pedantic(run, iterations=1, rounds=1)
    text = write_bench(results_dir, 1, record)
    print("\n" + text)

    w_times_s = record["instance"]["W"] * record["instance"]["S"]
    # Snapshot reuse: the init sweep runs once, not once per rollout.
    assert record["snapshot_reuse"]["init_planner_calls"] == w_times_s
    assert record["snapshot_reuse"]["rollouts"] == NUM_SAMPLES
    # The memoising wrapper absorbs the second solve's repeated queries.
    assert record["cached_planner"]["cache_hits"] > 0
    assert record["cached_planner"]["cache_hit_rate"] > 0.3
    # Parallel decoding is result-identical to serial.
    assert record["parallel"]["phi_parallel"] == \
        record["parallel"]["phi_serial"]
    assert record["parallel"]["planner_calls"] == \
        record["snapshot_reuse"]["planner_calls"]


def test_trace_overhead(benchmark, results_dir):
    """PR 3: tracing costs nothing when off, and changes nothing when on.

    The disabled path is measured directly: time ``NOOP_REPS`` no-op
    span+count pairs against the null tracer, count the instrumentation
    operations one traced smoke solve actually performs, and bound their
    estimated share of the untraced solve's wall time below 2%.  A traced
    solve must also return the bit-identical objective and mirror the
    solution's own perf counters into the registry.
    """

    def run():
        options = InstanceOptions(task_density=0.15)
        instance = generate_instances("delivery", 1, seed=100,
                                      options=options)[0]
        solver = SMORESolver(InsertionSolver(), RatioSelectionRule())

        start = time.perf_counter()
        untraced = solver.solve(instance, num_samples=NUM_SAMPLES,
                                rng=np.random.default_rng(0))
        untraced_time = time.perf_counter() - start

        sink = obs.ListSink()
        with obs.tracing(sink=sink) as tracer:
            start = time.perf_counter()
            traced = solver.solve(instance, num_samples=NUM_SAMPLES,
                                  rng=np.random.default_rng(0))
            traced_time = time.perf_counter() - start
            counters = dict(tracer.metrics.counters)
            span_closes = sum(
                int(total) for name, total in tracer.metrics.timings.items()
                if name.startswith("span.") and name.endswith(".count"))

        # Unit cost of one disabled span + counter increment.
        start = time.perf_counter()
        for _ in range(NOOP_REPS):
            with obs.span("bench"):
                obs.count("bench")
        disabled_pair_time = (time.perf_counter() - start) / NOOP_REPS

        # Every record emitted / counter touched / span closed is one
        # instrumentation operation the disabled path turns into a no-op.
        ops_per_solve = span_closes + len(sink.records) + len(counters)
        disabled_overhead = (disabled_pair_time * ops_per_solve
                             / untraced_time)

        return {
            "instance": {"W": instance.num_workers,
                         "S": instance.num_sensing_tasks,
                         "num_samples": NUM_SAMPLES},
            "untraced": dict(untraced.perf.to_dict(),
                             wall_time=untraced_time),
            "traced": dict(traced.perf.to_dict(), wall_time=traced_time),
            "phi_untraced": untraced.objective,
            "phi_traced": traced.objective,
            "trace_counters": counters,
            "ops_per_solve": ops_per_solve,
            "disabled_pair_seconds": disabled_pair_time,
            "disabled_overhead": disabled_overhead,
            "enabled_ratio": traced_time / untraced_time,
        }

    record = benchmark.pedantic(run, iterations=1, rounds=1)
    text = write_bench(results_dir, 3, record)
    print("\n" + text)

    # Tracing changes nothing about the computation...
    assert record["phi_traced"] == record["phi_untraced"]
    assert record["traced"]["planner_calls"] == \
        record["untraced"]["planner_calls"]
    # ...the registry mirrors the solution's own counters...
    assert record["trace_counters"]["solve.planner_calls"] == \
        record["traced"]["planner_calls"]
    assert record["trace_counters"]["solve.rollouts"] == NUM_SAMPLES
    # ...and the disabled path costs a negligible share of a solve.
    assert record["ops_per_solve"] > 0
    assert record["disabled_overhead"] < MAX_DISABLED_OVERHEAD
