"""Serving-throughput regression bench for PR 7 (online solver service).

Pins the win of the serving stack at paper scale (``delivery`` at the
paper's task density, the paper's d_model=128 / 8-head / 3-layer
TASNet): 32 concurrent greedy requests round-robin over 8 distinct
instances, answered two ways with the *same* network weights and the
same ``repro.nn`` kernels:

- ``sequential`` — the pre-serving story: one cold
  ``SMORESolver.solve`` per request (fresh env, uncached planner: every
  request re-pays candidate init);
- ``service`` — the micro-batched path: requests coalesced through
  :class:`SolverService` onto a :class:`WarmEngine` holding a memoising
  planner, resident TASNet statics, and per-instance candidate
  snapshots.  The round-robin workload repeats
  each instance 4x, so greedy dedup collapses repeats onto one decode
  slot per batch — the artifact records both the request throughput and
  how many decodes actually ran.

The headline ratio ``sequential_s / service_s`` must stay at least
``MIN_SERVE_SPEEDUP``; every service answer must be bit-identical to
its sequential counterpart (routes, incentives, objective) — batching
and residency change the wall clock, never the solution.  Latency
percentiles (p50/p99) and sustained req/s come from the service's
:mod:`repro.obs`-mirrored histograms and land in
``results/BENCH_PR7.json`` (a CI artifact), so a regression shows up
as a diff; the assertions pin the ratio and the parity (absolute wall
time is hardware-dependent).
"""

import time

import numpy as np

from repro import obs
from repro.datasets import InstanceOptions, generate_instances
from repro.serve import ServeConfig, SolveRequest, WarmEngine, drive_requests
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.tsptw import CachedPlanner, InsertionSolver

from .conftest import write_bench

REQUESTS = 32
POOL = 8                      # distinct instances; 4 requests each
MIN_SERVE_SPEEDUP = 3.0

NET = TASNetConfig(d_model=128, num_heads=8, num_layers=3, conv_channels=8)


def _instances():
    options = InstanceOptions(task_density=0.15)
    return generate_instances("delivery", POOL, seed=100, options=options)


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


def test_serving_throughput_regression(benchmark, results_dir):
    def run():
        instances = _instances()
        grid = instances[0].coverage.grid
        net = TASNet(NET, grid_nx=grid.nx, grid_ny=grid.ny,
                     rng=np.random.default_rng(0))
        policy = TASNetPolicy(net)
        schedule = [instances[i % POOL] for i in range(REQUESTS)]

        # -- sequential per-request baseline (cold everything) ---------- #
        baseline_solver = SMORESolver(InsertionSolver(), policy)
        start = time.perf_counter()
        baseline = [baseline_solver.solve(inst) for inst in schedule]
        sequential_s = time.perf_counter() - start

        # -- micro-batched service on the warm engine ------------------- #
        engine = WarmEngine(SMORESolver(CachedPlanner(InsertionSolver()),
                                        policy))
        requests = [SolveRequest(instance=inst) for inst in schedule]
        with obs.tracing(results_dir / "serve_bench_trace.jsonl") as tracer:
            start = time.perf_counter()
            result = drive_requests(
                engine, requests,
                config=ServeConfig(max_batch_size=REQUESTS,
                                   max_wait_us=50_000.0,
                                   max_queue_depth=REQUESTS))
            service_s = time.perf_counter() - start

        mismatches = sum(
            1 for want, got in zip(baseline, result.outcomes)
            if isinstance(got, Exception)
            or _routes(want) != _routes(got)
            or want.incentives != got.incentives
            or want.objective != got.objective)

        stats = result.stats
        return {
            "scale": {"mode": "delivery", "requests": REQUESTS,
                      "instance_pool": POOL,
                      "workers": instances[0].num_workers,
                      "sensing_tasks": instances[0].num_sensing_tasks,
                      "d_model": NET.d_model, "num_heads": NET.num_heads,
                      "num_layers": NET.num_layers},
            "sequential": {"seconds": sequential_s,
                           "req_per_s": REQUESTS / sequential_s},
            "service": {"seconds": service_s,
                        "req_per_s": REQUESTS / service_s,
                        "sustained_req_per_s": stats["sustained_req_per_s"],
                        "batch_size": stats["batch_size"],
                        "latency_ms": stats["latency_ms"],
                        "queue_depth_peak": stats["queue_depth_peak"],
                        "dedup_hits": stats["dedup_hits"],
                        "decodes": REQUESTS - stats["dedup_hits"],
                        "engine": stats["engine"]},
            "speedup": {"service_vs_sequential": sequential_s / service_s},
            "parity": {"checked": REQUESTS,
                       "identical": REQUESTS - mismatches,
                       "mismatches": mismatches},
            "tracer_saw_serving_metrics": bool(
                tracer.metrics.histogram_summary(
                    "serve.latency_ms")["count"]),
        }

    record = benchmark.pedantic(run, iterations=1, rounds=1)
    text = write_bench(results_dir, 7, record)
    print("\n" + text)

    # Bit-parity: batching and residency must not change any answer.
    assert record["parity"]["mismatches"] == 0, \
        f"{record['parity']['mismatches']} service answers diverged"
    # The serving stack must beat sequential per-request solving 3x.
    speedup = record["speedup"]["service_vs_sequential"]
    assert speedup >= MIN_SERVE_SPEEDUP, (
        f"service speedup {speedup:.2f}x under the "
        f"{MIN_SERVE_SPEEDUP:.1f}x floor")
    # Percentiles were actually published (non-empty histograms).
    latency = record["service"]["latency_ms"]
    assert latency["count"] == REQUESTS
    assert latency["p50"] <= latency["p99"]
    assert record["service"]["batch_size"]["max"] > 1
    assert record["tracer_saw_serving_metrics"]
