"""Perf regression bench for the dynamic env's epoch sweep.

Pins the epoch sweep's win — each worker sweeps only the epoch's
arrivals — over the per-epoch rebuild oracle (``RebuildDynamicEnv`` in
``tests/smore/oracle.py``) at paper scale (delivery at
``task_density=0.15``: S=144 sensing tasks, W=7 workers), and its
exactness:

- a full greedy dynamic episode over a streamed Poisson schedule is
  bit-identical — objective, selected / rejected sets, event count,
  final routes — on the production env and on the rebuild oracle;
- per event epoch, the sweep is at least ``MIN_REPAIR_SPEEDUP``x faster
  than rebuilding the table from scratch, and issues strictly fewer
  planner calls.  ``tests/smore/test_dynamic.py`` runs the same
  exactness checks at small scale.

Timings land in ``results/BENCH_PR8.json`` (a CI artifact), so a
regression shows up as a diff; the assertion pins the speedup ratio
(absolute wall time is hardware-dependent).
"""

import time

import numpy as np

from repro.datasets import InstanceOptions, generate_instances, poisson_arrivals
from repro.smore import DynamicSelectionEnv, GreedySelectionRule, \
    run_episode
from repro.tsptw import InsertionSolver
from tests.smore.oracle import RebuildDynamicEnv

from .conftest import write_bench

BENCH_ROUNDS = 3
MIN_REPAIR_SPEEDUP = 3.0


def _episode(instance, schedule, repair):
    """One greedy dynamic episode on the production env (``repair``) or
    the rebuild oracle; returns (state, env)."""
    planner = InsertionSolver(speed=instance.speed)
    env_cls = DynamicSelectionEnv if repair else RebuildDynamicEnv
    env = env_cls(instance, planner, schedule)
    state, _ = run_episode(env, GreedySelectionRule())[:2]
    return state, env


def _routes(state):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in state.assignments.routes().items())


def test_dynamic_repair_regression(benchmark, results_dir):
    def run():
        options = InstanceOptions(task_density=0.15, num_workers=7)
        instance = generate_instances("delivery", 1, seed=100,
                                      options=options)[0]
        schedule = poisson_arrivals(instance, np.random.default_rng(8),
                                    initial_fraction=0.3)

        # Alternate the modes and keep each one's fastest round: the
        # minimum is the scheduler-noise-free estimate.  ``repair_time``
        # accumulates exactly the advance() epochs — selection steps are
        # identical on both envs and excluded from the ratio.
        repair_event = rebuild_event = float("inf")
        for _ in range(BENCH_ROUNDS):
            repair_state, repair_env = _episode(instance, schedule, True)
            repair_event = min(
                repair_event, repair_env.repair_time / repair_state.events)
            rebuild_state, rebuild_env = _episode(instance, schedule, False)
            rebuild_event = min(
                rebuild_event, rebuild_env.repair_time / rebuild_state.events)

        return {
            "instance": {"W": instance.num_workers,
                         "S": instance.num_sensing_tasks,
                         "initial_tasks": len(schedule.initial),
                         "streamed_tasks": len(schedule.streamed)},
            "episode": {
                "events": repair_state.events,
                "selected": len(repair_state.selected),
                "rejected": len(repair_state.rejected),
                "arrived": repair_state.arrived,
                "phi_repair": repair_state.phi(),
                "phi_rebuild": rebuild_state.phi(),
                "selected_repair": sorted(
                    t.task_id for t in repair_state.selected),
                "selected_rebuild": sorted(
                    t.task_id for t in rebuild_state.selected),
                "routes_identical": (_routes(repair_state)
                                     == _routes(rebuild_state)),
            },
            "per_event": {
                "repair_seconds": repair_event,
                "rebuild_seconds": rebuild_event,
                "speedup": rebuild_event / repair_event,
                "planner_calls_repair": repair_env.perf.planner_calls,
                "planner_calls_rebuild": rebuild_env.perf.planner_calls,
            },
        }

    record = benchmark.pedantic(run, iterations=1, rounds=1)
    text = write_bench(results_dir, 8, record)
    print("\n" + text)

    scale = record["instance"]
    assert scale["W"] == 7
    assert scale["S"] == 144

    episode = record["episode"]
    # The sweep changes the wall clock, never the episode: same objective,
    # same selections, same rejections, same final routes.
    assert episode["phi_repair"] == episode["phi_rebuild"]
    assert episode["selected_repair"] == episode["selected_rebuild"]
    assert episode["routes_identical"]
    assert episode["selected"] + episode["rejected"] == episode["arrived"]
    assert episode["events"] > 0

    per_event = record["per_event"]
    assert per_event["speedup"] >= MIN_REPAIR_SPEEDUP
    assert per_event["planner_calls_repair"] < \
        per_event["planner_calls_rebuild"]
