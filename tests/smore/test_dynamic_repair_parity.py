"""Property test: the epoch sweep is plane-identical to a fresh rebuild.

The invariant of the dynamic environment: after every event epoch, the
candidate table — built by sweeping only the arrivals (and, for a late
worker, the whole pool) — must equal, with the same worker order, pool,
candidate mask, and under it the same route travel times, incentive
deltas and recorded insertion positions, a from-scratch anchored build
over the current task pool and committed worker states
(``oracle.rebuild_table``).

The sweep runs 200+ randomized configurations: seeds x arrival process x
planner (vectorized kernels or the object-path oracle) x memoised vs. raw
planner.
Each configuration replays a full greedy dynamic episode and checks the
invariant at every epoch, so arrivals, expiries, mid-route locks and
within-episode selection all reach the epoch sweep.  A hand-built
schedule adds the one case a random one rarely hits: a worker joining in
the same epoch as an arrival.
"""

import numpy as np
import pytest

from repro.datasets import (
    InstanceOptions,
    burst_arrivals,
    generate_instances,
    poisson_arrivals,
)
from repro.datasets.dynamic import ArrivalSchedule, TaskArrival
from repro.smore import DynamicSelectionEnv, GreedySelectionRule
from repro.smore.candidates import CandidateTable
from repro.tsptw import InsertionSolver
from repro.tsptw.cache import CachedPlanner

from ..tsptw.oracle import ObjectInsertionSolver
from .oracle import RebuildDynamicEnv, rebuild_table, run_dynamic_episode

SEEDS = range(25)
SCHEDULES = {"poisson": poisson_arrivals, "burst": burst_arrivals}
BACKENDS = {
    "kernels": lambda speed: InsertionSolver(speed=speed),
    "object": lambda speed: ObjectInsertionSolver(speed=speed),
    "cached-kernels": lambda speed: CachedPlanner(
        InsertionSolver(speed=speed)),
    "cached-object": lambda speed: CachedPlanner(
        ObjectInsertionSolver(speed=speed)),
}
# 25 seeds x 2 schedules x 4 backends = 200 configurations.
CONFIGS = [(seed, sched, backend) for seed in SEEDS
           for sched in SCHEDULES for backend in BACKENDS]


def _instance(seed):
    rng = np.random.default_rng(seed)
    return generate_instances(
        "delivery", 1, seed=seed,
        options=InstanceOptions(task_density=0.015 + 0.01 * rng.random(),
                                num_workers=2 + int(rng.integers(3))))[0]


def _pairs(table: CandidateTable, where: np.ndarray) -> list[tuple]:
    """``(worker_id, task_id)`` of the cells set in ``where``."""
    return [(table.workers[r].worker_id, int(table.task_ids[c]))
            for r, c in np.argwhere(where)]


def _assert_tables_identical(repaired: CandidateTable,
                             reference: CandidateTable, context: str):
    assert repaired.order == reference.order, \
        f"worker order diverged ({context})"
    assert (repaired.pool == reference.pool).all(), \
        f"pool diverged ({context})"
    mask = reference.mask
    diverged = repaired.mask != mask
    assert not diverged.any(), \
        f"mask diverged at {_pairs(reference, diverged)} ({context})"
    for plane in ("rtt", "delta_incentive", "pos"):
        diverged = mask & (getattr(repaired, plane)
                           != getattr(reference, plane))
        assert not diverged.any(), \
            f"{plane} diverged at {_pairs(reference, diverged)} ({context})"


@pytest.mark.parametrize("seed,schedule_kind,backend", CONFIGS)
def test_repair_row_identical_to_rebuild(seed, schedule_kind, backend):
    instance = _instance(seed)
    schedule = SCHEDULES[schedule_kind](
        instance, np.random.default_rng(1000 + seed),
        initial_fraction=0.3 + 0.05 * (seed % 5))
    planner = BACKENDS[backend](instance.speed)
    env = DynamicSelectionEnv(instance, planner, schedule)
    policy = GreedySelectionRule()
    state = env.reset()
    policy.begin_episode(instance)
    epochs_checked = 0
    while True:
        _assert_tables_identical(state.candidates,
                                 rebuild_table(env, state),
                                 f"epoch t={state.now:g}")
        while not state.candidates.empty:
            action = policy.act(state)
            state, _, _ = env.step_state(state, action.worker_id,
                                         action.task_id)
        if not env.advance(state):
            break
        epochs_checked += 1
    assert epochs_checked > 0, "schedule produced no events to repair over"
    assert len(state.selected) + len(state.rejected) == state.arrived


def _join_with_arrival(join_at=30.0):
    """An instance and schedule where a late worker joins at ``join_at``,
    the very time every third task (by id) arrives; the rest are present
    from the start."""
    instance = generate_instances(
        "delivery", 1, seed=0,
        options=InstanceOptions(task_density=0.05, num_workers=3))[0]
    records, arriving = [], set()
    for i, task in enumerate(sorted(instance.sensing_tasks,
                                    key=lambda t: t.task_id)):
        if i % 3 == 0 and task.tw_end > join_at:
            records.append(TaskArrival(task.task_id, join_at, task.tw_end))
            arriving.add(task.task_id)
        else:
            records.append(TaskArrival(task.task_id, 0.0, task.tw_end))
    schedule = ArrivalSchedule(horizon=instance.coverage.time_span,
                               arrivals=tuple(records))
    late = {instance.workers[-1].worker_id: join_at}
    return instance, schedule, late, arriving


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_worker_joining_with_an_arrival_matches_rebuild(backend):
    """The joiner's one sweep over pool plus arrivals equals the rebuild,
    epoch by epoch and over the whole episode."""
    instance, schedule, late, arriving = _join_with_arrival()
    (late_id, join_at), = late.items()
    env = DynamicSelectionEnv(instance, BACKENDS[backend](instance.speed),
                              schedule, worker_arrivals=late)
    policy = GreedySelectionRule()
    state = env.reset()
    policy.begin_episode(instance)
    joined = False
    while True:
        _assert_tables_identical(state.candidates, rebuild_table(env, state),
                                 f"epoch t={state.now:g}")
        while not state.candidates.empty:
            action = policy.act(state)
            state, _, _ = env.step_state(state, action.worker_id,
                                         action.task_id)
        table = state.candidates
        swept = []
        sweep = table.recompute_worker
        table.recompute_worker = lambda worker, *args: (
            swept.append(worker.worker_id), sweep(worker, *args))
        if not env.advance(state):
            break
        del table.recompute_worker
        # One sweep per worker and epoch.
        assert len(swept) == len(set(swept))
        if state.now == join_at:
            row = table.task_ids[table.mask[table.row_of[late_id]]]
            # The joiner holds pairs from both the old pool and the
            # arrivals of its own epoch, past a committed first stop.
            assert set(row.tolist()) & arriving
            assert set(row.tolist()) - arriving
            assert state.locks[late_id] > 0
            assert table.order[-1] == table.row_of[late_id]
            assert late_id in swept
            joined = True
    assert joined

    oracle = RebuildDynamicEnv(instance, BACKENDS[backend](instance.speed),
                               schedule, worker_arrivals=late)
    rebuilt, _ = run_dynamic_episode(oracle, GreedySelectionRule())
    assert state.phi() == rebuilt.phi()
    assert [t.task_id for t in state.selected] == \
        [t.task_id for t in rebuilt.selected]
    assert state.rejected == rebuilt.rejected
    assert state.events == rebuilt.events
    assert {w: [t.task_id for t in r.tasks]
            for w, r in state.assignments.routes().items()} == \
        {w: [t.task_id for t in r.tasks]
         for w, r in rebuilt.assignments.routes().items()}
    assert state.assignments.incentives() == rebuilt.assignments.incentives()
    assert len(state.selected) + len(state.rejected) == state.arrived
    assert env.perf.planner_calls < oracle.perf.planner_calls
