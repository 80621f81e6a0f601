"""Property test: incremental repair is row-identical to a fresh rebuild.

The tentpole invariant of the dynamic environment: after every event
epoch, the incrementally repaired candidate table must equal — same
worker order, same row key order, same route travel times, same
incentive deltas, same recorded insertion positions — a from-scratch
anchored build over the current task pool and committed worker states.

The sweep runs 200+ randomized configurations: seeds x arrival process x
planner (vectorized kernels or the object-path oracle) x memoised vs. raw
planner.
Each configuration replays a full greedy dynamic episode and checks the
invariant at every epoch, so arrivals, expiries, mid-route re-anchoring
and within-episode selection all hit the repair paths.
"""

import numpy as np
import pytest

from repro.datasets import (
    InstanceOptions,
    burst_arrivals,
    generate_instances,
    poisson_arrivals,
)
from repro.smore import DynamicSelectionEnv, GreedySelectionRule
from repro.smore.candidates import CandidateTable
from repro.tsptw import InsertionSolver
from repro.tsptw.cache import CachedPlanner

from ..tsptw.oracle import ObjectInsertionSolver

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


def _assert_tables_identical(repaired: CandidateTable,
                             reference: CandidateTable, context: str):
    assert list(repaired._table) == list(reference._table), \
        f"worker order diverged ({context})"
    for worker_id, ref_row in reference._table.items():
        row = repaired._table[worker_id]
        assert list(row) == list(ref_row), \
            f"row key order diverged for worker {worker_id} ({context})"
        for task_id, ref_entry in ref_row.items():
            entry = row[task_id]
            assert entry.route_travel_time == ref_entry.route_travel_time, \
                f"rtt diverged at C[{worker_id}][{task_id}] ({context})"
            assert entry.delta_incentive == ref_entry.delta_incentive, \
                f"delta diverged at C[{worker_id}][{task_id}] ({context})"
            if entry.position is not None and ref_entry.position is not None:
                assert entry.position == ref_entry.position, \
                    f"position diverged at C[{worker_id}][{task_id}] " \
                    f"({context})"
    assert repaired._task_workers == reference._task_workers, \
        f"reverse index diverged ({context})"
    assert repaired._nonempty == reference._nonempty, \
        f"nonempty index diverged ({context})"


def _reference_table(env: DynamicSelectionEnv, state) -> CandidateTable:
    reference = CandidateTable(env.planner, env.incentives)
    reference.rebuild(env._worker_states(state, stranded=True),
                      list(state.unselected.values()), state.budget_rest)
    return reference


@pytest.mark.parametrize("seed,schedule_kind,backend", CONFIGS)
def test_repair_row_identical_to_rebuild(seed, schedule_kind, backend):
    instance = _instance(seed)
    schedule = SCHEDULES[schedule_kind](
        instance, np.random.default_rng(1000 + seed),
        initial_fraction=0.3 + 0.05 * (seed % 5))
    planner = BACKENDS[backend](instance.speed)
    env = DynamicSelectionEnv(instance, planner, schedule, repair=True)
    policy = GreedySelectionRule()
    state = env.reset()
    policy.begin_episode(instance)
    epochs_checked = 0
    while True:
        _assert_tables_identical(state.candidates,
                                 _reference_table(env, state),
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
