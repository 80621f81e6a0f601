"""Per-instance state dies with its instance.

A long-lived solver solves many distinct instances, each dropped after
its solve.  Everything derived from an instance — packed arrays, planner
bindings, memo tables, base routes — lives on the instance, so traced
memory must stay flat once the solver itself is warm: a planner that kept
anything per instance would grow by every instance it has seen.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.datasets.synthetic import make_city_instance
from repro.obs.recorder import solution_digest
from repro.shard import solve_sharded
from repro.smore import RatioSelectionRule, SMORESolver
from repro.tsptw import CachedPlanner, InsertionSolver

#: Solves before the first reading, and readings after it.
WARMUP, SOLVES = 4, 8

#: Allowed growth over the readings.  Keeping each dropped instance's
#: state would add ~100 KB per solve here.
SLACK_KB = 96


def _delivery(seed):
    return generate_instances("delivery", 1, seed=500 + seed,
                              options=InstanceOptions(task_density=0.03))[0]


def _city(seed):
    return make_city_instance(num_tasks=120, num_workers=16, seed=seed)


def _growth_kb(solve, make) -> float:
    """Traced KB gained over ``SOLVES`` solves after ``WARMUP`` solves,
    each on a fresh instance that is dropped right after."""
    readings = []
    tracemalloc.start()
    try:
        for seed in range(WARMUP + SOLVES):
            instance = make(seed)
            solve(instance)
            del instance
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0] / 1024)
    finally:
        tracemalloc.stop()
    return readings[-1] - readings[WARMUP - 1]


@pytest.mark.parametrize("make_planner", [
    pytest.param(lambda: CachedPlanner(InsertionSolver()), id="cached"),
    pytest.param(InsertionSolver, id="bare"),
])
def test_solver_memory_flat_over_dropped_instances(make_planner):
    solver = SMORESolver(make_planner(), RatioSelectionRule())
    assert _growth_kb(solver.solve, _delivery) < SLACK_KB


def test_sharded_solve_memory_flat_over_dropped_cities():
    """Sub-instances carved per solve take their bindings with them."""
    solver = SMORESolver(InsertionSolver(), RatioSelectionRule())
    growth = _growth_kb(
        lambda city: solve_sharded(solver, city, shards=4, pool=None), _city)
    assert growth < SLACK_KB


def test_pickled_instance_leaves_its_bindings_behind():
    """A pickled instance (as a shard job's sub-instance travels to a pool
    worker) carries the problem alone, and its copy rebuilds the rest."""
    instance = _delivery(0)
    solver = SMORESolver(CachedPlanner(InsertionSolver()),
                         RatioSelectionRule())
    want = solution_digest(solver.solve(instance))
    assert {"_packed", "_bindings"} <= instance.__dict__.keys()
    copy = pickle.loads(pickle.dumps(instance))
    assert not {"_packed", "_bindings"} & copy.__dict__.keys()
    assert solution_digest(solver.solve(copy)) == want
