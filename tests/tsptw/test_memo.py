"""The array-backed insertion memo against the per-task oracle.

Random sweep sequences — permuted bases, sensing ids equal to travel-task
ids, anchored ``min_position`` values, task-block and list inputs,
duplicate ids, single insertions and empty sweeps — run through both
memos over one backend.  Every answer must agree bitwise, and the hit,
miss and backend-call counts exactly, also while instances are replaced
and their memos dropped.
"""

import gc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Location, Region, SensingTask
from repro.tsptw import CachedPlanner, InsertionSolver
from repro.tsptw.kernels import TaskBlock

from .conftest import SPEED, random_sensing, random_worker
from .memo_oracle import PerTaskCachedPlanner

COUNTERS = ("hits", "misses", "backend_calls")


def _world(rng):
    """Workers, each with a few route orders, and a shared sensing pool
    holding twins of travel-task ids."""
    region = Region(2000, 2400)
    workers = [random_worker(rng, region, num_travel=int(rng.integers(0, 4)),
                             time_budget=float(rng.uniform(120, 320)))
               for _ in range(3)]
    pool = random_sensing(rng, region, count=10)
    pool += [SensingTask(i, Location(rng.uniform(0, 2000),
                                     rng.uniform(0, 2400)), 0.0, 240.0, 5.0)
             for i in range(2)]
    orders = {}
    for w, worker in enumerate(workers):
        mix = list(worker.travel_tasks) + [pool[k] for k in
                                           rng.permutation(len(pool))[:3]]
        first = [mix[k] for k in rng.permutation(len(mix))]
        # A permutation of the same route is a different route.
        orders[w] = [first, first[::-1], list(worker.travel_tasks)]
    return workers, pool, orders


def _sweep(planner, call):
    kind, worker, base, tasks, min_position = call
    if kind == "one":
        result = planner.plan_with_insertion(worker, base, tasks[0],
                                             min_position=min_position)
        pos = getattr(result, "pos", None)
        return (np.array([-1 if pos is None else pos]),
                np.array([result.route_travel_time]))
    if kind == "block":
        tasks = TaskBlock.from_tasks(tasks)
    sweep = planner.plan_insertions_many(worker, base, tasks,
                                         min_position=min_position)
    return sweep.pos, sweep.rtt


def _calls(seed, count=60):
    """``(worker index, call)`` pairs."""
    rng = np.random.default_rng(seed)
    workers, pool, orders = _world(rng)
    calls = []
    for _ in range(count):
        w = int(rng.integers(len(workers)))
        base = orders[w][int(rng.integers(3))]
        size = int(rng.integers(0, 7))
        picks = rng.integers(0, len(pool), size=size)  # may repeat
        tasks = [pool[k] for k in picks.tolist()]
        kind = ("one" if tasks and rng.random() < 0.2
                else "block" if rng.random() < 0.5 else "list")
        min_position = int(rng.integers(0, len(base) + 2)) \
            if rng.random() < 0.4 else 0
        calls.append((w, (kind, workers[w], base, tasks, min_position)))
    return calls


def _instance(worker):
    """A minimal instance of one worker (the world's workers share an
    id, so each lives in an instance of its own)."""
    return SimpleNamespace(workers=(worker,), sensing_tasks=())


@pytest.mark.parametrize("renew", [None, 1, 3])
@pytest.mark.parametrize("seed", range(12))
def test_array_memo_matches_per_task_oracle(seed, renew):
    """With ``renew`` set, every ``renew``-th call first replaces its
    worker's instance by a fresh one, whose memos start empty: both memos
    must lose their entries with the instance they belong to."""
    memo = CachedPlanner(InsertionSolver(speed=SPEED))
    oracle = PerTaskCachedPlanner(InsertionSolver(speed=SPEED))
    instances = {}
    for k, (w, call) in enumerate(_calls(seed)):
        if w not in instances or (renew and k % renew == 0):
            instances[w] = _instance(call[1])
        pos, rtt = _sweep(memo.bind_instance(instances[w]), call)
        want_pos, want_rtt = _sweep(oracle.bind_instance(instances[w]), call)
        assert pos.dtype == want_pos.dtype
        assert pos.tobytes() == want_pos.tobytes()
        assert rtt.tobytes() == want_rtt.tobytes()
        assert [getattr(memo, c) for c in COUNTERS] \
            == [getattr(oracle, c) for c in COUNTERS]
        assert memo.stats().cache_size == sum(len(m) for m in memo._memos)
    assert memo.stats().cache_hits == oracle.hits
    del instances
    gc.collect()
    assert memo.stats().cache_size == 0


def test_empty_sweep_neither_calls_nor_stores(simple_worker):
    memo = CachedPlanner(InsertionSolver(speed=SPEED))
    bound = memo.bind_instance(_instance(simple_worker))
    for empty in ([], TaskBlock.from_tasks([])):
        sweep = bound.plan_insertions_many(
            simple_worker, list(simple_worker.travel_tasks), empty)
        assert len(sweep) == 0 and sweep.pos.dtype == np.intp
    assert (memo.hits, memo.misses, memo.backend_calls) == (0, 0, 0)
    assert not bound._sweeps


def test_one_entry_per_swept_route(simple_worker):
    """Sweeps on one route share one entry; the entry holds each task
    once, in ascending id order."""
    memo = CachedPlanner(InsertionSolver(speed=SPEED))
    bound = memo.bind_instance(_instance(simple_worker))
    tasks = [SensingTask(i, Location(100 * i, 0), 0.0, 240.0, 5.0)
             for i in (5, 2, 9, 2)]
    base = list(simple_worker.travel_tasks)
    bound.plan_insertions_many(simple_worker, base, tasks[:2])
    bound.plan_insertions_many(simple_worker, base, tasks)
    bound.plan_with_insertion(simple_worker, base, tasks[2])
    (ids, pos, rtt), = bound._sweeps.values()
    assert ids.tolist() == [2, 5, 9]
    assert len(pos) == len(rtt) == 3
    assert (memo.hits, memo.misses, memo.backend_calls) == (4, 3, 2)
