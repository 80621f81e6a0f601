"""Anchored insertion (``min_position``): scalar/kernel parity and caching.

Dynamic re-planning restricts insertions to positions at or after a
worker's committed mid-route position.  These tests pin the anchored
scan's semantics: positions below the anchor are never chosen, the
vectorized sweep matches the scalar scan bit-for-bit under every anchor,
an anchor past the end of the route yields infeasibility, and the
memoising planner keys anchored plans separately per anchor.
"""

import numpy as np
import pytest

from repro.datasets import InstanceOptions, generate_instances
from repro.tsptw import InsertionSolver
from repro.tsptw.cache import CachedPlanner
from repro.tsptw.insertion import cheapest_insertion_position

from .oracle import ObjectInsertionSolver


def _setup(seed=0, density=0.04):
    instance = generate_instances(
        "delivery", 1, seed=seed,
        options=InstanceOptions(task_density=density, num_workers=3))[0]
    worker = instance.workers[0]
    solver = InsertionSolver(speed=instance.speed)
    base = solver.base_route(worker)
    return instance, worker, solver, base


def test_scalar_scan_respects_anchor():
    instance, worker, solver, base = _setup()
    tasks = list(base.route.tasks)
    candidates = [s for s in instance.sensing_tasks
                  if solver.plan_with_insertion(worker, tasks, s).feasible]
    assert candidates, "setup needs at least one feasible insertion"
    for task in candidates[:10]:
        for anchor in range(len(tasks) + 2):
            found = cheapest_insertion_position(
                worker, tasks, task, instance.speed, min_position=anchor)
            if found is not None:
                assert found[0] >= anchor
        # An anchor past every position leaves nothing to scan.
        assert cheapest_insertion_position(
            worker, tasks, task, instance.speed,
            min_position=len(tasks) + 1) is None


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_scalar_under_every_anchor(seed):
    instance, worker, _, _ = _setup(seed=seed)
    on = InsertionSolver(speed=instance.speed)
    off = ObjectInsertionSolver(speed=instance.speed)
    base_tasks = list(on.base_route(worker).route.tasks)
    tasks = list(instance.sensing_tasks)
    for anchor in range(len(base_tasks) + 2):
        swept = on.plan_insertions_many(worker, base_tasks, tasks,
                                        min_position=anchor)
        scanned = off.plan_insertions_many(worker, base_tasks, tasks,
                                           min_position=anchor)
        for task, a, b in zip(tasks, swept, scanned):
            assert a.feasible == b.feasible, (anchor, task.task_id)
            if a.feasible:
                assert a.route_travel_time == b.route_travel_time, \
                    (anchor, task.task_id)
                assert getattr(a, "pos", None) == getattr(b, "pos", None), \
                    (anchor, task.task_id)
                assert a.pos >= anchor


def test_anchor_zero_is_the_unanchored_scan():
    instance, worker, solver, base = _setup(seed=3)
    base_tasks = list(base.route.tasks)
    tasks = list(instance.sensing_tasks)
    free = solver.plan_insertions_many(worker, base_tasks, tasks)
    anchored = solver.plan_insertions_many(worker, base_tasks, tasks,
                                           min_position=0)
    for a, b in zip(free, anchored):
        assert a.feasible == b.feasible
        if a.feasible:
            assert a.route_travel_time == b.route_travel_time


def _assert_same_answer(mine, theirs):
    """The memo stores (pos, rtt): a hit rebuilds the same answer."""
    assert mine.feasible == theirs.feasible
    assert mine.pos == theirs.pos
    assert mine.route_travel_time == theirs.route_travel_time
    assert (mine.route is None) == (theirs.route is None)
    if theirs.route is not None:
        assert mine.route.tasks == theirs.route.tasks


def test_cached_planner_keys_anchors_separately():
    instance, worker, solver, base = _setup(seed=5)
    cached = CachedPlanner(InsertionSolver(speed=instance.speed))
    memo = cached.bind_instance(instance)
    base_tasks = list(base.route.tasks)
    task = next(s for s in instance.sensing_tasks
                if solver.plan_with_insertion(worker, base_tasks,
                                              s).feasible)
    free = memo.plan_with_insertion(worker, base_tasks, task)
    hits_before = cached.hits
    again = memo.plan_with_insertion(worker, base_tasks, task)
    assert cached.hits == hits_before + 1
    _assert_same_answer(again, free)
    # A different anchor is a different plan: must miss, may differ.
    anchored = memo.plan_with_insertion(worker, base_tasks, task,
                                        min_position=1)
    assert cached.hits == hits_before + 1
    if anchored.feasible and getattr(anchored, "pos", None) is not None:
        assert anchored.pos >= 1
    # Batched anchored sweeps share the same keyed table.
    misses_before = cached.misses
    results = memo.plan_insertions_many(worker, base_tasks, [task],
                                        min_position=1)
    assert cached.misses == misses_before
    _assert_same_answer(results[0], anchored)


def test_anchored_rescan_equals_restricted_argmin():
    """The anchored scan is exactly the argmin over the position subset:
    whenever the unanchored winner sits at/after the anchor, the anchored
    scan returns the identical position and travel time."""
    instance, worker, _, _ = _setup(seed=7)
    solver = InsertionSolver(speed=instance.speed)
    base_tasks = list(solver.base_route(worker).route.tasks)
    checked = 0
    for task in instance.sensing_tasks:
        found = cheapest_insertion_position(
            worker, base_tasks, task, instance.speed)
        if found is None:
            continue
        pos, rtt = found
        for anchor in range(pos + 1):
            pos2, rtt2 = cheapest_insertion_position(
                worker, base_tasks, task, instance.speed,
                min_position=anchor)
            assert pos2 == pos
            assert rtt2 == rtt
            checked += 1
    assert checked > 0
