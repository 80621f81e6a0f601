"""Randomized parity: vectorized route kernels vs the object path.

Each case draws hundreds of random configurations and asserts *exact*
(bit-level) float equality — the kernels replay the object path's
IEEE-754 operation sequence rather than approximating it, so `==` on the
resulting floats is the contract, not `pytest.approx`.

Half the configurations bind a :class:`PackedInstance` (matrix-backed
distances), half run unbound (per-pair ``math.hypot`` fallback), so both
kernel distance providers are exercised.
"""

from types import SimpleNamespace

import numpy as np

from repro.core import PackedInstance, Region
from repro.tsptw import InsertionSolver, cheapest_insertion_position
from repro.tsptw.kernels import (
    nearest_neighbor_order_packed,
    pack_route,
    sweep_insertions,
)
from repro.tsptw.nearest import nearest_neighbor_order

from .conftest import SPEED, random_sensing, random_worker
from .oracle import ObjectInsertionSolver

N_CONFIGS = 200


def _scenario(seed, max_travel=4, max_sensing=8):
    """Random worker + sensing pool; even seeds get a packed instance."""
    rng = np.random.default_rng(seed)
    region = Region(2000, 2400)
    tight = rng.random() < 0.3
    budget = float(rng.uniform(50, 90) if tight else rng.uniform(150, 320))
    worker = random_worker(rng, region,
                           num_travel=int(rng.integers(0, max_travel + 1)),
                           time_budget=budget)
    sensing = random_sensing(rng, region,
                             count=int(rng.integers(1, max_sensing + 1)))
    packed = PackedInstance([worker], sensing) if seed % 2 == 0 else None
    return rng, worker, sensing, packed


def _route_order(rng, worker, sensing):
    """Random-length shuffled mix of travel and sensing tasks."""
    pool = list(worker.travel_tasks) + list(sensing)
    rng.shuffle(pool)
    return pool[:int(rng.integers(0, len(pool) + 1))]


def test_sweep_insertions_matches_per_task_scans():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, packed = _scenario(seed, max_sensing=12)
        split = int(rng.integers(1, len(sensing) + 1))
        new_tasks, rest = sensing[:split], sensing[split:]
        base = _route_order(rng, worker, rest)
        got = sweep_insertions(pack_route(worker, base, SPEED, packed),
                               new_tasks)
        ref = [cheapest_insertion_position(worker, base, task, SPEED)
               for task in new_tasks]
        assert len(got) == len(ref)
        for mine, theirs in zip(got, ref):
            if theirs is None:
                assert mine is None
            else:
                assert mine is not None
                assert mine[0] == theirs[0]
                assert mine[1] == theirs[1]


def _bound_pair(worker, sensing, bind):
    """(kernel solver, object solver), optionally bound to one instance."""
    on = InsertionSolver(speed=SPEED)
    off = ObjectInsertionSolver(speed=SPEED)
    if bind:
        instance = SimpleNamespace(workers=(worker,),
                                   sensing_tasks=tuple(sensing))
        on.bind_instance(instance)
        off.bind_instance(instance)
    return on, off


def _assert_results_match(mine, theirs):
    assert mine.feasible == theirs.feasible
    if not theirs.feasible:
        # RouteResult.infeasible() carries no route; a kernel miss must too.
        assert (mine.route is None) == (theirs.route is None)
        return
    assert mine.route.tasks == theirs.route.tasks
    if theirs.feasible:
        assert mine.route_travel_time == theirs.route_travel_time
        # Forces _KernelResult's lazy timing — must equal the eager one.
        assert mine.timing.arrival_at_destination == \
            theirs.timing.arrival_at_destination
        assert mine.timing.feasible == theirs.timing.feasible


def test_insertion_solver_kernel_parity():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed)
        on, off = _bound_pair(worker, sensing, bind=seed % 2 == 0)

        plan_on = on.plan(worker, sensing)
        plan_off = off.plan(worker, sensing)
        _assert_results_match(plan_on, plan_off)

        # Infeasible plans carry no route; fall back to the raw travel
        # order so the sweep is still exercised on hopeless bases.
        base = (list(plan_off.route.tasks) if plan_off.route is not None
                else list(worker.travel_tasks))
        many_on = on.plan_insertions_many(worker, base, sensing)
        many_off = off.plan_insertions_many(worker, base, sensing)
        assert len(many_on) == len(many_off) == len(sensing)
        for task, mine, theirs in zip(sensing, many_on, many_off):
            _assert_results_match(mine, theirs)
            single = off.plan_with_insertion(worker, base, task)
            _assert_results_match(mine, single)


def test_nearest_neighbor_order_packed_parity():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed)
        packed = PackedInstance([worker], sensing)
        tasks = list(worker.travel_tasks) + list(sensing)
        rng.shuffle(tasks)
        got = nearest_neighbor_order_packed(worker, tasks, packed)
        assert got is not None
        assert got == nearest_neighbor_order(worker, tasks)


def test_nearest_neighbor_order_packed_unknown_location_returns_none(rng,
                                                                     region):
    worker = random_worker(rng, region)
    known = random_sensing(rng, region, 3)
    stranger = random_sensing(rng, region, 1, start_id=900)
    packed = PackedInstance([worker], known)
    assert nearest_neighbor_order_packed(
        worker, known + stranger, packed) is None
