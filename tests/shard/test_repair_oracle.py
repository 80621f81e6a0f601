"""The shard-side repair sweeps against the all-in-parent oracle.

Each shard solve sweeps its own workers against the boundary tasks, and
the parent sweeps only workers of shards without tasks.  Applied to the
unrepaired merge, ``oracle.oracle_repair`` (every sweep in the parent)
must give the same routes, incentives, objective and candidate count.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (CoverageModel, Grid, Location, Region, SensingTask,
                        TravelTask, Worker, WorkingRoute)
from repro.core.incentive import IncentiveModel
from repro.core.instance import USMDWInstance
from repro.datasets.synthetic import make_city_instance
from repro.parallel import PersistentPool, fork_available
from repro.shard import partition_instance, solve_sharded
from repro.shard.solve import _EPS, _boundary_repair, _pick
from repro.smore.solver import GreedySelectionRule, SMORESolver
from repro.tsptw.insertion import InsertionSolver
from repro.tsptw.kernels import TaskBlock

from .oracle import oracle_repair
from .test_solve_sharded import incentive_model_for, routes_signature


def greedy_solver(instance):
    return SMORESolver(InsertionSolver(speed=instance.speed),
                       GreedySelectionRule())


@pytest.fixture(scope="module")
def city():
    return make_city_instance(num_tasks=300, num_workers=30, seed=5,
                              budget=150.0)


@pytest.fixture(scope="module")
def half_city():
    """Tasks only west of the median: the eastern grid shards hold
    workers but no tasks, so their workers are swept in the parent."""
    city = make_city_instance(num_tasks=300, num_workers=30, seed=3,
                              budget=150.0)
    xs = sorted(t.location.x for t in city.sensing_tasks)
    mid = xs[len(xs) // 2]
    return USMDWInstance(
        workers=city.workers,
        sensing_tasks=tuple(t for t in city.sensing_tasks
                            if t.location.x < mid),
        budget=city.budget, mu=city.mu, coverage=city.coverage,
        speed=city.speed, name="half-city")


def assert_matches_oracle(instance, num_shards, method, pool=None):
    solver = greedy_solver(instance)
    raw = solve_sharded(solver, instance, num_shards, method=method,
                        repair=False)
    routes, incentives = dict(raw.routes), dict(raw.incentives)
    plan = partition_instance(instance, num_shards, method=method)
    planner = solver.planner
    planner_cfg = dict(speed=planner.speed,
                       improvement_rounds=planner.improvement_rounds,
                       use_two_opt=planner.use_two_opt)
    candidates, added = oracle_repair(instance, planner_cfg, plan, routes,
                                      incentives)

    repaired = solve_sharded(solver, instance, num_shards, method=method,
                             pool=pool)
    report = repaired.shard_report
    assert routes_signature(repaired) == {
        wid: tuple(t.task_id for t in route.tasks)
        for wid, route in routes.items()}
    assert repaired.incentives == incentives
    assert repaired.objective == instance.coverage.phi(
        [t for route in routes.values() for t in route.sensing_tasks])
    assert (report.repair_candidates, report.repair_added) \
        == (candidates, added)
    assert repaired.validate(incentive_model_for(instance)) == []
    assert plan.validate() == []
    return repaired, raw, plan


class TestRepairOracle:
    @pytest.mark.parametrize("method", ("grid", "kd"))
    @pytest.mark.parametrize("num_shards", (2, 3, 4))
    def test_matches_oracle(self, city, method, num_shards):
        assert_matches_oracle(city, num_shards, method)

    def test_repair_adds_on_this_city(self, city):
        # The oracle comparison must cover actual insertions.
        added = [solve_sharded(greedy_solver(city), city, p, method=m)
                 .shard_report.repair_added
                 for m in ("grid", "kd") for p in (3, 4)]
        assert min(added) >= 1

    def test_shards_without_tasks_sweep_in_parent(self, half_city):
        repaired, raw, plan = assert_matches_oracle(half_city, 4, "grid")
        idle = {wid for s in plan.shards if s.num_workers and not s.num_tasks
                for wid in s.worker_ids}
        assert idle
        changed = {wid for wid, route in repaired.routes.items()
                   if wid not in raw.routes
                   or route.tasks != raw.routes[wid].tasks}
        assert changed & idle, "no repair pick went to a task-less shard"

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pooled_sweeps_match_oracle(self, city, half_city):
        with PersistentPool(workers=2) as pool:
            for instance in (city, half_city):
                repaired, _, _ = assert_matches_oracle(instance, 4, "grid",
                                                       pool=pool)
                assert repaired.shard_report.used_pool


def tied_instance():
    """Three workers with identical geometry (ids 3, 5, 7) and boundary
    tasks in two groups of identical location and window: every worker
    sees the same rtt, incentive and gain for every task of a group, so
    the first picks tie on the ratio key and on delta across workers and
    tasks.  Worker 9 already serves one task, so gains are positive."""
    region = Region(2000, 2400)
    coverage = CoverageModel(Grid(region, 10, 12), time_span=240.0,
                             slot_minutes=30.0)

    def twin(wid):
        return Worker(wid, Location(100.0, 100.0), Location(1900.0, 100.0),
                      0.0, 240.0,
                      (TravelTask(1000 + wid, Location(1000.0, 100.0), 5.0),))

    workers = [twin(3), twin(5), twin(7),
               Worker(9, Location(1500.0, 2000.0), Location(1800.0, 2300.0),
                      0.0, 240.0, ())]
    seed = SensingTask(1, Location(1650.0, 2150.0), 0.0, 240.0, 5.0)
    near = [SensingTask(tid, Location(700.0, 500.0), 30.0, 150.0, 5.0)
            for tid in (24, 20, 22)]
    far = [SensingTask(tid, Location(300.0, 900.0), 60.0, 200.0, 5.0)
           for tid in (31, 30)]
    instance = USMDWInstance(workers=workers,
                             sensing_tasks=[seed, *near, *far],
                             budget=200.0, mu=1.0, coverage=coverage,
                             name="tied")
    planner = InsertionSolver(speed=instance.speed)
    route = planner.plan(workers[3], [seed]).route
    model = IncentiveModel(mu=instance.mu)
    model.set_base_rtt(workers[3],
                       planner.plan(workers[3], []).route_travel_time)
    incentive = model.incentive(workers[3], route.route_travel_time)
    return instance, {9: route}, {9: incentive}, (20, 22, 24, 30, 31)


def test_tied_picks_match_the_scalar_oracle():
    """The array arg-best breaks ties like the oracle's ``(key, delta,
    task id, worker id)`` tuple order: lowest task id, then lowest worker
    id."""
    instance, routes, incentives, boundary = tied_instance()
    cfg = dict(speed=instance.speed, improvement_rounds=2,
               use_two_opt=False)
    plan = SimpleNamespace(boundary_task_ids=lambda: boundary)
    want_routes, want_inc = dict(routes), dict(incentives)
    candidates, added = oracle_repair(instance, cfg, plan, want_routes,
                                      want_inc)
    got_routes, got_inc = dict(routes), dict(incentives)
    block = TaskBlock.from_tasks(instance.sensing_task(t) for t in boundary)
    stats = _boundary_repair(instance, cfg, block, got_routes, got_inc, {})
    assert added >= 3
    assert (stats["candidates"], stats["added"]) == (candidates, added)
    assert {w: tuple(t.task_id for t in r.tasks)
            for w, r in got_routes.items()} == \
        {w: tuple(t.task_id for t in r.tasks)
         for w, r in want_routes.items()}
    assert got_inc == want_inc
    # The first pick is the tied group's lowest task id, to the lowest
    # worker id.
    assert 20 in {t.task_id for t in got_routes[3].sensing_tasks}


@pytest.mark.parametrize("trial", range(200))
def test_pick_matches_tuple_order_under_ties(trial):
    """Brute force over the oracle's key tuples on planes with few
    distinct gains and deltas (ratio keys tie across workers and tasks,
    and deltas at or below eps tie on the key while differing)."""
    rng = np.random.default_rng(trial)
    rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    ok = rng.random((rows, cols)) < 0.6
    ok[int(rng.integers(rows)), int(rng.integers(cols))] = True
    gains = rng.choice([0.5, 1.0, 2.0], size=cols)
    delta = rng.choice([0.0, _EPS / 2, _EPS, 1.0, 2.0, 4.0],
                       size=(rows, cols))
    want = min(((-gains[c] / max(delta[r, c], _EPS), delta[r, c], c, r)
                for r in range(rows) for c in range(cols) if ok[r, c]))
    assert _pick(ok, gains, delta) == (want[3], want[2])
