"""The shard-side repair sweeps against the all-in-parent oracle.

Each shard solve sweeps its own workers against the boundary tasks, and
the parent sweeps only workers of shards without tasks.  Applied to the
unrepaired merge, ``oracle.oracle_repair`` (every sweep in the parent)
must give the same routes, incentives, objective and candidate count.
"""

import pytest

from repro.core.instance import USMDWInstance
from repro.datasets.synthetic import make_city_instance
from repro.parallel import PersistentPool, fork_available
from repro.shard import partition_instance, solve_sharded
from repro.smore.solver import GreedySelectionRule, SMORESolver
from repro.tsptw.insertion import InsertionSolver

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
