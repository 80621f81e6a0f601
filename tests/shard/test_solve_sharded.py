"""solve_sharded: P=1 bit-identity, merge invariants, pool/serial parity."""

import os

import numpy as np
import pytest

from repro.core.incentive import IncentiveModel
from repro.datasets.instances import (
    InstanceOptions,
    generate_instance,
    generator_for,
)
from repro.datasets.synthetic import make_city_instance
from repro.parallel import PersistentPool, fork_available
from repro.shard import ShardReport, solve_sharded
from repro.smore import TASNet, TASNetConfig, TASNetPolicy
from repro.smore.solver import GreedySelectionRule, SMORESolver
from repro.tsptw.insertion import InsertionSolver

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


@pytest.fixture(scope="module")
def instance():
    options = InstanceOptions(num_workers=12)
    return generate_instance(generator_for("delivery"), options,
                             np.random.default_rng(3))


@pytest.fixture(scope="module")
def solver(instance):
    return SMORESolver(InsertionSolver(speed=instance.speed),
                       GreedySelectionRule())


@pytest.fixture(scope="module")
def unsharded(solver, instance):
    return solver.solve(instance)


def routes_signature(solution):
    return {wid: tuple(t.task_id for t in route.tasks)
            for wid, route in solution.routes.items()}


def incentive_model_for(instance):
    planner = InsertionSolver(speed=instance.speed)
    model = IncentiveModel(mu=instance.mu)
    for worker in instance.workers:
        model.set_base_rtt(worker,
                           planner.plan(worker, []).route_travel_time)
    return model


class TestSingleShardIdentity:
    def test_bit_identical_to_unsharded(self, solver, instance, unsharded):
        sharded = solve_sharded(solver, instance, 1)
        assert routes_signature(sharded) == routes_signature(unsharded)
        assert sharded.incentives == unsharded.incentives
        assert sharded.objective == unsharded.objective

    def test_report_attached(self, solver, instance):
        sharded = solve_sharded(solver, instance, 1)
        report = sharded.shard_report
        assert isinstance(report, ShardReport)
        assert report.num_shards == 1
        assert report.budget_shares == (instance.budget,)


class TestMergedInvariants:
    @pytest.mark.parametrize("method", ("grid", "kd"))
    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_merged_solution_validates(self, solver, instance, method,
                                       num_shards):
        solution = solve_sharded(solver, instance, num_shards,
                                 method=method)
        assert solution.validate(incentive_model_for(instance)) == []
        assert solution.total_incentive <= instance.budget + 1e-6

    def test_budget_shares_sum_to_budget(self, solver, instance):
        solution = solve_sharded(solver, instance, 4)
        report = solution.shard_report
        assert sum(report.budget_shares) == pytest.approx(instance.budget)
        assert report.num_shards == 4
        assert report.phi_after_repair >= report.phi_before_repair - 1e-12
        assert report.phi_after_repair == pytest.approx(solution.objective)

    def test_coverage_close_to_unsharded(self, solver, instance, unsharded):
        # Small instance, so allow more slack than the city-scale 2% gate
        # (benchmarks/test_shard_regression.py pins that one).
        solution = solve_sharded(solver, instance, 2)
        gap = (unsharded.objective - solution.objective) \
            / unsharded.objective
        assert gap <= 0.05

    def test_repair_can_be_disabled(self, solver, instance):
        repaired = solve_sharded(solver, instance, 4)
        raw = solve_sharded(solver, instance, 4, repair=False)
        assert raw.shard_report.repair_added == 0
        assert repaired.objective >= raw.objective - 1e-12

    def test_via_solver_entry_point(self, solver, instance):
        solution = solve_sharded(solver, instance, 3, method="kd")
        assert solution.shard_report.num_shards == 3
        assert solution.validate(incentive_model_for(instance)) == []


class TestDeterminism:
    def test_greedy_is_deterministic(self, solver, instance):
        a = solve_sharded(solver, instance, 3)
        b = solve_sharded(solver, instance, 3)
        assert routes_signature(a) == routes_signature(b)
        assert a.incentives == b.incentives

    def test_seeded_sampling_is_deterministic(self, solver, instance):
        a = solve_sharded(solver, instance, 3, greedy=False,
                          rng=np.random.default_rng(7), num_samples=2)
        b = solve_sharded(solver, instance, 3, greedy=False,
                          rng=np.random.default_rng(7), num_samples=2)
        assert routes_signature(a) == routes_signature(b)
        assert a.objective == b.objective


@needs_fork
class TestPoolPath:
    def test_pool_matches_serial(self, solver, instance):
        serial = solve_sharded(solver, instance, 4)
        with PersistentPool(workers=2) as pool:
            pooled = solve_sharded(solver, instance, 4, pool=pool)
        assert pooled.shard_report.used_pool
        assert routes_signature(pooled) == routes_signature(serial)
        assert pooled.incentives == serial.incentives
        assert pooled.objective == serial.objective

    def test_pool_reused_across_solves(self, solver, instance):
        with PersistentPool(workers=2) as pool:
            first = solve_sharded(solver, instance, 4, pool=pool)
            assert pool.started
            pids = set(pool.pids())
            second = solve_sharded(solver, instance, 4, method="kd",
                                   pool=pool)
            assert set(pool.pids()) == pids
        assert first.shard_report.used_pool
        assert second.shard_report.used_pool

    def test_seeded_pool_matches_serial(self, solver, instance):
        serial = solve_sharded(solver, instance, 3, greedy=False,
                               rng=np.random.default_rng(5), num_samples=2)
        with PersistentPool(workers=2) as pool:
            pooled = solve_sharded(solver, instance, 3, greedy=False,
                                   rng=np.random.default_rng(5),
                                   num_samples=2, pool=pool)
        assert routes_signature(pooled) == routes_signature(serial)
        assert pooled.objective == serial.objective


def tasnet_solver(instance):
    grid = instance.coverage.grid
    net = TASNet(TASNetConfig(d_model=16, num_heads=2, num_layers=1,
                              conv_channels=4),
                 grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    return SMORESolver(InsertionSolver(speed=instance.speed),
                       TASNetPolicy(net))


def assert_same_solution(a, b):
    assert routes_signature(a) == routes_signature(b)
    assert a.incentives == b.incentives
    assert a.objective == b.objective


@needs_fork
class TestTASNetPoolPath:
    """The paper's policy on the pool: weights reach the workers through
    the published skeleton plus shared parameter views."""

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_greedy_pool_matches_serial(self, instance, num_shards):
        solver = tasnet_solver(instance)
        serial = solve_sharded(solver, instance, num_shards)
        with PersistentPool(workers=2) as pool:
            pooled = solve_sharded(solver, instance, num_shards, pool=pool)
        assert pooled.shard_report.used_pool
        assert_same_solution(pooled, serial)

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_seeded_pool_matches_serial(self, instance, num_shards):
        solver = tasnet_solver(instance)
        kwargs = dict(greedy=False, num_samples=3)
        serial = solve_sharded(solver, instance, num_shards,
                               rng=np.random.default_rng(9), **kwargs)
        with PersistentPool(workers=2) as pool:
            pooled = solve_sharded(solver, instance, num_shards, pool=pool,
                                   rng=np.random.default_rng(9), **kwargs)
        assert pooled.shard_report.used_pool
        assert_same_solution(pooled, serial)

    def test_policy_changes_reach_live_pool(self, instance):
        """In-place weight updates, rebound ``.data`` arrays and changed
        hyperparameters between pooled solves all reach the workers."""
        solver = tasnet_solver(instance)
        net = solver.policy.net
        params = dict(net.named_parameters())
        task_query = params["task_selection.pointer.w_q.weight"]
        worker_query = params["worker_selection.pointer.w_q.weight"]

        def perturb_in_place():
            task_query.data += np.random.default_rng(1).normal(
                0.0, 1.0, task_query.data.shape)

        def rebind_data():
            worker_query.data = -worker_query.data

        def change_lam():
            net.task_selection.lam = 50.0

        with PersistentPool(workers=2) as pool:
            previous = solve_sharded(solver, instance, 4, pool=pool)
            assert_same_solution(previous, solve_sharded(solver, instance, 4))
            for change in (perturb_in_place, rebind_data, change_lam):
                change()
                pooled = solve_sharded(solver, instance, 4, pool=pool)
                assert pooled.shard_report.used_pool
                assert_same_solution(pooled,
                                     solve_sharded(solver, instance, 4))
                # The change must matter, or the check proves nothing.
                assert routes_signature(pooled) \
                    != routes_signature(previous), change.__name__
                previous = pooled

    def test_unpicklable_policy_solves_serially(self, instance):
        solver = tasnet_solver(instance)
        serial = solve_sharded(solver, instance, 4)
        solver.policy.unpicklable = lambda: None
        with PersistentPool(workers=2) as pool:
            fallback = solve_sharded(solver, instance, 4, pool=pool)
            assert not pool.started
        assert not fallback.shard_report.used_pool
        assert_same_solution(fallback, serial)


def psm_mappings(pid):
    with open(f"/proc/{pid}/maps") as maps:
        return sum("psm_" in line for line in maps)


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
class TestPoolSharedMemory:
    def test_blocks_bounded_over_many_solves(self):
        """Distinct cities reuse the P shard slots: neither the parent's
        blocks nor a worker's mappings grow with the number of solves."""
        cities = [make_city_instance(num_tasks=300, num_workers=30,
                                     seed=s, budget=100.0)
                  for s in range(12)]
        solver = tasnet_solver(cities[0])
        with PersistentPool(workers=2) as pool:
            for city in cities:
                solution = solve_sharded(solver, city, 4, pool=pool)
                assert solution.shard_report.used_pool
            # A changed hyperparameter re-publishes the policy block.
            solver.policy.net.task_selection.lam = 2.0
            solve_sharded(solver, cities[0], 4, pool=pool)
            assert len(pool._shared_blocks) <= 4 + 1
            for pid in pool.pids():
                assert psm_mappings(pid) <= 4 + 1


class TestArguments:
    def test_invalid_shard_count(self, solver, instance):
        with pytest.raises(ValueError):
            solve_sharded(solver, instance, 0)

    def test_report_serialises(self, solver, instance):
        report = solve_sharded(solver, instance, 2).shard_report
        payload = report.to_dict()
        assert payload["num_shards"] == 2
        assert len(payload["shard_tasks"]) == 2
