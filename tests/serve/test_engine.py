"""WarmEngine: env LRU, candidate-snapshot reuse."""

import numpy as np
import pytest

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.serve import WarmEngine
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.tsptw import CachedPlanner, InsertionSolver

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    opts = InstanceOptions(task_density=0.03, budget=120.0)
    return generate_instances("delivery", 4, seed=3, options=opts)


def _solver(instances, planner=None):
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    # Note: `planner or ...` would drop an *empty* CachedPlanner (len 0).
    if planner is None:
        planner = InsertionSolver()
    return SMORESolver(planner, TASNetPolicy(net))


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


class TestEnvResidency:
    def test_env_is_reused_per_instance(self, instances):
        engine = WarmEngine(_solver(instances))
        env_a = engine.env_for(instances[0])
        env_b = engine.env_for(instances[1])
        assert env_a is not env_b
        assert engine.env_for(instances[0]) is env_a
        assert engine.stats()["env_hits"] == 1
        assert engine.stats()["env_misses"] == 2

    def test_lru_evicts_least_recently_used(self, instances):
        engine = WarmEngine(_solver(instances), max_warm_instances=2)
        first = engine.env_for(instances[0])
        engine.env_for(instances[1])
        engine.env_for(instances[0])          # refresh: [1] is now LRU
        engine.env_for(instances[2])          # evicts instances[1]
        assert engine.warm_instances == 2
        assert engine.env_evictions == 1
        assert engine.env_for(instances[0]) is first      # survived
        assert engine.env_for(instances[1]) is not None   # rebuilt (miss)
        assert engine.env_misses == 4

    def test_bad_capacity_raises(self, instances):
        with pytest.raises(ValueError, match="max_warm_instances"):
            WarmEngine(_solver(instances), max_warm_instances=0)

    def test_warm_env_skips_init_sweep_on_repeat(self, instances):
        """Second batch on the same instance restores the candidate
        snapshot instead of re-running the O(W x S) init sweep."""
        engine = WarmEngine(_solver(instances))
        batch = engine.open_batch()
        batch.admit(instances[0])
        (first,) = engine.execute(batch)
        assert first.perf.init_planner_calls > 0

        batch = engine.open_batch()
        batch.admit(instances[0])
        (second,) = engine.execute(batch)
        assert second.perf.init_planner_calls == 0
        assert _routes(first) == _routes(second)

    def test_memoising_planner_stays_warm_across_instances(self, instances):
        """A CachedPlanner on the engine keeps its memo across batches:
        re-solving an evicted instance still hits the planner cache."""
        planner = CachedPlanner(InsertionSolver())
        engine = WarmEngine(_solver(instances, planner), max_warm_instances=1)
        batch = engine.open_batch()
        batch.admit(instances[0])
        engine.execute(batch)
        batch = engine.open_batch()
        batch.admit(instances[1])             # evicts instances[0]'s env
        engine.execute(batch)
        hits_before = planner.stats().cache_hits
        batch = engine.open_batch()
        batch.admit(instances[0])             # fresh env, warm planner
        engine.execute(batch)
        assert planner.stats().cache_hits > hits_before

