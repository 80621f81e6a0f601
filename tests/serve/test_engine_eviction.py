"""One LRU for the env and the episode statics of an instance.

The engine keeps an instance's env and its policy statics in one LRU
entry, so evicting the entry drops both: statics are resident iff the
instance's env is, through any churn — including a new instance that
reuses a dead one's ``id()``.
"""

import numpy as np
import pytest

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.serve import WarmEngine
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.tsptw import InsertionSolver

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    opts = InstanceOptions(task_density=0.03, budget=120.0)
    return generate_instances("delivery", 4, seed=3, options=opts)


def _engine(instances, max_warm_instances):
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    solver = SMORESolver(InsertionSolver(), TASNetPolicy(net))
    return WarmEngine(solver, max_warm_instances=max_warm_instances)


def _solve(engine, instance):
    batch = engine.open_batch()
    batch.admit(instance)
    return engine.execute(batch)


def _resident(engine):
    """Resident instances, by identity."""
    return {id(entry.env.instance) for entry in engine._envs.values()}


def _with_statics(engine):
    return {id(entry.env.instance) for entry in engine._envs.values()
            if entry.statics is not None}


class TestCoupledEviction:
    def test_env_eviction_drops_statics_entry(self, instances):
        engine = _engine(instances, max_warm_instances=1)
        _solve(engine, instances[0])
        assert _with_statics(engine) == {id(instances[0])}
        _solve(engine, instances[1])          # evicts instances[0]'s env
        assert engine.env_evictions == 1
        assert _with_statics(engine) == {id(instances[1])}
        # Back again: a fresh entry, so the statics are re-encoded.
        misses = engine.statics_cache.misses
        _solve(engine, instances[0])
        assert engine.statics_cache.misses == misses + 1

    def test_statics_resident_only_with_env(self, instances):
        """The invariant itself: statics are resident iff the env is,
        through arbitrary churn."""
        engine = _engine(instances, max_warm_instances=2)
        for instance in list(instances) + list(instances[::-1]):
            _solve(engine, instance)
            assert _with_statics(engine) == _resident(engine)
            assert len(engine._envs) <= 2

    def test_id_reuse_cannot_alias_statics(self, instances):
        """Churn with max_warm_instances=1 while recycling instance
        objects: a freshly generated instance may reuse a dead object's
        id, but the dead instance's statics left with its entry, so every
        new instance is encoded afresh."""
        engine = _engine(instances, max_warm_instances=1)
        opts = InstanceOptions(task_density=0.03, budget=120.0)
        for seed in range(6):
            # Fresh instance each round; the previous one loses its last
            # strong reference when `churn` rebinds, making its id
            # available for reuse by the very next allocation.
            churn = generate_instances("delivery", 1, seed=10 + seed,
                                       options=opts)[0]
            _solve(engine, churn)
            assert _with_statics(engine) == _resident(engine) \
                == {id(churn)}
        assert engine.env_evictions == 5
        assert engine.statics_cache.hits == 0
        assert engine.statics_cache.misses == 6
