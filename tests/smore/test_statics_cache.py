"""Resident policy statics: residency counters, the one LRU, solve parity.

A warm engine keeps each instance's static encoder pass (travel-grid
conv, task encoder, pointer keys) in the same LRU entry as its env.  Two
promises: cached statics never change an answer (the cached tensors ARE
the cold pass's objects), and statics are resident iff the instance's
env entry is.
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
    return generate_instances(
        "delivery", 3, seed=11,
        options=InstanceOptions(task_density=0.03))


def _policy(instances):
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    return TASNetPolicy(net)


def _engine(instances, max_warm_instances=64, policy=None):
    solver = SMORESolver(InsertionSolver(), policy or _policy(instances))
    return WarmEngine(solver, max_warm_instances=max_warm_instances)


def _solve(engine, *instances):
    batch = engine.open_batch()
    for instance in instances:
        batch.admit(instance)
    return engine.execute(batch)


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


def _statics(engine, instance):
    entry = engine._envs.get(id(instance))
    return None if entry is None else entry.statics


class TestCacheMechanics:
    def test_repeat_episode_hits_and_skips_reencoding(self, instances):
        policy = _policy(instances)
        engine = _engine(instances, policy=policy)
        cache = engine.statics_cache
        encoder = policy.net.worker_encoder
        encoded = []

        def counting_encoder(grids):
            encoded.append(encoder(grids))
            return encoded[-1]

        policy.net.worker_encoder = counting_encoder
        _solve(engine, instances[0])
        assert (cache.hits, cache.misses) == (0, 1)
        _solve(engine, instances[0])
        assert (cache.hits, cache.misses) == (1, 1)
        # The repeat episode never re-ran the encoder: its statics are
        # the very objects the cold pass produced.
        assert len(encoded) == 1
        assert _statics(engine, instances[0]).worker_emb is encoded[0]

    def test_lru_eviction_keeps_most_recent(self, instances):
        engine = _engine(instances, max_warm_instances=2)
        cache = engine.statics_cache
        for inst in instances:          # third insert evicts instances[0]
            _solve(engine, inst)
        assert engine.env_evictions == 1
        assert _statics(engine, instances[0]) is None
        assert len(engine._envs) == 2
        _solve(engine, instances[0])    # evicted: re-encoded
        assert cache.misses == 4
        _solve(engine, instances[2])    # still resident
        assert cache.hits == 1

    def test_bad_capacity(self, instances):
        with pytest.raises(ValueError, match="max_warm_instances"):
            _engine(instances, max_warm_instances=0)


class TestSolveParity:
    def test_cached_solve_bit_identical_to_cold(self, instances):
        """Greedy solves with warm statics match cold solves on routes,
        incentives and objective — residency never changes the answer."""
        cold = SMORESolver(InsertionSolver(), _policy(instances))
        want = [cold.solve(inst) for inst in instances]

        engine = _engine(instances)
        for _ in range(2):              # second sweep runs fully cached
            for inst, reference in zip(instances, want):
                (got,) = _solve(engine, inst)
                assert _routes(got) == _routes(reference)
                assert got.incentives == reference.incentives
                assert got.objective == reference.objective
        assert engine.statics_cache.hits == len(instances)

    def test_batched_decode_uses_cache(self, instances):
        """A cross-instance batch shares the same entries as
        per-instance episodes."""
        engine = _engine(instances)
        _solve(engine, instances[0])
        _solve(engine, *instances)
        assert engine.statics_cache.hits == 1          # instances[0]
        assert engine.statics_cache.misses == len(instances)
