"""EpisodeStaticsCache: residency counters, LRU bounds, solve parity.

The cache keeps the per-instance static encoder pass (travel-grid conv,
task encoder, pointer keys) resident across episodes.  Two promises:
cached statics never change an answer (the cached tensors ARE the cold
pass's objects), and the LRU stays bounded with identity-keyed entries
pinning their instances.
"""

import numpy as np
import pytest

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import (
    EpisodeStaticsCache,
    SMORESolver,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
)
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


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


class TestCacheMechanics:
    def test_repeat_episode_hits_and_skips_reencoding(self, instances):
        policy = _policy(instances)
        policy.statics_cache = cache = EpisodeStaticsCache(max_instances=4)
        encoder = policy.net.worker_encoder
        encoded = []

        def counting_encoder(grids):
            encoded.append(encoder(grids))
            return encoded[-1]

        policy.net.worker_encoder = counting_encoder
        policy.begin_episode(instances[0])
        assert (cache.hits, cache.misses) == (0, 1)
        policy.begin_episode(instances[0])
        assert (cache.hits, cache.misses) == (1, 1)
        # The repeat episode never re-ran the encoder: its statics are
        # the very objects the cold pass produced.
        assert len(encoded) == 1
        assert cache.get(instances[0]).worker_emb is encoded[0]

    def test_lru_eviction_keeps_most_recent(self, instances):
        policy = _policy(instances)
        policy.statics_cache = cache = EpisodeStaticsCache(max_instances=2)
        for inst in instances:          # third insert evicts instances[0]
            policy.begin_episode(inst)
        assert cache.evictions == 1
        assert len(cache) == 2
        policy.begin_episode(instances[0])      # evicted: re-encoded
        assert cache.misses == 4
        policy.begin_episode(instances[2])      # still resident
        assert cache.hits == 1

    def test_clear_empties_and_forces_reencode(self, instances):
        policy = _policy(instances)
        policy.statics_cache = cache = EpisodeStaticsCache()
        policy.begin_episode(instances[0])
        cache.clear()
        assert len(cache) == 0
        policy.begin_episode(instances[0])
        assert cache.misses == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="max_instances"):
            EpisodeStaticsCache(max_instances=0)


class TestSolveParity:
    def test_cached_solve_bit_identical_to_cold(self, instances):
        """Greedy solves with a warm statics cache match cold solves on
        routes, incentives and objective — residency never changes the
        answer."""
        cold = SMORESolver(InsertionSolver(), _policy(instances))
        want = [cold.solve(inst) for inst in instances]

        policy = _policy(instances)
        policy.statics_cache = cache = EpisodeStaticsCache()
        warm = SMORESolver(InsertionSolver(), policy)
        for _ in range(2):              # second sweep runs fully cached
            for inst, reference in zip(instances, want):
                got = warm.solve(inst)
                assert _routes(got) == _routes(reference)
                assert got.incentives == reference.incentives
                assert got.objective == reference.objective
        assert cache.hits == len(instances)

    def test_batched_decode_uses_cache(self, instances):
        """begin_episodes (cross-instance decode) shares the same cache
        entries as per-instance episodes."""
        policy = _policy(instances)
        policy.statics_cache = cache = EpisodeStaticsCache()
        policy.begin_episode(instances[0])
        policy.begin_episodes(list(instances))
        assert cache.hits == 1          # instances[0] recalled
        assert cache.misses == len(instances)
