"""Serving parity under eviction: 32 of 32 greedy answers bit-identical.

The serving bench's correctness threshold at tier-1 size: 32 greedy
requests round-robin over 8 instances, served by a memoising warm engine
whose LRU holds fewer than 8 instances, so entries are evicted and
rebuilt mid-run while each instance keeps its planner memo.  Every served
answer must equal a direct solve's digest.
"""

import numpy as np

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.obs.recorder import solution_digest
from repro.serve import ServeConfig, SolveRequest, WarmEngine, drive_requests
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.tsptw import CachedPlanner, InsertionSolver

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


def test_greedy_answers_match_direct_solves_under_eviction():
    instances = generate_instances(
        "delivery", 8, seed=40,
        options=InstanceOptions(task_density=0.03, budget=120.0))
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    direct = SMORESolver(InsertionSolver(), TASNetPolicy(net))
    want = [solution_digest(direct.solve(inst)) for inst in instances]

    engine = WarmEngine(SMORESolver(CachedPlanner(InsertionSolver()),
                                    TASNetPolicy(net)),
                        max_warm_instances=3)
    requests = [SolveRequest(instance=instances[i % 8]) for i in range(32)]
    result = drive_requests(
        engine, requests,
        config=ServeConfig(max_batch_size=4, max_wait_us=20_000.0))
    assert not result.errors
    got = [solution_digest(s) for s in result.outcomes]
    assert sum(g == want[i % 8] for i, g in enumerate(got)) == 32
    # Entries were evicted and rebuilt, while the memo kept hitting.
    assert engine.env_evictions > 0
    assert engine.env_misses > len(instances)
    assert engine.solver.planner.stats().cache_hits > 0
