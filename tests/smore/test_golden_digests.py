"""Golden answers: solution digests pinned on fixed small instances.

Each constant is the :func:`~repro.obs.recorder.solution_digest` of one
solve on a fixed instance and seed, captured before the candidate table
moved from per-worker dict rows to dense worker x task planes.  A
refactor of the selection state must leave every one unchanged: the
digest hashes routes, incentives and the objective down to the last ulp.

Also here: a brute-force check of the greedy rules' lexicographic
arg-best over (score, incentive delta, task id) on tables built to tie.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets import InstanceOptions, generate_instances, poisson_arrivals
from repro.obs.recorder import solution_digest
from repro.shard import solve_sharded
from repro.smore import (
    FlatSelectionNet,
    FlatSelectionPolicy,
    GreedySelectionRule,
    RatioSelectionRule,
    SMORESolver,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
)
from repro.tsptw import GPNSolver, InsertionSolver, make_default_gpn
from repro.tsptw.cache import CachedPlanner

from .oracle import RebuildDynamicEnv, run_dynamic_episode

GOLDEN = {
    "greedy-rule":
        "37a317d31c3d3e4c1f1fafe67285bfc8d7a1bda47a9aaca925b87a08e6c8e653",
    "ratio-rule":
        "5e38664fb57e12c0e5fb2de3f8909d941466f03478b5b0ac41d12b92f4e89c8c",
    "tasnet-greedy":
        "f35aeb1b47987027e56b4c07b981d992a6a14fecec4695317b8414369d19c9f3",
    "tasnet-sampled":
        "9dadbd60a862d626dd76867cbca944b7e8e6e3f7e947317a6228eb531942bbc7",
    "gpn-ratio":
        "08c8842c648cbaf5b727771087b4a7597a7d4247b9f25662184f0374368deebe",
    "dynamic-late-worker":
        "5eb1e2108449ee389fee00ece909a31984fc07204431f6b571aba2d154383c16",
    "dynamic-rebuild":
        "5eb1e2108449ee389fee00ece909a31984fc07204431f6b571aba2d154383c16",
    "flat-greedy":
        "4fd0bf43d312d987db2c8b65428da4ac1ab419d4ff2da4e1bf4e895cd083dd08",
    "sharded-p2":
        "6434f0d997c4c5c03698c29685a94d5a330e82427605abcd775f989d686b2dd6",
}


def _instance(seed=5, density=0.05, workers=4):
    return generate_instances(
        "delivery", 1, seed=seed,
        options=InstanceOptions(task_density=density,
                                num_workers=workers))[0]


def _tasnet_policy(instance):
    config = TASNetConfig(d_model=16, num_heads=2, num_layers=1,
                          conv_channels=2)
    grid = instance.coverage.grid
    return TASNetPolicy(TASNet(config, grid.nx, grid.ny,
                               rng=np.random.default_rng(0)))


def _digest(case: str) -> str:
    instance = _instance()
    planner = InsertionSolver(speed=instance.speed)
    if case == "greedy-rule":
        solution = SMORESolver(planner, GreedySelectionRule()).solve(instance)
    elif case == "ratio-rule":
        solution = SMORESolver(planner, RatioSelectionRule()).solve(instance)
    elif case == "tasnet-greedy":
        solution = SMORESolver(planner, _tasnet_policy(instance)).solve(
            instance)
    elif case == "tasnet-sampled":
        solution = SMORESolver(planner, _tasnet_policy(instance)).solve(
            instance, greedy=False, rng=np.random.default_rng(11))
    elif case == "gpn-ratio":
        small = _instance(seed=2, density=0.02, workers=2)
        region = small.coverage.grid.region
        gpn = GPNSolver(make_default_gpn(region, small.coverage.time_span,
                                         d_model=16, seed=0), repair=True)
        solution = SMORESolver(gpn, RatioSelectionRule()).solve(small)
    elif case == "flat-greedy":
        grid = instance.coverage.grid
        config = TASNetConfig(d_model=16, num_heads=2, num_layers=1,
                              conv_channels=2)
        policy = FlatSelectionPolicy(FlatSelectionNet(
            config, grid.nx, grid.ny, rng=np.random.default_rng(0)))
        solution = SMORESolver(planner, policy).solve(instance)
    elif case.startswith("dynamic"):
        schedule = poisson_arrivals(instance, np.random.default_rng(4),
                                    initial_fraction=0.5, ttl=40.0)
        late = {instance.workers[-1].worker_id: 30.0}
        if case == "dynamic-late-worker":
            result = SMORESolver(CachedPlanner(planner),
                                 RatioSelectionRule()).solve_dynamic(
                instance, schedule, worker_arrivals=late)
            routes, incentives, phi = (result.routes, result.incentives,
                                       result.phi)
            rejected, events = result.rejected_ids, result.events
        else:
            # The per-epoch rebuild oracle, decoded by the oracle loop.
            env = RebuildDynamicEnv(instance, CachedPlanner(planner),
                                    schedule, worker_arrivals=late)
            state, _ = run_dynamic_episode(env, RatioSelectionRule())
            routes, incentives, phi = (state.assignments.routes(),
                                       state.assignments.incentives(),
                                       state.phi())
            rejected, events = state.rejected, state.events
        assert rejected and events > 0
        solution = SimpleNamespace(routes=routes, incentives=incentives,
                                   objective=phi)
    elif case == "sharded-p2":
        solution = solve_sharded(SMORESolver(planner, GreedySelectionRule()),
                                 _instance(seed=3, workers=8), 2)
    else:
        raise KeyError(case)
    return solution_digest(solution)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_solution_digest_pinned(case):
    assert _digest(case) == GOLDEN[case]


# --------------------------------------------------------------------- #
# The greedy rules' arg-best against a brute-force scan
# --------------------------------------------------------------------- #
def _brute_force_best(table, gains, score):
    """Row by row in table order: the lexicographic minimum of
    (score, delta, task id) within a row; a later row wins only with a
    strictly smaller (score, delta)."""
    best, best_key = None, None
    for r in table.order:
        row_key, row_best = None, None
        for c in np.flatnonzero(table.mask[r]).tolist():
            task_id = int(table.task_ids[c])
            delta = float(table.delta_incentive[r, c])
            key = (score(gains[task_id], delta), delta, task_id)
            if row_key is None or key < row_key:
                row_key, row_best = key, task_id
        if row_key is not None and (best_key is None
                                    or row_key[:2] < best_key[:2]):
            best_key = row_key
            best = (table.workers[r].worker_id, row_best)
    return best


class _FixedGains:
    """Coverage stand-in whose marginal gains are fixed per task id (the
    table's stand-in bins hold each column's task id)."""

    def __init__(self, gains):
        self.gains = gains

    def gain_many(self, bins):
        return np.array([self.gains[i] for i in bins[:, 0].tolist()])


@pytest.mark.parametrize("trial", range(200))
def test_arg_best_matches_brute_force_under_ties(trial):
    from repro.smore.candidates import CandidateTable
    from repro.smore.heuristics import SOFT_MASK_EPS

    rng = np.random.default_rng(trial)
    num_workers, num_tasks = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    workers = [SimpleNamespace(worker_id=10 + w) for w in range(num_workers)]
    task_ids = rng.permutation(100)[:num_tasks] + 200
    tasks = [SimpleNamespace(task_id=int(t)) for t in task_ids]
    table = CandidateTable(None, None, workers, tasks)
    table.bins = table.task_ids[:, None]
    table.order = rng.permutation(num_workers).tolist()
    table.mask[:] = rng.random(table.mask.shape) < 0.6
    table.mask[table.order[0], 0] = True
    # Few distinct values, so scores and deltas tie within and across rows.
    table.delta_incentive[:] = rng.choice([0.0, 1.0, 2.0],
                                          size=table.mask.shape)
    gains = {int(t): float(rng.choice([0.0, 0.5, 1.0])) for t in task_ids}
    state = SimpleNamespace(candidates=table, coverage=_FixedGains(gains))
    rules = {
        GreedySelectionRule(): lambda gain, delta: -gain,
        RatioSelectionRule():
            lambda gain, delta: -gain / max(delta, SOFT_MASK_EPS),
    }
    for rule, score in rules.items():
        action = rule.act(state)
        assert (action.worker_id, action.task_id) \
            == _brute_force_best(table, gains, score)
