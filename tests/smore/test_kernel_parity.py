"""End-to-end kernel parity for the full SMORE solve.

``InsertionSolver`` (packed route kernels) must produce *bit-identical*
solutions to the object-path oracle ``ObjectInsertionSolver`` — same
routes, same incentive floats, same objective, and the same integer perf
counters — under greedy and seeded sampling selection, serially and
through the workers=4 fork pool, and the same candidate table at
initialisation.
"""

import numpy as np
import pytest

from repro.core import IncentiveModel
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import CandidateTable, GreedySelectionRule, SMORESolver
from repro.tsptw import InsertionSolver

from ..tsptw.oracle import ObjectInsertionSolver

_COUNTER_FIELDS = ("planner_calls", "init_planner_calls", "backend_calls",
                   "cache_hits", "cache_misses", "rollouts")


def _route_ids(solution):
    return {wid: [t.task_id for t in route.tasks]
            for wid, route in solution.routes.items()}


def _assert_bit_identical(kernel_sol, object_sol):
    assert _route_ids(kernel_sol) == _route_ids(object_sol)
    # Dict equality on raw floats: incentives must match to the last bit.
    assert kernel_sol.incentives == object_sol.incentives
    assert kernel_sol.objective == object_sol.objective
    for field in _COUNTER_FIELDS:
        assert getattr(kernel_sol.perf, field) == \
            getattr(object_sol.perf, field), field


def _solve(instance, policy, planner_cls, **kwargs):
    planner = planner_cls(speed=instance.speed)
    return SMORESolver(planner, policy).solve(instance, **kwargs)


def test_greedy_parity_small(small_instance):
    kernel_sol = _solve(small_instance, GreedySelectionRule(),
                        InsertionSolver, greedy=True)
    object_sol = _solve(small_instance, GreedySelectionRule(),
                        ObjectInsertionSolver, greedy=True)
    assert kernel_sol.num_completed > 0
    _assert_bit_identical(kernel_sol, object_sol)


def test_greedy_parity_generated_instance():
    instance = generate_instances(
        "delivery", 1, seed=5,
        options=InstanceOptions(task_density=0.06))[0]
    kernel_sol = _solve(instance, GreedySelectionRule(), InsertionSolver,
                        greedy=True)
    object_sol = _solve(instance, GreedySelectionRule(),
                        ObjectInsertionSolver, greedy=True)
    assert kernel_sol.num_completed > 0
    _assert_bit_identical(kernel_sol, object_sol)


@pytest.mark.parametrize("workers", [1, 4])
def test_sampled_parity_serial_and_pool(small_instance, policy, workers):
    solutions = []
    for planner_cls in (InsertionSolver, ObjectInsertionSolver):
        solutions.append(_solve(
            small_instance, policy, planner_cls, greedy=False,
            rng=np.random.default_rng(11), num_samples=4, workers=workers))
    kernel_sol, object_sol = solutions
    assert kernel_sol.perf.rollouts == 4
    _assert_bit_identical(kernel_sol, object_sol)


def test_candidate_init_parity_generated_instance():
    # The O(|W| x |S|) init sweep at a dense task field: the bound kernel
    # planner finds the oracle's candidate set with the same logical
    # planner calls.
    instance = generate_instances(
        "delivery", 1, seed=100,
        options=InstanceOptions(task_density=0.15))[0]
    tables = []
    for planner_cls in (InsertionSolver, ObjectInsertionSolver):
        planner = planner_cls(speed=instance.speed).bind_instance(instance)
        table = CandidateTable(planner, IncentiveModel(mu=instance.mu),
                               instance.workers, instance.sensing_tasks)
        table.initialize(instance.workers, instance.sensing_tasks,
                         instance.budget)
        tables.append(table)
    kernel_table, object_table = tables
    assert kernel_table.mask.sum() > 0
    assert kernel_table.mask.sum() == object_table.mask.sum()
    assert kernel_table.planner_calls == object_table.planner_calls
