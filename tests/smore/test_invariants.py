"""Property-based invariants of the selection environment.

At every step of every episode, regardless of policy: the candidate table
contains only feasible, affordable pairs; the budget never goes negative;
the coverage state equals the batch recomputation; and committed routes
stay feasible.  These are the invariants Algorithm 1's correctness rests
on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoverageModel,
    Grid,
    IncentiveModel,
    Location,
    Region,
    SensingTask,
    TravelTask,
    USMDWInstance,
    Worker,
)
from repro.smore import SelectionEnv
from repro.tsptw import InsertionSolver

from .planes import live_worker_ids, pair_route, pair_values, row_task_ids


def random_instance(seed: int) -> USMDWInstance:
    rng = np.random.default_rng(seed)
    grid = Grid(Region(1000, 1000), 4, 4)
    coverage = CoverageModel(grid, 240.0, 60.0,
                             alpha=float(rng.choice([0.2, 0.5, 0.8])))
    workers = []
    for i in range(int(rng.integers(1, 4))):
        origin = Location(rng.uniform(0, 1000), rng.uniform(0, 1000))
        dest = Location(rng.uniform(0, 1000), rng.uniform(0, 1000))
        k = int(rng.integers(0, 3))
        travel = tuple(
            TravelTask(i * 10 + m,
                       Location(rng.uniform(0, 1000), rng.uniform(0, 1000)),
                       10.0)
            for m in range(k))
        workers.append(Worker(i + 1, origin, dest, 0.0,
                              float(rng.uniform(80, 240)), travel))
    tasks = []
    for k in range(int(rng.integers(3, 9))):
        slot = int(rng.integers(0, 4))
        tasks.append(SensingTask(
            100 + k, Location(rng.uniform(0, 1000), rng.uniform(0, 1000)),
            slot * 60.0, slot * 60.0 + 60.0, 5.0))
    return USMDWInstance(workers=tuple(workers), sensing_tasks=tuple(tasks),
                         budget=float(rng.uniform(30, 150)), mu=1.0,
                         coverage=coverage)


def check_invariants(instance: USMDWInstance, state) -> None:
    # 1. Every candidate entry is feasible and affordable.
    for worker in instance.workers:
        for task_id in row_task_ids(state.candidates, worker.worker_id):
            delta, _ = pair_values(state.candidates, worker.worker_id,
                                   task_id)
            route = pair_route(state.candidates, worker.worker_id, task_id)
            assert delta < state.budget_rest + 1e-9
            timing = route.simulate()
            assert timing.feasible
            assert route.covers_all_travel_tasks()
    # 2. Budget conservation.
    assert state.budget_rest >= -1e-9
    spent = state.assignments.total_incentive()
    assert spent + state.budget_rest == pytest.approx(instance.budget)
    # 3. Incremental coverage equals batch recomputation.
    assert state.coverage.phi() == pytest.approx(
        instance.coverage.phi(state.selected))
    # 4. Committed routes are feasible and contain exactly the assignment.
    for slot in state.assignments:
        if slot.route is None:
            assert slot.assigned == []
            continue
        assert slot.route.simulate().feasible
        assert ({t.task_id for t in slot.route.sensing_tasks}
                == {t.task_id for t in slot.assigned})


class TestEnvironmentInvariants:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariants_hold_throughout_random_episodes(self, seed):
        instance = random_instance(seed)
        env = SelectionEnv(instance, InsertionSolver())
        state = env.reset()
        check_invariants(instance, state)
        rng = np.random.default_rng(seed + 1)
        steps = 0
        while not state.done and steps < 50:
            workers = live_worker_ids(state.candidates)
            worker_id = workers[int(rng.integers(0, len(workers)))]
            candidates = row_task_ids(state.candidates, worker_id)
            task_id = candidates[int(rng.integers(0, len(candidates)))]
            state, reward, _ = env.step(worker_id, task_id)
            check_invariants(instance, state)
            steps += 1

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_episode_total_reward_equals_final_phi(self, seed):
        instance = random_instance(seed)
        env = SelectionEnv(instance, InsertionSolver())
        state = env.reset()
        total = 0.0
        while not state.done:
            worker_id = live_worker_ids(state.candidates)[0]
            task_id = row_task_ids(state.candidates, worker_id)[0]
            state, reward, _ = env.step(worker_id, task_id)
            total += reward
        assert total == pytest.approx(state.phi())

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_final_solution_validates(self, seed):
        from repro.smore import RatioSelectionRule, SMORESolver

        instance = random_instance(seed)
        planner = InsertionSolver()
        solution = SMORESolver(planner, RatioSelectionRule()).solve(instance)
        model = IncentiveModel(
            mu=instance.mu,
            base_rtt_fn=lambda w: planner.base_route(w).route_travel_time)
        assert solution.validate(model) == []
