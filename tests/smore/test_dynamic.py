"""Dynamic selection environment: streaming arrivals, expiries, locks.

Covers the episode mechanics (accounting, termination, lock monotonicity,
dead-on-arrival handling, late workers, the drained-table precondition of
``advance``), the equivalence of the epoch sweep and the per-epoch
rebuild oracle at the episode level, the static-schedule degeneration to
the classic solver, solve_dynamic's serial-vs-pool determinism, and its
bit-identity with the per-state epoch loop of ``oracle.py``.
"""

import numpy as np
import pytest

from repro import nn
from repro.datasets import (
    InstanceOptions,
    burst_arrivals,
    generate_instances,
    poisson_arrivals,
)
from repro.datasets.dynamic import ArrivalSchedule, TaskArrival
from repro.smore import (
    DynamicSelectionEnv,
    GreedySelectionRule,
    RatioSelectionRule,
    SelectionEnv,
    SMORESolver,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
    run_episode,
)
from repro.tsptw import InsertionSolver
from repro.tsptw.cache import CachedPlanner

from .oracle import RebuildDynamicEnv, run_dynamic_episode


def _instance(seed=3, density=0.05, workers=4):
    return generate_instances(
        "delivery", 1, seed=seed,
        options=InstanceOptions(task_density=density,
                                num_workers=workers))[0]


def _episode(instance, schedule, env_cls=DynamicSelectionEnv, **env_kwargs):
    planner = CachedPlanner(InsertionSolver(speed=instance.speed))
    env = env_cls(instance, planner, schedule, **env_kwargs)
    state, reward = run_episode(env, GreedySelectionRule())[:2]
    return env, state, reward


# --------------------------------------------------------------------- #
# Episode accounting and termination
# --------------------------------------------------------------------- #
def test_every_arrived_task_selected_or_rejected():
    instance = _instance()
    schedule = poisson_arrivals(instance, np.random.default_rng(0),
                                initial_fraction=0.5)
    _, state, _ = _episode(instance, schedule)
    assert state.done
    assert not state.unselected and not state.pending_arrivals
    selected = {t.task_id for t in state.selected}
    rejected = set(state.rejected)
    assert not selected & rejected
    assert state.arrived == len(schedule.arrivals)
    assert len(selected) + len(rejected) == state.arrived


def test_positive_coverage_and_events():
    instance = _instance()
    schedule = burst_arrivals(instance, np.random.default_rng(1),
                              initial_fraction=0.3)
    _, state, reward = _episode(instance, schedule)
    assert state.events > 0
    assert reward == pytest.approx(state.phi())
    assert state.phi() > 0


def test_locks_monotonic_and_budget_respected():
    instance = _instance()
    schedule = poisson_arrivals(instance, np.random.default_rng(2))
    planner = CachedPlanner(InsertionSolver(speed=instance.speed))
    env = DynamicSelectionEnv(instance, planner, schedule)
    policy = GreedySelectionRule()
    state = env.reset()
    policy.begin_episode(instance)
    seen_locks = {w.worker_id: 0 for w in instance.workers}
    while True:
        while not state.candidates.empty:
            action = policy.act(state)
            state, _, _ = env.step_state(state, action.worker_id,
                                         action.task_id)
            assert state.budget_rest >= 0.0
        if not env.advance(state):
            break
        for worker_id, lock in state.locks.items():
            assert lock >= seen_locks[worker_id], "locks must only advance"
            seen_locks[worker_id] = lock
    assert any(lock > 0 for lock in seen_locks.values())


def test_committed_prefix_never_reordered():
    """Once a worker departs toward a stop, later plans keep that prefix."""
    instance = _instance(seed=11)
    schedule = poisson_arrivals(instance, np.random.default_rng(3),
                                initial_fraction=0.5)
    planner = CachedPlanner(InsertionSolver(speed=instance.speed))
    env = DynamicSelectionEnv(instance, planner, schedule)
    policy = GreedySelectionRule()
    state = env.reset()
    policy.begin_episode(instance)
    committed: dict[int, list] = {}
    while True:
        while not state.candidates.empty:
            action = policy.act(state)
            state, _, _ = env.step_state(state, action.worker_id,
                                         action.task_id)
        if not env.advance(state):
            break
        for worker_id, lock in state.locks.items():
            route = env._committed_route(state, worker_id)
            if route is None:
                continue
            prefix = [t.task_id for t in route.tasks[:lock]]
            old = committed.get(worker_id, [])
            assert prefix[:len(old)] == old, \
                "a committed stop was reordered or dropped"
            committed[worker_id] = prefix


def test_dead_on_arrival_is_rejected():
    instance = _instance()
    task = instance.sensing_tasks[0]
    arrival = max(task.tw_start, 1.0)
    schedule = ArrivalSchedule(
        horizon=instance.coverage.time_span,
        arrivals=(TaskArrival(task.task_id, arrival, arrival),))
    _, state, _ = _episode(instance, schedule)
    assert state.rejected == [task.task_id]
    assert not state.selected


def test_advance_requires_a_drained_table():
    """An epoch opens on a drained table only: a live pair could record an
    insertion position before the new lock.  The static env has no
    epochs and answers False whatever its table holds."""
    instance = _instance()
    schedule = poisson_arrivals(instance, np.random.default_rng(0),
                                initial_fraction=0.5)
    planner = CachedPlanner(InsertionSolver(speed=instance.speed))
    env = DynamicSelectionEnv(instance, planner, schedule)
    state = env.reset()
    assert not state.candidates.empty
    mask, events = state.candidates.mask.copy(), state.events
    with pytest.raises(RuntimeError, match="drained"):
        env.advance(state)
    assert (state.candidates.mask == mask).all()
    assert state.events == events and state.now == 0.0

    static = SelectionEnv(instance, planner)
    static_state = static.reset()
    assert not static_state.candidates.empty
    assert static.advance(static_state) is False


def test_zero_pressure_schedule_matches_static_solver():
    """All tasks at t=0 with full windows: the dynamic episode's selection
    decisions are exactly the static solver's."""
    instance = _instance(seed=7)
    records = tuple(TaskArrival(s.task_id, 0.0, s.tw_end)
                    for s in instance.sensing_tasks)
    schedule = ArrivalSchedule(horizon=instance.coverage.time_span,
                               arrivals=records)
    _, state, _ = _episode(instance, schedule)

    static = SMORESolver(CachedPlanner(InsertionSolver(
        speed=instance.speed)), GreedySelectionRule()).solve(instance)
    assert state.phi() == static.objective
    routes = {w: [t.task_id for t in r.tasks]
              for w, r in state.assignments.routes().items()}
    static_routes = {w: [t.task_id for t in r.tasks]
                     for w, r in static.routes.items()}
    assert routes == static_routes


# --------------------------------------------------------------------- #
# Epoch sweep vs rebuild oracle, late workers, solver surface
# --------------------------------------------------------------------- #
def _routes(state):
    return {w: [t.task_id for t in r.tasks]
            for w, r in state.assignments.routes().items()}


@pytest.mark.parametrize("make_schedule", [poisson_arrivals, burst_arrivals])
def test_repair_equals_rebuild_episode(make_schedule):
    """The episode-level checks of the dynamic bench, at small scale: the
    epoch sweep and the per-epoch rebuild give the bit-identical episode,
    and the sweep plans strictly fewer pairs."""
    instance = _instance(seed=5)
    schedule = make_schedule(instance, np.random.default_rng(9),
                             initial_fraction=0.4)
    swept_env, swept, _ = _episode(instance, schedule)
    rebuilt_env, rebuilt, _ = _episode(instance, schedule,
                                       env_cls=RebuildDynamicEnv)
    assert swept.phi() == rebuilt.phi()
    assert [t.task_id for t in swept.selected] == \
        [t.task_id for t in rebuilt.selected]
    assert swept.rejected == rebuilt.rejected
    assert swept.events == rebuilt.events > 0
    assert _routes(swept) == _routes(rebuilt)
    assert swept.assignments.incentives() == rebuilt.assignments.incentives()
    assert len(swept.selected) + len(swept.rejected) == swept.arrived
    assert swept_env.perf.planner_calls < rebuilt_env.perf.planner_calls


def test_late_worker_joins_and_contributes():
    instance = _instance(seed=13, workers=3)
    late = instance.workers[-1].worker_id
    schedule = poisson_arrivals(instance, np.random.default_rng(4),
                                initial_fraction=0.6)
    late_at = {late: 30.0}
    _, with_late, _ = _episode(instance, schedule, worker_arrivals=late_at)
    # Before its arrival epoch the late worker holds no assignments made
    # at t=0; afterwards it participates normally.
    assert late in with_late.locks
    _, rebuilt, _ = _episode(instance, schedule, env_cls=RebuildDynamicEnv,
                             worker_arrivals=late_at)
    assert with_late.phi() == rebuilt.phi()
    assert with_late.rejected == rebuilt.rejected


def test_solve_dynamic_accounting_and_result():
    instance = _instance(seed=17)
    schedule = poisson_arrivals(instance, np.random.default_rng(6),
                                initial_fraction=0.5, ttl=40.0)
    solver = SMORESolver(CachedPlanner(InsertionSolver(
        speed=instance.speed)), GreedySelectionRule())
    result = solver.solve_dynamic(instance, schedule)
    assert result.arrived == len(schedule.arrivals)
    assert len(result.selected_ids) + len(result.rejected_ids) \
        == result.arrived
    assert 0.0 <= result.rejection_rate <= 1.0
    assert result.events > 0
    assert result.perf.planner_calls > 0
    assert set(result.routes) <= {w.worker_id for w in instance.workers}


def test_solve_dynamic_serial_equals_pool():
    """Sampled dynamic decoding: workers=4 must match workers=1 exactly."""
    instance = _instance(seed=19, density=0.03)
    schedule = poisson_arrivals(instance, np.random.default_rng(8),
                                initial_fraction=0.5)

    def run(workers):
        solver = SMORESolver(CachedPlanner(InsertionSolver(
            speed=instance.speed)), GreedySelectionRule())
        return solver.solve_dynamic(
            instance, schedule, num_samples=4, workers=workers,
            rng=np.random.default_rng(123))

    serial = run(1)
    pooled = run(4)
    assert serial.phi == pooled.phi
    assert serial.selected_ids == pooled.selected_ids
    assert serial.rejected_ids == pooled.rejected_ids
    assert serial.incentives == pooled.incentives


# --------------------------------------------------------------------- #
# One decode loop: solve_dynamic vs. the per-state oracle loop
# --------------------------------------------------------------------- #
def _tasnet(instance):
    grid = instance.coverage.grid
    return TASNetPolicy(TASNet(
        TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4),
        grid_nx=grid.nx, grid_ny=grid.ny, rng=np.random.default_rng(0)))


POLICIES = {
    "greedy-rule": lambda instance: GreedySelectionRule(),
    "ratio-rule": lambda instance: RatioSelectionRule(),
    "tasnet": _tasnet,
}
# (num_samples, workers): the greedy decode, then sampled best-of-3
# decoded serially and as two pool chunks.
MODES = [(1, 1), (3, 1), (3, 2)]


def _outcome(result):
    routes = {w: [t.task_id for t in r.tasks]
              for w, r in result.routes.items()}
    return (result.phi, result.selected_ids, result.rejected_ids,
            result.arrived, result.events, routes, result.incentives,
            result.perf.planner_calls)


def _oracle_outcome(solver, instance, schedule, env_cls, plan):
    """solve_dynamic's answer rebuilt from per-state oracle episodes: one
    ``env_cls`` env, the rollouts of ``plan`` in order, the first best phi
    wins."""
    env = env_cls(instance, solver.planner, schedule)
    best = None
    for use_greedy, seed in plan:
        rng = None if use_greedy else np.random.default_rng(seed)
        with nn.no_grad():
            state, _ = run_dynamic_episode(env, solver.policy,
                                           greedy=use_greedy, rng=rng)
        routes = {w: [t.task_id for t in r.tasks]
                  for w, r in state.assignments.routes().items()}
        outcome = (state.phi(), tuple(t.task_id for t in state.selected),
                   tuple(state.rejected), state.arrived, state.events,
                   routes, state.assignments.incentives())
        if best is None or outcome[0] > best[0]:
            best = outcome
    return best + (env.perf.planner_calls,)


@pytest.mark.parametrize("num_samples,workers", MODES)
@pytest.mark.parametrize("repair", [True, False])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_solve_dynamic_matches_oracle_loop(policy, repair, num_samples,
                                           workers):
    """``repair``: the oracle loop runs the production epoch sweep (True)
    or the per-epoch rebuild oracle (False), which gives the same answer
    from more planner calls."""
    instance = _instance(seed=19, density=0.03)
    schedule = poisson_arrivals(instance, np.random.default_rng(8),
                                initial_fraction=0.5, ttl=40.0)
    solver = SMORESolver(InsertionSolver(speed=instance.speed),
                         POLICIES[policy](instance))
    result = solver.solve_dynamic(
        instance, schedule, num_samples=num_samples, workers=workers,
        rng=np.random.default_rng(123))
    plan = solver._rollout_plan(True, np.random.default_rng(123),
                                num_samples)
    assert len(plan) == num_samples
    env_cls = DynamicSelectionEnv if repair else RebuildDynamicEnv
    expected = _oracle_outcome(solver, instance, schedule, env_cls, plan)
    if repair:
        assert _outcome(result) == expected
    else:
        assert _outcome(result)[:-1] == expected[:-1]
        assert _outcome(result)[-1] < expected[-1]
    assert result.events > 0 and result.rejected_ids


def test_schedule_validation():
    instance = _instance()
    with pytest.raises(ValueError):
        ArrivalSchedule(horizon=100.0, arrivals=(
            TaskArrival(0, 0.0, 10.0), TaskArrival(0, 5.0, 10.0)))
    with pytest.raises(ValueError):
        TaskArrival(0, 10.0, 5.0)
    bogus = ArrivalSchedule(horizon=100.0,
                            arrivals=(TaskArrival(10 ** 9, 0.0, 10.0),))
    with pytest.raises(ValueError):
        bogus.validate(instance)
    with pytest.raises(ValueError):
        DynamicSelectionEnv(instance, InsertionSolver(speed=instance.speed),
                            poisson_arrivals(instance,
                                             np.random.default_rng(0)),
                            worker_arrivals={10 ** 9: 5.0})
