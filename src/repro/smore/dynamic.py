"""Streaming-arrival selection: the dynamic sensing scenario.

The paper's environment is static — every sensing task is on the table
before any worker departs.  :class:`DynamicSelectionEnv` extends it to
streaming arrivals: tasks enter and leave the availability pool at event
epochs of an :class:`~repro.datasets.dynamic.ArrivalSchedule`, workers may
join late, and re-planning at each epoch starts from every worker's
*committed* mid-route state (stops a worker has already departed toward
cannot be re-ordered).

Between epochs the selection dynamics are exactly the static MDP — the
same :meth:`~repro.smore.env.SelectionEnv.step_state`, the same policies,
the same tie-breaking — so a schedule whose tasks all arrive at time zero
reproduces the static solver decision-for-decision.  What changes is the
candidate table's life cycle: instead of being rebuilt from scratch at
every epoch (the ``repair=False`` reference mode), it is *repaired*
incrementally —

* expiries reuse the O(holders) ``remove_task`` path,
* arrivals are swept once per worker as one batched anchored insertion
  call (``add_tasks``),
* an advancing committed position re-sweeps only the entries whose
  recorded insertion position it invalidates (``reanchor_worker``).

Repair is provably row-identical to a fresh anchored rebuild over the
current pool (the property tests sweep both paths across planner
backends), while touching O(changed entries) instead of O(W x S) per
event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..core.entities import Worker
from ..core.instance import USMDWInstance
from ..core.perf import PerfCounters
from ..core.route import WorkingRoute
from ..datasets.dynamic import ArrivalSchedule, TaskArrival
from ..obs.profile import scope as profile_scope
from ..obs.slo import current_slo_tracker
from ..tsptw.base import RoutePlanner
from .candidates import CandidateTable
from .env import SelectionEnv
from .state import AssignmentState, SelectionState

__all__ = ["DynamicSelectionEnv", "DynamicSelectionState", "DynamicResult",
           "run_dynamic_episode"]


@dataclass
class DynamicSelectionState(SelectionState):
    """Static MDP state plus the streaming bookkeeping.

    ``unselected`` (inherited) doubles as the availability pool: its
    insertion order — schedule-initial tasks first, arrivals appended in
    event order — is the pool order every candidate row is a subsequence
    of.  ``locks[w]`` is worker ``w``'s committed route position: the
    number of route stops already departed toward, below which no
    insertion may land.
    """

    now: float = 0.0
    pending_arrivals: list[TaskArrival] = field(default_factory=list)
    pending_workers: list[tuple[float, int]] = field(default_factory=list)
    active_workers: list[int] = field(default_factory=list)
    expiry: dict[int, float] = field(default_factory=dict)
    locks: dict[int, int] = field(default_factory=dict)
    rejected: list[int] = field(default_factory=list)
    arrived: int = 0
    events: int = 0

    @property
    def done(self) -> bool:  # type: ignore[override]
        """Episode over: nothing selectable now and nothing still to come."""
        return (self.candidates.empty and not self.unselected
                and not self.pending_arrivals and not self.pending_workers)


class DynamicSelectionEnv(SelectionEnv):
    """Selection environment over a streaming arrival schedule.

    Parameters
    ----------
    instance:
        The full problem — ``instance.sensing_tasks`` is the universe the
        schedule draws from, so static components (policy statics,
        coverage bins) keep working unchanged.
    schedule:
        When each task enters and leaves the pool.
    repair:
        True (default): maintain the candidate table incrementally at
        each event epoch.  False: rebuild it from scratch per epoch — the
        reference the repair path is verified against, and the slow side
        of the repair-speedup benchmark.
    worker_arrivals:
        Optional ``{worker_id: time}`` for workers who join late; they
        hold no candidates before their arrival epoch.
    """

    def __init__(self, instance: USMDWInstance, planner: RoutePlanner,
                 schedule: ArrivalSchedule, repair: bool = True,
                 worker_arrivals: dict[int, float] | None = None):
        schedule.validate(instance)
        self.schedule = schedule
        self.repair = repair
        self.worker_arrivals = dict(worker_arrivals or {})
        unknown = [w for w in self.worker_arrivals
                   if not any(x.worker_id == w for x in instance.workers)]
        if unknown:
            raise ValueError(f"worker_arrivals references unknown workers "
                             f"{unknown}")
        super().__init__(instance, planner)
        self._tasks_by_id = {s.task_id: s for s in instance.sensing_tasks}
        self._base_routes: dict[int, WorkingRoute | None] = {}
        self.events_processed = 0
        self.repair_time = 0.0

    # ------------------------------------------------------------------ #
    def _present_workers(self) -> list[Worker]:
        return [w for w in self.instance.workers
                if self.worker_arrivals.get(w.worker_id, 0.0) <= 0.0]

    def _initial_table(self) -> CandidateTable:
        """Epoch-zero table: present workers x schedule-initial tasks."""
        if self._snapshot is not None:
            return self._snapshot.copy()
        initial_tasks = [self._tasks_by_id[r.task_id]
                         for r in self.schedule.initial]
        present = self._present_workers()
        with obs.span("init", workers=len(present),
                      tasks=len(initial_tasks)), \
                profile_scope("env.init"):
            table = CandidateTable(self.planner, self.incentives)
            table.initialize(present, initial_tasks, self.instance.budget)
        self.perf.planner_calls += table.planner_calls
        self.perf.init_planner_calls += table.planner_calls
        self._snapshot = table
        return table.copy()

    def reset(self) -> DynamicSelectionState:
        start = time.perf_counter()
        initial = self.schedule.initial
        pending_workers = sorted(
            (t, wid) for wid, t in self.worker_arrivals.items() if t > 0.0)
        self.state = DynamicSelectionState(
            candidates=self._initial_table(),
            assignments=AssignmentState(self.instance.workers),
            workers=self.instance.workers,
            budget_rest=self.instance.budget,
            coverage=self.instance.coverage.new_state(),
            unselected={r.task_id: self._tasks_by_id[r.task_id]
                        for r in initial},
            pending_arrivals=list(self.schedule.streamed),
            pending_workers=pending_workers,
            active_workers=[w.worker_id for w in self._present_workers()],
            expiry={r.task_id: r.expiry for r in initial},
            locks={w.worker_id: 0 for w in self.instance.workers},
            arrived=len(initial),
        )
        self.perf.init_time += time.perf_counter() - start
        self.perf.rollouts += 1
        return self.state

    # ------------------------------------------------------------------ #
    def _worker_min_position(self, state: SelectionState,
                             worker_id: int) -> int:
        locks = getattr(state, "locks", None)
        return locks[worker_id] if locks is not None else 0

    def _base_route(self, worker_id: int) -> WorkingRoute | None:
        """The worker's committed route before any assignment (cached);
        None when even the bare trip is infeasible (stranded)."""
        if worker_id not in self._base_routes:
            worker = self.instance.worker(worker_id)
            result = self.planner.base_route(worker)
            self._base_routes[worker_id] = (
                result.route if result.feasible else None)
        return self._base_routes[worker_id]

    def _committed_route(self, state: DynamicSelectionState,
                         worker_id: int) -> WorkingRoute | None:
        slot = state.assignments[worker_id]
        if slot.route is not None:
            return slot.route
        return self._base_route(worker_id)

    def _lock_at(self, state: DynamicSelectionState, worker_id: int,
                 t: float) -> int:
        """Committed position at time ``t``: stops already departed toward.

        The worker departs toward stop 0 at ``timing.departure`` and
        toward stop ``i`` when stop ``i - 1`` finishes; a stop en route
        cannot be preempted, so insertions land at positions >= the lock.
        A worker already bound for their destination gets
        ``len(stops) + 1`` — no open positions at all.
        """
        route = self._committed_route(state, worker_id)
        if route is None:
            return 0  # stranded: the row is empty, the lock is moot
        timing = route.simulate()
        if t < timing.departure:
            return 0
        lock = 1
        for stop in timing.stops:
            if stop.finish <= t:
                lock += 1
        return lock

    # ------------------------------------------------------------------ #
    def _next_event_time(self, state: DynamicSelectionState) -> float | None:
        times = []
        if state.pending_arrivals:
            times.append(state.pending_arrivals[0].arrival)
        if state.pending_workers:
            times.append(state.pending_workers[0][0])
        for task_id in state.unselected:
            expiry = state.expiry[task_id]
            if expiry > state.now:
                times.append(expiry)
        return min(times) if times else None

    def advance(self, state: DynamicSelectionState | None = None) -> bool:
        """Move to the next event epoch; False when no events remain.

        One epoch, in order: (1) expire overdue unselected tasks
        (rejection accounting), (2) admit late workers, (3) advance every
        active worker's committed lock, (4) admit arrivals.  In repair
        mode each sub-step patches the candidate table incrementally; in
        rebuild mode the pool and locks are updated identically and the
        table is then rebuilt from scratch — both orders leave every row
        equal to the anchored sweep over the final pool.
        """
        if state is None:
            state = self._require_state()
            if not isinstance(state, DynamicSelectionState):
                raise TypeError("advance() needs a dynamic state")
        t = self._next_event_time(state)
        if t is None:
            return False
        start = time.perf_counter()
        calls_before = state.candidates.planner_calls
        state.now = t
        state.events += 1
        self.events_processed += 1

        # (1) Expiries: overdue unselected tasks leave the pool for good.
        overdue = [task_id for task_id in state.unselected
                   if state.expiry[task_id] <= t]
        for task_id in overdue:
            del state.unselected[task_id]
            state.candidates.expire_task(task_id)
            state.rejected.append(task_id)

        # (2) Late workers join: base route planned, row built over the
        # current pool (arrivals of this very epoch reach them in (4)).
        joined: list[int] = []
        while state.pending_workers and state.pending_workers[0][0] <= t:
            _, worker_id = state.pending_workers.pop(0)
            state.active_workers.append(worker_id)
            joined.append(worker_id)
            state.locks[worker_id] = self._lock_at(state, worker_id, t)
        if self.repair:
            for worker_id in joined:
                worker = self.instance.worker(worker_id)
                state.candidates.add_worker(
                    worker, list(state.unselected.values()),
                    state.budget_rest,
                    min_position=state.locks[worker_id])
        else:
            for worker_id in joined:
                # Rebuild mode still needs the base travel time on record
                # for the incentive model.
                result = self.planner.base_route(
                    self.instance.worker(worker_id))
                self.incentives.set_base_rtt(
                    self.instance.worker(worker_id),
                    result.route_travel_time)

        # (3) Locks advance with the clock; repair re-sweeps only entries
        # the new anchor invalidates.
        for worker_id in state.active_workers:
            if worker_id in joined:
                continue
            lock = self._lock_at(state, worker_id, t)
            if lock <= state.locks[worker_id]:
                continue
            state.locks[worker_id] = lock
            if self.repair:
                route = self._committed_route(state, worker_id)
                if route is not None:
                    state.candidates.reanchor_worker(
                        self.instance.worker(worker_id), route.tasks,
                        self._tasks_by_id,
                        state.assignments[worker_id].incentive,
                        state.budget_rest, lock)

        # (4) Arrivals enter the pool in event order (appended — pool
        # order stays the row-order convention).
        arrivals = []
        while state.pending_arrivals \
                and state.pending_arrivals[0].arrival <= t:
            record = state.pending_arrivals.pop(0)
            state.arrived += 1
            if record.expiry <= t:
                # Dead on arrival (zero time-to-live): rejected outright.
                state.rejected.append(record.task_id)
                continue
            task = self._tasks_by_id[record.task_id]
            state.unselected[record.task_id] = task
            state.expiry[record.task_id] = record.expiry
            arrivals.append(task)

        if self.repair:
            if arrivals:
                state.candidates.add_tasks(
                    arrivals, self._worker_states(state, stranded=False),
                    state.budget_rest)
        else:
            state.candidates.rebuild(
                self._worker_states(state, stranded=True),
                list(state.unselected.values()), state.budget_rest)

        self.perf.planner_calls += \
            state.candidates.planner_calls - calls_before
        self.repair_time += time.perf_counter() - start
        return True

    def _worker_states(self, state: DynamicSelectionState,
                       stranded: bool) -> list[tuple]:
        """``(worker, route_tasks, incentive, lock)`` per active worker.

        ``stranded=True`` (rebuild) includes workers whose own trip is
        infeasible with ``route_tasks=None`` so their rows exist (empty);
        repair sweeps skip them — their rows hold nothing to patch.
        """
        states = []
        for worker_id in state.active_workers:
            route = self._committed_route(state, worker_id)
            if route is None and not stranded:
                continue
            states.append((
                self.instance.worker(worker_id),
                route.tasks if route is not None else None,
                state.assignments[worker_id].incentive,
                state.locks[worker_id],
            ))
        return states


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DynamicResult:
    """Outcome of one dynamic episode (or the best of several samples).

    Every scheduled task is accounted for exactly once: ``selected_ids``
    were committed to routes, ``rejected_ids`` expired unselected (or
    arrived dead).  ``rejection_rate`` is over all tasks that arrived.
    """

    instance: USMDWInstance
    phi: float
    routes: dict[int, WorkingRoute]
    incentives: dict[int, float]
    selected_ids: tuple[int, ...]
    rejected_ids: tuple[int, ...]
    arrived: int
    events: int
    solver_name: str
    wall_time: float
    perf: PerfCounters

    @property
    def rejection_rate(self) -> float:
        return len(self.rejected_ids) / self.arrived if self.arrived else 0.0

    @property
    def total_incentive(self) -> float:
        return sum(self.incentives.values())


def run_dynamic_episode(env: DynamicSelectionEnv, policy,
                        greedy: bool = True, rng=None):
    """Roll one dynamic episode: select until the table drains, advance
    to the next event epoch, repeat; returns (state, total_reward).

    When an SLO tracker is installed (:func:`repro.obs.slo.install`),
    the per-epoch loop feeds it on **simulation time**: every committed
    selection records ``ok`` and every expiry/dead-on-arrival records
    ``rejected`` at the epoch it happened, and each epoch's incremental
    repair cost lands in the latency window (ms) — so the windowed
    rejection rate and repair percentiles track the arrival process, not
    wall clock.  Objective checks run at most once per epoch.  With no
    tracker installed the loop pays one ``None`` test per epoch.
    """
    state = env.reset()
    policy.begin_episode(env.instance)
    total_reward = 0.0
    tracker = current_slo_tracker()
    selected_seen = rejected_seen = 0
    repair_seen = env.repair_time
    while True:
        while not state.candidates.empty:
            action = policy.act(state, greedy=greedy, rng=rng)
            state, reward, _ = env.step_state(
                state, action.worker_id, action.task_id)
            total_reward += reward
        if tracker is not None:
            for _ in range(len(state.selected) - selected_seen):
                tracker.record("ok", now=state.now, check=False)
            selected_seen = len(state.selected)
            for _ in range(len(state.rejected) - rejected_seen):
                tracker.record("rejected", now=state.now, check=False)
            rejected_seen = len(state.rejected)
            if env.repair_time > repair_seen:
                tracker.observe_latency(
                    (env.repair_time - repair_seen) * 1e3, now=state.now)
                repair_seen = env.repair_time
            tracker.maybe_check(state.now)
        if not env.advance(state):
            break
    return state, total_reward
