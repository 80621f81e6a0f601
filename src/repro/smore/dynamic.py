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
reproduces the static solver decision-for-decision.  An epoch opens only
once the candidate table has drained (the decode loop advances when no
pair is left), and it keeps the static table's one row writer:

* an expiry clears the task's column, as a selection does
  (:meth:`~repro.smore.candidates.CandidateTable.remove_task`),
* every active worker's committed lock advances with the clock,
* arrivals join the pool, and each worker sweeps them once — one batched
  anchored insertion call through
  :meth:`~repro.smore.candidates.CandidateTable.recompute_worker`; a late
  worker sweeps the whole pool instead.

No other pool task needs a re-sweep: on a drained table every remaining
pair was infeasible or unaffordable, and an advancing lock and a
shrinking budget only take positions and money away.  The rows after an
epoch therefore equal a fresh anchored build over the current pool,
planned in O(arrivals x workers) instead of O(W x S) per event; that
from-scratch rebuild is the test oracle (``tests/smore/oracle.py``) the
property tests compare against at every epoch, across planner backends.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..core.entities import Worker
from ..core.instance import USMDWInstance
from ..core.perf import PerfCounters
from ..core.route import WorkingRoute
from ..datasets.dynamic import ArrivalSchedule, TaskArrival
from ..obs.slo import current_slo_tracker
from ..tsptw.base import RoutePlanner
from .env import SelectionEnv
from .state import AssignmentState, SelectionState

__all__ = ["DynamicSelectionEnv", "DynamicSelectionState", "DynamicResult"]


@dataclass
class DynamicSelectionState(SelectionState):
    """Static MDP state plus the streaming bookkeeping.

    ``unselected`` (inherited) holds the tasks of the availability pool
    (the table's ``pool`` columns): schedule-initial tasks first, arrivals
    appended in event order, which is the order expiries are rejected
    in.  ``locks[w]`` is worker ``w``'s committed route position: the
    number of route stops already departed toward, below which no
    insertion may land.  ``epoch_selected``: ``len(selected)`` when the
    current epoch opened.  ``finishes[w]`` is ``(route, departure, stop
    finish times)`` of worker ``w``'s committed route, taken once per
    route the first time a lock reads it.
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
    epoch_selected: int = 0
    finishes: dict[int, tuple] = field(default_factory=dict)

    @property
    def done(self) -> bool:  # type: ignore[override]
        """Episode over: nothing selectable now and nothing still to come."""
        return (self.candidates.empty and not self.unselected
                and not self.pending_arrivals and not self.pending_workers)

    def outcome(self) -> tuple:
        """Static outcome + (selected ids, rejected ids, arrived, events)."""
        return super().outcome() + (
            tuple(t.task_id for t in self.selected), tuple(self.rejected),
            self.arrived, self.events)


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
    worker_arrivals:
        Optional ``{worker_id: time}`` for workers who join late; they
        hold no candidates before their arrival epoch.
    """

    def __init__(self, instance: USMDWInstance, planner: RoutePlanner,
                 schedule: ArrivalSchedule,
                 worker_arrivals: dict[int, float] | None = None):
        schedule.validate(instance)
        self.schedule = schedule
        self.worker_arrivals = dict(worker_arrivals or {})
        unknown = [w for w in self.worker_arrivals
                   if not any(x.worker_id == w for x in instance.workers)]
        if unknown:
            raise ValueError(f"worker_arrivals references unknown workers "
                             f"{unknown}")
        super().__init__(instance, planner)
        self._tasks_by_id = {s.task_id: s for s in instance.sensing_tasks}
        self._base_routes: dict[int, WorkingRoute | None] = {}
        # Wall time spent opening epochs (advance), summed over episodes.
        self.repair_time = 0.0

    # ------------------------------------------------------------------ #
    def _present_workers(self) -> list[Worker]:
        return [w for w in self.instance.workers
                if self.worker_arrivals.get(w.worker_id, 0.0) <= 0.0]

    def _initial_pool(self) -> tuple:
        """Epoch zero: present workers x schedule-initial tasks."""
        return self._present_workers(), [self._tasks_by_id[r.task_id]
                                         for r in self.schedule.initial]

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
        ``len(stops) + 1`` — no open positions at all.  A route changes
        only when its worker is selected, so its stop finish times (non-
        decreasing along the route) are simulated once per route and the
        lock is one binary search.
        """
        route = self._committed_route(state, worker_id)
        if route is None:
            return 0  # stranded: the row is empty, the lock is moot
        kept = state.finishes.get(worker_id)
        if kept is None or kept[0] is not route:
            timing = route.simulate()
            kept = state.finishes[worker_id] = (
                route, timing.departure,
                [stop.finish for stop in timing.stops])
        _, departure, finish = kept
        if t < departure:
            return 0
        return 1 + bisect_right(finish, t)

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
        """Close this epoch, open the next; False when no events remain.

        One epoch, in order: (1) expire overdue unselected tasks
        (rejection accounting), (2) admit late workers and advance every
        active worker's committed lock, (3) admit arrivals into the pool,
        (4) :meth:`_sweep_epoch`.  The table must have drained: a live
        pair could record an insertion position before the new lock, so
        ``RuntimeError`` is raised instead of keeping it.

        An installed SLO tracker (:func:`repro.obs.slo.install`) is fed
        on simulation time: the closing epoch's selections as ``ok`` and
        one ``maybe_check`` at its time, then the new epoch's expiries
        and dead arrivals as ``rejected`` and its epoch ms, at ``t``.
        """
        if state is None:
            state = self._require_state()
            if not isinstance(state, DynamicSelectionState):
                raise TypeError("advance() needs a dynamic state")
        table = state.candidates
        if not table.empty:
            raise RuntimeError(
                "advance() needs a drained candidate table: a live pair "
                "may be anchored before the new lock")
        tracker = current_slo_tracker()
        if tracker is not None:
            for _ in range(len(state.selected) - state.epoch_selected):
                tracker.record("ok", now=state.now, check=False)
            tracker.maybe_check(state.now)
        state.epoch_selected = len(state.selected)
        t = self._next_event_time(state)
        if t is None:
            return False
        start = time.perf_counter()
        calls_before = table.planner_calls
        rejected_before = len(state.rejected)
        state.now = t
        state.events += 1

        # (1) Expiries: overdue unselected tasks leave the pool for good.
        overdue = [task_id for task_id in state.unselected
                   if state.expiry[task_id] <= t]
        for task_id in overdue:
            del state.unselected[task_id]
            table.remove_task(task_id)
            state.rejected.append(task_id)

        # (2) Late workers join; every lock advances with the clock.
        joined: list[int] = []
        while state.pending_workers and state.pending_workers[0][0] <= t:
            _, worker_id = state.pending_workers.pop(0)
            state.active_workers.append(worker_id)
            joined.append(worker_id)
        for worker_id in state.active_workers:
            state.locks[worker_id] = max(state.locks[worker_id],
                                         self._lock_at(state, worker_id, t))

        # (3) Arrivals enter the pool in event order.
        arrivals: list[int] = []
        while state.pending_arrivals \
                and state.pending_arrivals[0].arrival <= t:
            record = state.pending_arrivals.pop(0)
            state.arrived += 1
            if record.expiry <= t:
                # Dead on arrival (zero time-to-live): rejected outright.
                state.rejected.append(record.task_id)
                continue
            state.unselected[record.task_id] = \
                self._tasks_by_id[record.task_id]
            state.expiry[record.task_id] = record.expiry
            arrivals.append(table.col_of[record.task_id])
        table.pool[arrivals] = True

        # (4) One sweep per worker.
        self._sweep_epoch(state, joined, np.array(arrivals, dtype=np.intp))

        self.perf.planner_calls += table.planner_calls - calls_before
        elapsed = time.perf_counter() - start
        self.repair_time += elapsed
        if tracker is not None:
            for _ in range(len(state.rejected) - rejected_before):
                tracker.record("rejected", now=t, check=False)
            tracker.observe_latency(elapsed * 1e3, now=t)
        return True

    def _sweep_epoch(self, state: DynamicSelectionState, joined: list[int],
                     arrivals: np.ndarray) -> None:
        """Sweep each non-stranded active worker once, anchored at its lock.

        A worker in ``joined`` records its base travel time with the
        incentive model, takes the end of the table order and sweeps the
        whole pool; every other worker sweeps only the ``arrivals``
        columns, and none at all when nothing arrived.  The sweeps pass no
        assigned tasks, so re-plan planners raise ``TypeError``.
        """
        table = state.candidates
        pool = np.flatnonzero(table.pool)
        for worker_id in state.active_workers:
            worker = self.instance.worker(worker_id)
            if worker_id in joined:
                base = self.planner.base_route(worker)
                self.incentives.set_base_rtt(worker, base.route_travel_time)
                table.order.append(table.row_of[worker_id])
                cols = pool
            elif arrivals.size:
                cols = arrivals
            else:
                continue
            route = self._committed_route(state, worker_id)
            if route is None:
                continue  # stranded: the row stays empty
            table.recompute_worker(
                worker, None, cols, state.assignments[worker_id].incentive,
                state.budget_rest, route.tasks, state.locks[worker_id])


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
