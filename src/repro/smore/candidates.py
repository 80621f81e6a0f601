"""Candidate assignment table ``C`` (Algorithm 1, step 1 and lines 15-23).

``C[w][s]`` holds, for every *feasible* sensing-task/worker pair, the
working route the TSPTW solver found after assigning ``s`` to ``w`` on top
of the worker's current assignment, and the additional incentive that
assignment would cost.  A pair is feasible iff such a route respects the
worker's time constraint and the additional incentive fits the remaining
budget (Section III-B).

Planners exposing ``plan_insertions_many`` (the insertion solver's batched
kernel sweep, optionally behind :class:`~repro.tsptw.cache.CachedPlanner`)
get the whole init/recompute sweep as one batched call per worker;
``planner_calls`` still counts one logical plan per task, so accounting is
identical to the per-task loop.

Beyond the rows themselves the table maintains two incremental indices —
a task -> workers reverse map and the set of non-empty rows — so that
``remove_task``, ``workers_with_candidates``, ``candidate_task_ids`` and
the ``empty`` check cost O(affected entries) instead of rescanning every
row on every step.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.entities import SensingTask, Worker
from ..core.incentive import IncentiveModel
from ..core.route import WorkingRoute
from ..tsptw.base import RoutePlanner

__all__ = ["CandidateEntry", "CandidateTable"]


class CandidateEntry:
    """Value stored in C: the route after assignment and its marginal cost.

    ``route`` may be given as a zero-argument factory instead of a built
    :class:`WorkingRoute`: a candidate sweep scores dozens of insertions
    per step but only the *chosen* entry's route is ever walked, so the
    factory defers (and usually skips entirely) route construction.  The
    first ``route`` access materialises and caches it.

    ``position`` records where the insertion scan placed the task in the
    worker's route at computation time (None when the planner did not
    report one).  Dynamic re-planning uses it to decide, when a worker's
    committed mid-route position advances, which entries must be re-swept:
    an entry whose position is already past the new anchor provably equals
    the anchored rescan and is kept as-is.
    """

    __slots__ = ("_route", "route_travel_time", "delta_incentive", "position")

    def __init__(self, route, route_travel_time: float,
                 delta_incentive: float, position: int | None = None):
        self._route = route
        self.route_travel_time = route_travel_time
        self.delta_incentive = delta_incentive
        self.position = position

    @property
    def route(self) -> WorkingRoute:
        if callable(self._route):
            self._route = self._route()
        return self._route


class CandidateTable:
    """Feasible sensing-task/worker assignment pairs, updated iteratively."""

    def __init__(self, planner: RoutePlanner, incentives: IncentiveModel):
        self.planner = planner
        self.incentives = incentives
        self._table: dict[int, dict[int, CandidateEntry]] = {}
        # Incremental indices: which workers hold each task, which rows are
        # non-empty, and a lazily rebuilt workers_with_candidates() list
        # (kept in _table order, which selection tie-breaking observes).
        self._task_workers: dict[int, set[int]] = {}
        self._nonempty: set[int] = set()
        self._workers_cache: list[int] | None = None
        self.planner_calls = 0

    # ------------------------------------------------------------------ #
    def initialize(self, workers: Sequence[Worker],
                   sensing_tasks: Sequence[SensingTask],
                   budget_rest: float) -> None:
        """Algorithm 1 lines 4-9: try every (worker, task) pair.

        Each worker's base route (travel tasks only) is planned once; every
        sensing task is then checked by insertion into it — batched when
        the planner supports it, per-task otherwise — or by a full re-plan
        for planners without incremental insertion.
        """
        self._table = {w.worker_id: {} for w in workers}
        self._task_workers = {}
        self._nonempty = set()
        self._workers_cache = None
        plan_many = getattr(self.planner, "plan_many", None)
        insertion = getattr(self.planner, "plan_with_insertion", None)
        insert_many = getattr(self.planner, "plan_insertions_many", None)
        sensing_tasks = list(sensing_tasks)
        for worker in workers:
            base = self.planner.base_route(worker)
            self.incentives.set_base_rtt(worker, base.route_travel_time)
            if not base.feasible:
                continue  # the worker cannot even complete their own trip
            base_tasks = base.route.tasks if base.route is not None else ()
            row: dict[int, CandidateEntry] = {}
            if insert_many is not None:
                # Batched insertion path (kernel sweep): one call per
                # worker, one logical plan per task.
                results = insert_many(worker, base_tasks, sensing_tasks)
                self.planner_calls += len(sensing_tasks)
                for task, result in zip(sensing_tasks, results):
                    entry = self._entry_from_result(worker, result, 0.0,
                                                    budget_rest)
                    if entry is not None:
                        row[task.task_id] = entry
            elif plan_many is not None and insertion is None:
                # Batched path (RL backends): one encoder pass per worker.
                results = plan_many(worker, [[task] for task in sensing_tasks])
                self.planner_calls += len(sensing_tasks)
                for task, result in zip(sensing_tasks, results):
                    entry = self._entry_from_result(worker, result, 0.0,
                                                    budget_rest)
                    if entry is not None:
                        row[task.task_id] = entry
            else:
                for task in sensing_tasks:
                    entry = self._try_assignment(worker, [task], 0.0,
                                                 budget_rest,
                                                 base_tasks=base_tasks)
                    if entry is not None:
                        row[task.task_id] = entry
            self._commit_row(worker.worker_id, row)

    def _entry_from_result(self, worker: Worker, result,
                           current_incentive: float,
                           budget_rest: float) -> CandidateEntry | None:
        if not result.feasible:
            return None
        rtt = result.route_travel_time
        delta = self.incentives.incentive(worker, rtt) - current_incentive
        if delta > budget_rest:
            # Strict >: the paper's constraint is <=, so an assignment that
            # exactly exhausts the remaining budget stays feasible.
            return None
        factory = getattr(result, "make_route", None)
        return CandidateEntry(factory if factory is not None
                              else result.route, rtt, delta,
                              position=getattr(result, "pos", None))

    def _try_assignment(self, worker: Worker,
                        tasks_after: Sequence[SensingTask],
                        current_incentive: float,
                        budget_rest: float,
                        base_tasks: Sequence | None = None) -> CandidateEntry | None:
        self.planner_calls += 1
        insert_fn = getattr(self.planner, "plan_with_insertion", None)
        if base_tasks is not None and insert_fn is not None:
            result = insert_fn(worker, base_tasks, tasks_after[-1])
        else:
            result = self.planner.plan(worker, tasks_after)
        if not result.feasible:
            return None
        rtt = result.route_travel_time
        delta = self.incentives.incentive(worker, rtt) - current_incentive
        if delta > budget_rest:
            return None
        return CandidateEntry(result.route, rtt, delta)

    # ------------------------------------------------------------------ #
    # Incremental index maintenance
    # ------------------------------------------------------------------ #
    def _commit_row(self, worker_id: int,
                    row: dict[int, CandidateEntry]) -> None:
        """Replace a worker's row and update both indices."""
        old = self._table.get(worker_id)
        if old:
            for task_id in old:
                self._unindex(task_id, worker_id)
        self._table[worker_id] = row
        for task_id in row:
            self._task_workers.setdefault(task_id, set()).add(worker_id)
        was_nonempty = worker_id in self._nonempty
        if row and not was_nonempty:
            self._nonempty.add(worker_id)
            self._workers_cache = None
        elif not row and was_nonempty:
            self._nonempty.discard(worker_id)
            self._workers_cache = None

    def _unindex(self, task_id: int, worker_id: int) -> None:
        holders = self._task_workers.get(task_id)
        if holders is not None:
            holders.discard(worker_id)
            if not holders:
                del self._task_workers[task_id]

    def _drop_entry(self, worker_id: int, task_id: int) -> None:
        row = self._table[worker_id]
        del row[task_id]
        self._unindex(task_id, worker_id)
        if not row:
            self._nonempty.discard(worker_id)
            self._workers_cache = None

    # ------------------------------------------------------------------ #
    def copy(self) -> "CandidateTable":
        """Cheap structural copy for snapshot reuse.

        Rows are copied dict-by-dict; the :class:`CandidateEntry` values are
        frozen and shared.  ``planner_calls`` carries over so the copy still
        reports the cost of building the table it restores — no new planner
        calls are issued by the copy itself.
        """
        clone = CandidateTable(self.planner, self.incentives)
        clone._table = {worker_id: dict(row)
                        for worker_id, row in self._table.items()}
        clone._task_workers = {task_id: set(holders)
                               for task_id, holders
                               in self._task_workers.items()}
        clone._nonempty = set(self._nonempty)
        clone.planner_calls = self.planner_calls
        return clone

    def remove_task(self, task_id: int) -> None:
        """Line 16: drop a completed task from every worker's candidates.

        The reverse index makes this O(workers holding the task) instead
        of touching every row.
        """
        for worker_id in self._task_workers.pop(task_id, ()):
            row = self._table[worker_id]
            del row[task_id]
            if not row:
                self._nonempty.discard(worker_id)
                self._workers_cache = None

    def recompute_worker(self, worker: Worker,
                         assigned: Sequence[SensingTask],
                         available: Iterable[SensingTask],
                         current_incentive: float,
                         budget_rest: float,
                         current_route_tasks: Sequence | None = None,
                         min_position: int = 0) -> None:
        """Lines 17-23: refresh the selected worker's candidate row.

        ``current_route_tasks`` — the worker's committed route order — lets
        incremental planners check each candidate by single insertion
        (batched into one call when the planner supports it).
        ``min_position`` anchors every insertion at the worker's committed
        mid-route position (dynamic re-planning); it requires an
        insertion-capable planner, since a full re-plan cannot honour a
        committed prefix.
        """
        row: dict[int, CandidateEntry] = {}
        insert_many = getattr(self.planner, "plan_insertions_many", None)
        plan_many = getattr(self.planner, "plan_many", None)
        if insert_many is not None and current_route_tasks is not None:
            available = list(available)
            results = insert_many(worker, current_route_tasks, available,
                                  min_position=min_position)
            self.planner_calls += len(available)
            for task, result in zip(available, results):
                entry = self._entry_from_result(worker, result,
                                                current_incentive, budget_rest)
                if entry is not None:
                    row[task.task_id] = entry
            self._commit_row(worker.worker_id, row)
            return
        if min_position > 0:
            raise TypeError(
                "anchored recompute (min_position > 0) requires a planner "
                "with plan_insertions_many and the worker's current route")
        if plan_many is not None and getattr(
                self.planner, "plan_with_insertion", None) is None:
            available = list(available)
            sets = [list(assigned) + [task] for task in available]
            results = plan_many(worker, sets)
            self.planner_calls += len(sets)
            for task, result in zip(available, results):
                entry = self._entry_from_result(worker, result,
                                                current_incentive, budget_rest)
                if entry is not None:
                    row[task.task_id] = entry
            self._commit_row(worker.worker_id, row)
            return
        for task in available:
            entry = self._try_assignment(
                worker, list(assigned) + [task], current_incentive, budget_rest,
                base_tasks=current_route_tasks)
            if entry is not None:
                row[task.task_id] = entry
        self._commit_row(worker.worker_id, row)

    # ------------------------------------------------------------------ #
    # Incremental repair (streaming arrivals / expiries / re-anchoring)
    # ------------------------------------------------------------------ #
    def _insertion_results(self, worker: Worker, route_tasks: Sequence,
                           tasks: Sequence[SensingTask],
                           min_position: int) -> list:
        """Anchored insertion results for ``tasks`` into one route order.

        One batched call when the planner sweeps
        (``plan_insertions_many``), a per-task loop when it only offers
        ``plan_with_insertion``; accounting matches the initialize /
        recompute sweeps (one logical plan per task).  Repair is an
        insertion-native operation, so planners without an insertion path
        are rejected outright.
        """
        insert_many = getattr(self.planner, "plan_insertions_many", None)
        if insert_many is not None:
            self.planner_calls += len(tasks)
            return insert_many(worker, route_tasks, tasks,
                               min_position=min_position)
        insert_fn = getattr(self.planner, "plan_with_insertion", None)
        if insert_fn is None:
            raise TypeError(
                "incremental candidate repair requires an insertion-capable "
                "planner (plan_insertions_many or plan_with_insertion)")
        results = []
        for task in tasks:
            self.planner_calls += 1
            results.append(insert_fn(worker, route_tasks, task,
                                     min_position=min_position))
        return results

    def _add_entry(self, worker_id: int, task_id: int,
                   entry: CandidateEntry) -> None:
        """Insert (or update) one entry, maintaining both indices."""
        row = self._table[worker_id]
        was_empty = not row
        row[task_id] = entry
        self._task_workers.setdefault(task_id, set()).add(worker_id)
        if was_empty:
            self._nonempty.add(worker_id)
            self._workers_cache = None

    def add_tasks(self, new_tasks: Sequence[SensingTask],
                  worker_states: Iterable[tuple],
                  budget_rest: float) -> None:
        """Repair after arrivals: sweep the new tasks against each worker.

        ``worker_states`` yields ``(worker, route_tasks, incentive,
        min_position)`` for every worker that can still accept tasks — its
        committed route order, the incentive currently owed, and the
        anchor of its committed mid-route position.  Each worker gets one
        batched anchored sweep over the arrival batch; feasible entries
        are *appended* to its row, which keeps row iteration order equal
        to a fresh rebuild over the arrival-ordered task pool.
        """
        new_tasks = list(new_tasks)
        if not new_tasks:
            return
        for worker, route_tasks, incentive, min_position in worker_states:
            if worker.worker_id not in self._table:
                self._table[worker.worker_id] = {}
            results = self._insertion_results(worker, route_tasks, new_tasks,
                                              min_position)
            for task, result in zip(new_tasks, results):
                entry = self._entry_from_result(worker, result, incentive,
                                                budget_rest)
                if entry is not None:
                    self._add_entry(worker.worker_id, task.task_id, entry)

    def expire_task(self, task_id: int) -> bool:
        """Repair after an expiry: drop the task from every row.

        Identical to :meth:`remove_task` (an expired task and a selected
        task leave the table the same way); returns whether any worker
        still held it, which rejection accounting reports.
        """
        present = task_id in self._task_workers
        self.remove_task(task_id)
        return present

    def reanchor_worker(self, worker: Worker, route_tasks: Sequence,
                        tasks_by_id: dict[int, SensingTask],
                        current_incentive: float, budget_rest: float,
                        min_position: int) -> int:
        """Repair after time passes: advance a worker's committed anchor.

        Only entries the new anchor invalidates — recorded insertion
        position before ``min_position``, or no recorded position — are
        re-swept (one batched anchored call); the rest are provably
        identical to an anchored rescan and keep their values.  An entry
        that loses every anchored position is dropped; a task absent from
        the row cannot re-enter (the feasible position set only shrinks as
        the anchor advances).  Returns the number of entries re-swept.
        """
        row = self._table.get(worker.worker_id)
        if not row:
            return 0
        stale_ids = [task_id for task_id, entry in row.items()
                     if entry.position is None
                     or entry.position < min_position]
        if not stale_ids:
            return 0
        stale = [tasks_by_id[task_id] for task_id in stale_ids]
        results = self._insertion_results(worker, route_tasks, stale,
                                          min_position)
        for task, result in zip(stale, results):
            entry = self._entry_from_result(worker, result,
                                            current_incentive, budget_rest)
            if entry is None:
                self._drop_entry(worker.worker_id, task.task_id)
            else:
                row[task.task_id] = entry  # in-place: row order preserved
        return len(stale_ids)

    def add_worker(self, worker: Worker, tasks: Sequence[SensingTask],
                   budget_rest: float, min_position: int = 0) -> bool:
        """Repair after a late worker arrival: build its row from scratch.

        Plans the worker's base route (recording its base travel time with
        the incentive model), then sweeps every current task against it.
        The row is appended, so ``workers_with_candidates()`` order stays
        the arrival order.  Returns False — with an empty committed row —
        when the worker cannot even complete their own trip.
        """
        base = self.planner.base_route(worker)
        self.incentives.set_base_rtt(worker, base.route_travel_time)
        self._commit_row(worker.worker_id, {})
        if not base.feasible:
            return False
        base_tasks = base.route.tasks if base.route is not None else ()
        results = self._insertion_results(worker, base_tasks, list(tasks),
                                          min_position)
        for task, result in zip(tasks, results):
            entry = self._entry_from_result(worker, result, 0.0, budget_rest)
            if entry is not None:
                self._add_entry(worker.worker_id, task.task_id, entry)
        return True

    def rebuild(self, worker_states: Iterable[tuple],
                tasks: Sequence[SensingTask], budget_rest: float) -> None:
        """Fresh anchored build over the current task pool.

        The from-scratch reference the incremental repair path is tested
        against (and the dynamic env's ``repair=False`` mode): every
        worker's row is recomputed with one anchored sweep over the whole
        pool.  ``worker_states`` yields ``(worker, route_tasks, incentive,
        min_position)``; a ``route_tasks`` of None marks a stranded worker
        (infeasible own trip), whose row stays empty.
        """
        worker_states = list(worker_states)
        tasks = list(tasks)
        self._table = {worker.worker_id: {}
                       for worker, _, _, _ in worker_states}
        self._task_workers = {}
        self._nonempty = set()
        self._workers_cache = None
        for worker, route_tasks, incentive, min_position in worker_states:
            if route_tasks is None:
                continue
            row: dict[int, CandidateEntry] = {}
            results = self._insertion_results(worker, route_tasks, tasks,
                                              min_position)
            for task, result in zip(tasks, results):
                entry = self._entry_from_result(worker, result, incentive,
                                                budget_rest)
                if entry is not None:
                    row[task.task_id] = entry
            self._commit_row(worker.worker_id, row)

    def prune_over_budget(self, budget_rest: float) -> None:
        """Drop entries whose marginal cost no longer fits the budget.

        Needed after *any* selection: spending budget on worker A can make
        a previously feasible pair of worker B unaffordable.
        """
        for worker_id, row in self._table.items():
            doomed = [t for t, e in row.items()
                      if e.delta_incentive > budget_rest]
            for task_id in doomed:
                self._drop_entry(worker_id, task_id)

    # ------------------------------------------------------------------ #
    def get(self, worker_id: int, task_id: int) -> CandidateEntry | None:
        return self._table.get(worker_id, {}).get(task_id)

    def worker_candidates(self, worker_id: int) -> dict[int, CandidateEntry]:
        return self._table.get(worker_id, {})

    def workers_with_candidates(self) -> list[int]:
        """Worker ids with at least one candidate, in table order.

        Rebuilt only when a row transitions between empty and non-empty
        (rare), so repeated calls within a selection step are O(1).
        """
        cache = self._workers_cache
        if cache is None:
            cache = [w for w in self._table if w in self._nonempty]
            self._workers_cache = cache
        return cache

    def candidate_task_ids(self) -> set[int]:
        return set(self._task_workers)

    def num_candidate_tasks(self) -> int:
        """Distinct tasks still assignable somewhere (O(1))."""
        return len(self._task_workers)

    @property
    def empty(self) -> bool:
        return not self._task_workers

    def num_pairs(self) -> int:
        return sum(len(row) for row in self._table.values())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        worker_id, task_id = pair
        return task_id in self._table.get(worker_id, {})
