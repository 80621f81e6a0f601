"""Candidate assignment table ``C`` (Algorithm 1, step 1 and lines 15-23).

``C[w][s]`` holds, for every *feasible* sensing-task/worker pair, the
working route the TSPTW solver found after assigning ``s`` to ``w`` on top
of the worker's current assignment, and the additional incentive that
assignment would cost.  A pair is feasible iff such a route respects the
worker's time constraint and the additional incentive fits the remaining
budget (Section III-B).

Every row — at initialisation, on the selected worker's update and in
streaming repair — comes from one sweep over one planner dispatch
(:meth:`CandidateTable._plan`), the only place the table probes planner
capabilities.  It tries ``plan_insertions_many`` first (one batched call
per worker; on :class:`~repro.tsptw.InsertionSolver`, optionally behind
:class:`~repro.tsptw.cache.CachedPlanner`, this is the kernel
:func:`~repro.tsptw.kernels.sweep_insertions`, the only packed scan), then
``plan_with_insertion`` per task, then a from-scratch re-plan of the
worker's assigned tasks plus each candidate through ``plan_many`` (RL
backends) or ``plan``.  ``planner_calls`` counts one logical plan per task
on every path.  Every path answers with the same per-task arrays
(feasibility, route travel time, insertion position), so the one row
builder computes incentive deltas and the budget filter over whole
arrays and builds a :class:`CandidateEntry` only for the tasks it keeps.

Beyond the rows themselves the table maintains two incremental indices —
a task -> workers reverse map and the set of non-empty rows — so that
``remove_task``, ``workers_with_candidates``, ``candidate_task_ids`` and
the ``empty`` check cost O(affected entries) instead of rescanning every
row on every step.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

import numpy as np

from ..core.entities import SensingTask, Worker
from ..core.incentive import IncentiveModel
from ..core.route import WorkingRoute
from ..tsptw.base import RoutePlanner
from ..tsptw.insertion import InsertionSweep

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

        Each worker's base route (travel tasks only) is planned once; one
        :meth:`_sweep` then checks every sensing task against it.
        """
        self._table = {w.worker_id: {} for w in workers}
        self._task_workers = {}
        self._nonempty = set()
        self._workers_cache = None
        sensing_tasks = list(sensing_tasks)
        for worker in workers:
            base = self.planner.base_route(worker)
            self.incentives.set_base_rtt(worker, base.route_travel_time)
            if not base.feasible:
                continue  # the worker cannot even complete their own trip
            base_tasks = base.route.tasks if base.route is not None else ()
            self._commit_row(worker.worker_id, self._sweep(
                worker, base_tasks, sensing_tasks, 0.0, budget_rest,
                assigned=()))

    # ------------------------------------------------------------------ #
    # The one planner dispatch and the one row builder
    # ------------------------------------------------------------------ #
    def _plan(self, worker: Worker, route_tasks: Sequence,
              tasks: list[SensingTask], min_position: int = 0,
              assigned: Sequence[SensingTask] | None = None) -> tuple:
        """Plan each of ``tasks`` added to ``worker``'s plan, as arrays.

        Insertion planners place each task into ``route_tasks`` at or past
        ``min_position``: one batched ``plan_insertions_many`` call, else
        ``plan_with_insertion`` per task.  Other planners re-plan
        ``assigned + [task]`` from scratch (``plan_many``, else ``plan``
        per set), which can honour neither a committed prefix nor a route
        the caller did not describe: without ``assigned``, or with
        ``min_position > 0``, they raise ``TypeError``.  Every path counts
        one logical plan per task.

        Returns ``(feasible, rtt, pos, route)``: per-task arrays (``pos``
        is None for re-plans, which report no insertion position) and
        ``route(i)``, which builds task ``i``'s route on demand.
        """
        insert_many = getattr(self.planner, "plan_insertions_many", None)
        insert_one = getattr(self.planner, "plan_with_insertion", None)
        if insert_many is None and insert_one is None and (
                assigned is None or min_position > 0):
            raise TypeError(
                "anchored or incremental candidate sweeps require an "
                "insertion-capable planner (plan_insertions_many or "
                "plan_with_insertion)")
        self.planner_calls += len(tasks)
        if insert_many is not None or insert_one is not None:
            if insert_many is not None:
                results = insert_many(worker, route_tasks, tasks,
                                      min_position=min_position)
            else:
                results = [insert_one(worker, route_tasks, task,
                                      min_position=min_position)
                           for task in tasks]
            sweep = InsertionSweep.from_results(
                worker, route_tasks, tasks, results, self.planner.speed)
            return sweep.feasible, sweep.rtt, sweep.pos, sweep.route
        sets = [list(assigned) + [task] for task in tasks]
        plan_many = getattr(self.planner, "plan_many", None)
        if plan_many is not None:
            results = plan_many(worker, sets)
        else:
            results = [self.planner.plan(worker, tasks_after)
                       for tasks_after in sets]
        feasible = np.array([r.feasible for r in results], dtype=bool)
        rtt = np.array([r.route_travel_time for r in results],
                       dtype=np.float64)
        return feasible, rtt, None, lambda i: results[i].route

    def _sweep(self, worker: Worker, route_tasks: Sequence,
               tasks: Iterable[SensingTask], current_incentive: float,
               budget_rest: float, min_position: int = 0,
               assigned: Sequence[SensingTask] | None = None
               ) -> dict[int, CandidateEntry]:
        """Feasible, affordable entries for ``tasks``, keyed in task order.

        Incentive deltas and the budget filter run over whole arrays; a
        :class:`CandidateEntry` — with its route deferred to first
        access — is built only for the tasks kept.
        """
        tasks = list(tasks)
        feasible, rtt, pos, route = self._plan(worker, route_tasks, tasks,
                                               min_position, assigned)
        idx = np.flatnonzero(feasible)
        if not idx.size:
            return {}
        rtt = rtt[idx]
        delta = self.incentives.incentives(worker, rtt) - current_incentive
        # Strict >: the paper's constraint is <=, so an assignment that
        # exactly exhausts the remaining budget stays feasible.
        keep = ~(delta > budget_rest)
        idx = idx[keep]
        positions = (pos[idx].tolist() if pos is not None
                     else [None] * len(idx))
        return {tasks[i].task_id: CandidateEntry(partial(route, i), r, d, p)
                for i, r, d, p in zip(idx.tolist(), rtt[keep].tolist(),
                                      delta[keep].tolist(), positions)}

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
                         current_route_tasks: Sequence,
                         min_position: int = 0) -> None:
        """Lines 17-23: refresh the selected worker's candidate row.

        ``current_route_tasks`` — the worker's committed route order — lets
        insertion planners check each candidate by single insertion;
        planners without one re-plan ``assigned`` plus the candidate.
        ``min_position`` anchors every insertion at the worker's committed
        mid-route position (dynamic re-planning); it requires an
        insertion-capable planner, since a full re-plan cannot honour a
        committed prefix.
        """
        self._commit_row(worker.worker_id, self._sweep(
            worker, current_route_tasks, available, current_incentive,
            budget_rest, min_position, assigned))

    # ------------------------------------------------------------------ #
    # Incremental repair (streaming arrivals / expiries / re-anchoring)
    # ------------------------------------------------------------------ #
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
            for task_id, entry in self._sweep(worker, route_tasks, new_tasks,
                                              incentive, budget_rest,
                                              min_position).items():
                self._add_entry(worker.worker_id, task_id, entry)

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
        fresh = self._sweep(worker, route_tasks,
                            [tasks_by_id[task_id] for task_id in stale_ids],
                            current_incentive, budget_rest, min_position)
        for task_id in stale_ids:
            if task_id in fresh:
                row[task_id] = fresh[task_id]  # in-place: row order preserved
            else:
                self._drop_entry(worker.worker_id, task_id)
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
        self._commit_row(worker.worker_id, self._sweep(
            worker, base_tasks, tasks, 0.0, budget_rest, min_position))
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
            self._commit_row(worker.worker_id, self._sweep(
                worker, route_tasks, tasks, incentive, budget_rest,
                min_position))

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
