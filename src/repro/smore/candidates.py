"""Candidate assignment table ``C`` (Algorithm 1, step 1 and lines 15-23).

``C[w][s]`` records, for every *feasible* sensing-task/worker pair, the
route travel time after assigning ``s`` to ``w`` on top of the worker's
current assignment and the additional incentive that assignment would
cost.  A pair is feasible iff such a route respects the worker's time
constraint and the additional incentive fits the remaining budget
(Section III-B).

The table is a set of dense planes over rows (the instance's workers, in
instance order) and columns (its sensing tasks, in ascending ``task_id``):
a bool :attr:`~CandidateTable.mask` of live pairs and the
``delta_incentive``, ``rtt`` and ``pos`` (insertion position, ``-1`` when
the planner reports none) planes beside it.  Values under a cleared mask
bit are stale and never read.  A selected or expired task clears a
column (and its bit in :attr:`~CandidateTable.pool`, the columns still
available, whose sweep refreshes the selected worker's row), the budget
filter is one comparison over the ``delta_incentive`` plane, and a
snapshot copy is five array copies.  :attr:`~CandidateTable.bins` holds
each column's coverage bins, which the decode loops score from.
:attr:`order` lists the rows in table order — the workers the table was
built over, then late workers in arrival order — which the greedy rules'
cross-row tie-break and the flat policy's pair order observe.

Every row — at initialisation, on the selected worker's update and at a
streaming epoch (:meth:`~repro.smore.dynamic.DynamicSelectionEnv.advance`
sweeps arrivals and late workers through :meth:`recompute_worker`) —
comes from one sweep over one planner dispatch
(:meth:`CandidateTable._plan`), the only place the table probes planner
capabilities.  It tries ``plan_insertions_many`` first (one batched call
per worker; on :class:`~repro.tsptw.InsertionSolver`, optionally behind
:class:`~repro.tsptw.cache.CachedPlanner`, this is the kernel
:func:`~repro.tsptw.kernels.sweep_insertions`, the only packed scan), then
``plan_with_insertion`` per task, then a from-scratch re-plan of the
worker's assigned tasks plus each candidate through ``plan_many`` (RL
backends) or ``plan``.  ``planner_calls`` counts one logical plan per task
on every path.  Every path answers with the same per-task arrays
(feasibility, route travel time, insertion position), from which the row
writer computes incentive deltas and the budget filter.

No route is stored per pair.  A row keeps what it was swept from — the
worker's route order for insertion planners, the kept re-planned routes
otherwise — and :meth:`CandidateTable.route` builds the one route the
environment applies.
"""

from __future__ import annotations

import copy
from typing import Iterable, Sequence

import numpy as np

from ..core.coverage import CoverageModel
from ..core.entities import SensingTask, Worker
from ..core.incentive import IncentiveModel
from ..core.route import WorkingRoute
from ..tsptw.base import RoutePlanner
from ..tsptw.insertion import InsertionSweep
from ..tsptw.kernels import TaskBlock

__all__ = ["CandidateTable"]


class CandidateTable:
    """Feasible sensing-task/worker assignment pairs as dense planes.

    ``workers`` and ``tasks`` fix the row and column universe (every
    worker and sensing task that may ever hold a candidate); the sweeps
    fill rows of it.  With a ``coverage`` model, :attr:`bins` holds the
    columns' coverage bins (:meth:`CoverageModel.bins`), which the decode
    loops hand to :meth:`CoverageState.gain_many`.
    """

    def __init__(self, planner: RoutePlanner, incentives: IncentiveModel,
                 workers: Sequence[Worker], tasks: Sequence[SensingTask],
                 coverage: CoverageModel | None = None):
        self.planner = planner
        self.incentives = incentives
        self.workers = tuple(workers)
        self.tasks = tuple(sorted(tasks, key=lambda t: t.task_id))
        self.task_ids = np.array([t.task_id for t in self.tasks],
                                 dtype=np.int64)
        self.row_of = {w.worker_id: r for r, w in enumerate(self.workers)}
        self.col_of = {t.task_id: c for c, t in enumerate(self.tasks)}
        self.bins = coverage.bins(self.tasks) if coverage is not None \
            else None
        # The columns' task block, built on the first batched sweep;
        # sweeps hand the planner lanes of it.
        self._block: TaskBlock | None = None
        shape = (len(self.workers), len(self.tasks))
        self.mask = np.zeros(shape, dtype=bool)
        self.delta_incentive = np.zeros(shape)
        self.rtt = np.zeros(shape)
        self.pos = np.full(shape, -1, dtype=np.intp)
        # Columns of the availability pool: swept in, cleared once a task
        # is selected or expires.  Sweeps of the pool take its columns.
        self.pool = np.zeros(len(self.tasks), dtype=bool)
        self.order: list[int] = []
        # Per row, what route() builds from: the swept route order (a
        # tuple) or the kept re-planned routes ({col: WorkingRoute}).
        self._sources: list = [None] * len(self.workers)
        self.planner_calls = 0

    # ------------------------------------------------------------------ #
    def initialize(self, workers: Sequence[Worker],
                   sensing_tasks: Sequence[SensingTask],
                   budget_rest: float) -> None:
        """Algorithm 1 lines 4-9: try every (worker, task) pair.

        Each worker's base route (travel tasks only) is planned once; one
        :meth:`_sweep` then checks every sensing task against it.
        """
        cols = self._cols(sensing_tasks)
        self.mask[:] = False
        self.pool[:] = False
        self.pool[cols] = True
        self._sources = [None] * len(self.workers)
        self.order = [self.row_of[w.worker_id] for w in workers]
        for worker in workers:
            base = self.planner.base_route(worker)
            self.incentives.set_base_rtt(worker, base.route_travel_time)
            if not base.feasible:
                continue  # the worker cannot even complete their own trip
            base_tasks = base.route.tasks if base.route is not None else ()
            self._write(worker, self._sweep(
                worker, base_tasks, cols, 0.0, budget_rest, assigned=()))

    def _cols(self, tasks: Iterable[SensingTask]) -> np.ndarray:
        """The columns of ``tasks``, in order."""
        col_of = self.col_of
        return np.fromiter((col_of[t.task_id] for t in tasks),
                           dtype=np.intp)

    # ------------------------------------------------------------------ #
    # The one planner dispatch and the one row writer
    # ------------------------------------------------------------------ #
    def _plan(self, worker: Worker, route_tasks: Sequence,
              cols: np.ndarray, min_position: int = 0,
              assigned: Sequence[SensingTask] | None = None) -> tuple:
        """Plan each task of columns ``cols`` added to ``worker``'s plan,
        as arrays.

        Insertion planners place each task into ``route_tasks`` at or past
        ``min_position``: one batched ``plan_insertions_many`` call over
        the columns' :class:`~repro.tsptw.kernels.TaskBlock`, else
        ``plan_with_insertion`` per task.  Other planners re-plan
        ``assigned + [task]`` from scratch (``plan_many``, else ``plan``
        per set), which can honour neither a committed prefix nor a route
        the caller did not describe: without ``assigned``, or with
        ``min_position > 0``, they raise ``TypeError``.  Every path counts
        one logical plan per task.

        Returns ``(feasible, rtt, pos, source)``: per-task arrays (``pos``
        is None for re-plans, which report no insertion position) and
        what the routes are built from — the swept route order, or the
        re-plan results.
        """
        insert_many = getattr(self.planner, "plan_insertions_many", None)
        insert_one = getattr(self.planner, "plan_with_insertion", None)
        if insert_many is None and insert_one is None and (
                assigned is None or min_position > 0):
            raise TypeError(
                "anchored sweeps, and sweeps without the assigned tasks, "
                "require an "
                "insertion-capable planner (plan_insertions_many or "
                "plan_with_insertion)")
        self.planner_calls += len(cols)
        if insert_many is not None:
            if self._block is None:
                self._block = TaskBlock.from_tasks(self.tasks)
            tasks = self._block.take(cols)
            results = insert_many(worker, route_tasks, tasks,
                                  min_position=min_position)
        else:
            tasks = [self.tasks[c] for c in cols.tolist()]
            if insert_one is None:
                sets = [list(assigned) + [task] for task in tasks]
                plan_many = getattr(self.planner, "plan_many", None)
                if plan_many is not None:
                    results = plan_many(worker, sets)
                else:
                    results = [self.planner.plan(worker, tasks_after)
                               for tasks_after in sets]
                feasible = np.array([r.feasible for r in results],
                                    dtype=bool)
                rtt = np.array([r.route_travel_time for r in results],
                               dtype=np.float64)
                return feasible, rtt, None, results
            results = [insert_one(worker, route_tasks, task,
                                  min_position=min_position)
                       for task in tasks]
        sweep = InsertionSweep.from_results(
            worker, route_tasks, tasks, results, self.planner.speed)
        return sweep.feasible, sweep.rtt, sweep.pos, sweep.base

    def _sweep(self, worker: Worker, route_tasks: Sequence,
               cols: np.ndarray, current_incentive: float,
               budget_rest: float, min_position: int = 0,
               assigned: Sequence[SensingTask] | None = None) -> tuple:
        """Feasible, affordable pairs among columns ``cols``, as row
        arrays.

        Returns ``(cols, rtt, delta, pos, source)`` over the kept tasks;
        incentive deltas and the budget filter run over whole arrays.
        """
        feasible, rtt, pos, source = self._plan(
            worker, route_tasks, cols, min_position, assigned)
        idx = np.flatnonzero(feasible)
        if idx.size:
            rtt = rtt[idx]
            delta = self.incentives.incentives(worker, rtt) \
                - current_incentive
            # Strict >: the paper's constraint is <=, so an assignment
            # that exactly exhausts the remaining budget stays feasible.
            keep = ~(delta > budget_rest)
            idx, rtt, delta = idx[keep], rtt[keep], delta[keep]
        else:
            delta = rtt = np.empty(0)
        kept = cols[idx]
        if pos is not None:
            return kept, rtt, delta, pos[idx], source
        return kept, rtt, delta, None, {
            col: source[i].route
            for col, i in zip(kept.tolist(), idx.tolist())}

    def _write(self, worker: Worker, swept: tuple) -> None:
        """Replace the worker's row with a sweep's pairs."""
        cols, rtt, delta, pos, source = swept
        r = self.row_of[worker.worker_id]
        self.mask[r] = False
        self.mask[r, cols] = True
        self.rtt[r, cols] = rtt
        self.delta_incentive[r, cols] = delta
        self.pos[r, cols] = -1 if pos is None else pos
        self._sources[r] = source

    # ------------------------------------------------------------------ #
    def copy(self) -> "CandidateTable":
        """Array copy for snapshot reuse.

        The planes, the pool and the order are copied; the row universe,
        the column bins and the per-row route sources are immutable and
        shared.  ``planner_calls`` carries over so the copy still reports
        the cost of building the table it restores — no new planner calls
        are issued by the copy itself.
        """
        clone = copy.copy(self)
        for name in ("mask", "delta_incentive", "rtt", "pos", "pool"):
            setattr(clone, name, getattr(self, name).copy())
        clone.order = list(self.order)
        clone._sources = list(self._sources)
        return clone

    def remove_task(self, task_id: int) -> None:
        """Line 16: drop a completed task from every worker's candidates
        (clears its column) and from the pool."""
        col = self.col_of[task_id]
        self.mask[:, col] = False
        self.pool[col] = False

    def recompute_worker(self, worker: Worker,
                         assigned: Sequence[SensingTask] | None,
                         available: Iterable[SensingTask] | np.ndarray,
                         current_incentive: float,
                         budget_rest: float,
                         current_route_tasks: Sequence,
                         min_position: int = 0) -> None:
        """Lines 17-23: refresh the selected worker's candidate row.

        ``available`` is the tasks to sweep, or their columns as an
        integer array (the environment passes the pool's,
        ``np.flatnonzero(table.pool)``); the row is replaced by the
        sweep's pairs.  ``current_route_tasks`` — the worker's committed
        route order — lets insertion planners check each candidate by
        single insertion; planners without one re-plan ``assigned`` plus
        the candidate.  ``min_position`` anchors every insertion at the
        worker's committed mid-route position (dynamic re-planning); it,
        like ``assigned=None`` (the streaming epoch sweep), requires an
        insertion-capable planner, since a full re-plan cannot honour a
        committed prefix.
        """
        cols = available if isinstance(available, np.ndarray) \
            else self._cols(available)
        self._write(worker, self._sweep(
            worker, current_route_tasks, cols, current_incentive,
            budget_rest, min_position, assigned))

    def prune_over_budget(self, budget_rest: float) -> None:
        """Drop pairs whose marginal cost no longer fits the budget.

        Needed after *any* selection: spending budget on worker A can make
        a previously feasible pair of worker B unaffordable.
        """
        self.mask &= ~(self.delta_incentive > budget_rest)

    # ------------------------------------------------------------------ #
    def route(self, row: int, col: int) -> WorkingRoute:
        """The working route of pair ``(row, col)`` after assignment."""
        source = self._sources[row]
        if isinstance(source, dict):
            return source[col]
        p = int(self.pos[row, col])
        tasks = source[:p] + (self.tasks[col],) + source[p:]
        return WorkingRoute(self.workers[row], tasks,
                            speed=self.planner.speed)

    def live_rows(self) -> np.ndarray:
        """Rows holding at least one candidate, in table order."""
        rows = np.asarray(self.order, dtype=np.intp)
        return rows[self.mask[rows].any(axis=1)]

    @property
    def empty(self) -> bool:
        return not self.mask.any()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        worker_id, task_id = pair
        r = self.row_of.get(worker_id)
        c = self.col_of.get(task_id)
        return r is not None and c is not None and bool(self.mask[r, c])
