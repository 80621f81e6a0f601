"""Memoising planner wrapper.

SMORE's candidate-update loop re-plans the same (worker, task-set) pairs —
notably the base routes used by the incentive model and the current
assigned-set route after each rejection.  :class:`CachedPlanner` memoises
full plans on ``(worker identity, frozenset of sensing task ids)``, which
is sound because entities are immutable within an instance, and insertion
answers per swept route, as arrays answered as an
:class:`~repro.tsptw.insertion.InsertionSweep`.  Keys use ``id(worker)``
rather than ``worker.worker_id`` — worker ids restart from zero in every
instance, and one cache may serve several instances at once
(multi-instance decoding interleaves planner calls across a batch of
environments sharing one planner).  Each entry stores the worker alongside
its answer so the id stays pinned for exactly the entry's lifetime.

The insertion memo holds one entry per swept route: the key is ``(worker
identity, exact base order, min_position)`` and the value three arrays —
the task ids answered so far (ascending), their insertion positions and
their route travel times.  A sweep probes the table once and gathers its
tasks' answers with one ``searchsorted``; the tasks the entry lacks reach
the backend as one sub-sweep, and one merge adds them to the entry.  Hit,
miss and backend-call counts keep their per-task meaning: a task the
entry answers is a hit, every other task a miss, and a sweep with misses
one backend call.

The wrapper is feature-transparent: ``plan_with_insertion`` and
``plan_many`` are bound onto the instance *only when the wrapped backend
provides them*, so ``hasattr``/``getattr`` feature detection (as done by
:class:`~repro.smore.candidates.CandidateTable`) behaves identically with
and without the cache — including the batched ``plan_many`` path used by
RL backends.  An optional ``max_size`` turns both memo tables into bounded
LRU caches (the insertion table counts route entries, not tasks), and
:meth:`stats` exposes hit/miss/size accounting as a
:class:`~repro.core.perf.PerfCounters`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..core.entities import SensingTask, Worker
from ..core.perf import PerfCounters
from .base import RoutePlanner, RouteResult
from .insertion import InsertionSweep
from .kernels import TaskBlock

__all__ = ["CachedPlanner"]


class CachedPlanner:
    """Wrap any :class:`RoutePlanner` with a (optionally bounded) memo table.

    Parameters
    ----------
    planner:
        The backend to memoise.
    max_size:
        Maximum number of entries per memo table (full-plan and insertion
        tables are bounded independently; an insertion entry holds every
        answer on one swept route).  ``None`` keeps the historical
        unbounded behaviour; a bound evicts least-recently-used entries,
        which caps memory on long experiment grids.
    """

    def __init__(self, planner: RoutePlanner, max_size: int | None = None):
        self.planner = planner
        self.speed = planner.speed
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be a positive integer or None")
        self.max_size = max_size
        # Values are (worker, result): keeping the worker referenced pins
        # its id, so identity keys can never collide with a later worker
        # that happens to reuse a freed id.
        self._cache: OrderedDict[tuple[int, frozenset[int]],
                                 tuple[Worker, RouteResult]] = OrderedDict()
        # Insertion answers per swept route as (worker, ids, pos, rtt);
        # see _insertions.
        self._sweeps: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.backend_calls = 0
        self.evictions = 0
        # Bind optional-protocol methods only when the backend has them, so
        # feature detection sees exactly the backend's capabilities.
        if getattr(planner, "plan_with_insertion", None) is not None:
            self.plan_with_insertion = self._plan_with_insertion
        if getattr(planner, "plan_many", None) is not None:
            self.plan_many = self._plan_many
        if getattr(planner, "plan_insertions_many", None) is not None:
            self.plan_insertions_many = self._plan_insertions_many
        if getattr(planner, "bind_instance", None) is not None:
            self.bind_instance = planner.bind_instance

    # ------------------------------------------------------------------ #
    def _lookup(self, table: OrderedDict, key) -> tuple | None:
        cached = table.get(key)
        if cached is not None:
            self.hits += 1
            table.move_to_end(key)
        return cached

    def _store(self, table: OrderedDict, key, value: tuple) -> None:
        table[key] = value
        if self.max_size is not None and len(table) > self.max_size:
            table.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def _plan_with_insertion(self, worker: Worker, base_tasks,
                             new_task, min_position: int = 0) -> RouteResult:
        """Memoised single-task insertion (delegates to the backend)."""
        return self._insertions(worker, base_tasks, [new_task],
                                min_position, batched=False)[0]

    def _plan_insertions_many(self, worker: Worker, base_tasks,
                              new_tasks,
                              min_position: int = 0) -> InsertionSweep:
        """Memoised batched insertion: only the missing tasks reach the
        backend, in one batched call."""
        return self._insertions(worker, base_tasks, new_tasks, min_position,
                                batched=True)

    def _insertions(self, worker: Worker, base_tasks, new_tasks,
                    min_position: int, batched: bool) -> InsertionSweep:
        """The insertion memo behind both insertion entry points.

        One table serves single queries and batched sweeps.  It keys one
        entry on ``(worker identity, base order, min_position)``: the base
        order exactly, as ``(is sensing, task id)`` pairs in route order
        (a permuted base is a different route with different answers, and
        travel-task and sensing-task ids may coincide), and the anchor
        too, since the same insertion scanned from a different committed
        position is a different plan.  The entry holds ``(worker, ids,
        pos, rtt)``: the answered task ids in ascending order and each
        one's ``(pos, rtt)`` (``-1``/``inf`` for a miss).  ``new_tasks``
        may be a :class:`~repro.tsptw.kernels.TaskBlock`; its misses reach
        the backend as a sub-block.
        """
        base = tuple(base_tasks)
        if isinstance(new_tasks, TaskBlock):
            ids = new_tasks.ids
        else:
            new_tasks = list(new_tasks)
            ids = np.fromiter((t.task_id for t in new_tasks),
                              dtype=np.int64, count=len(new_tasks))
        if not len(ids):
            return InsertionSweep(worker, base, new_tasks,
                                  np.empty(0, dtype=np.intp), np.empty(0),
                                  self.speed)
        key = (id(worker),
               tuple((isinstance(t, SensingTask), t.task_id) for t in base),
               min_position)
        entry = self._sweeps.get(key)
        if entry is None:
            missing = np.arange(len(ids))
        else:
            self._sweeps.move_to_end(key)
            _, known, known_pos, known_rtt = entry
            at = np.minimum(np.searchsorted(known, ids), len(known) - 1)
            found = known[at] == ids
            pos, rtt = known_pos[at], known_rtt[at]
            missing = np.flatnonzero(~found)
            self.hits += len(ids) - len(missing)
            if not len(missing):
                return InsertionSweep(worker, base, new_tasks, pos, rtt,
                                      self.speed)
        self.misses += len(missing)
        self.backend_calls += 1  # one batched call serves every miss
        tasks = new_tasks.take(missing) \
            if isinstance(new_tasks, TaskBlock) \
            else [new_tasks[i] for i in missing.tolist()]
        if batched:
            results = self.planner.plan_insertions_many(
                worker, base, tasks, min_position=min_position)
        else:
            results = [self.planner.plan_with_insertion(
                worker, base, tasks[0], min_position=min_position)]
        fresh = InsertionSweep.from_results(worker, base, tasks, results,
                                            self.speed)
        fresh_ids = ids[missing]
        if entry is None:
            self._store(self._sweeps, key,
                        (worker, *_merged(fresh_ids, fresh.pos, fresh.rtt)))
            return fresh
        self._sweeps[key] = (worker, *_merged(
            np.concatenate((known, fresh_ids)),
            np.concatenate((known_pos, fresh.pos)),
            np.concatenate((known_rtt, fresh.rtt))))
        pos[missing] = fresh.pos
        rtt[missing] = fresh.rtt
        return InsertionSweep(worker, base, new_tasks, pos, rtt, self.speed)

    def _plan_many(self, worker: Worker,
                   task_sets: Sequence[Sequence[SensingTask]]
                   ) -> list[RouteResult]:
        """Memoised batch planning: only cache misses reach the backend."""
        keys = [(id(worker), frozenset(s.task_id for s in tasks))
                for tasks in task_sets]
        hits = [self._lookup(self._cache, key) for key in keys]
        results: list[RouteResult | None] = [
            hit[1] if hit is not None else None for hit in hits]
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            self.misses += len(missing)
            self.backend_calls += 1  # one batched call serves every miss
            fresh = self.planner.plan_many(
                worker, [task_sets[i] for i in missing])
            for i, result in zip(missing, fresh):
                self._store(self._cache, keys[i], (worker, result))
                results[i] = result
        return results  # type: ignore[return-value]

    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        key = (id(worker), frozenset(s.task_id for s in sensing_tasks))
        cached = self._lookup(self._cache, key)
        if cached is not None:
            return cached[1]
        self.misses += 1
        self.backend_calls += 1
        result = self.planner.plan(worker, sensing_tasks)
        self._store(self._cache, key, (worker, result))
        return result

    def base_route(self, worker: Worker) -> RouteResult:
        return self.plan(worker, [])

    # ------------------------------------------------------------------ #
    def stats(self) -> PerfCounters:
        """Current accounting as a :class:`PerfCounters` snapshot.

        ``planner_calls`` counts *logical* plans computed (one per cache
        miss); ``backend_calls`` counts true backend invocations, which
        on the batched ``plan_many`` path can be far fewer — one batched
        call serves every miss in the request.  Both are exposed so the
        batched path's saving is visible rather than overstated.
        ``cache_size`` counts full plans plus swept-route entries.
        """
        return PerfCounters(
            planner_calls=self.misses,
            backend_calls=self.backend_calls,
            cache_hits=self.hits,
            cache_misses=self.misses,
            cache_size=len(self._cache) + len(self._sweeps),
            cache_evictions=self.evictions,
        )

    def clear(self) -> None:
        self._cache.clear()
        self._sweeps.clear()
        self.hits = 0
        self.misses = 0
        self.backend_calls = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)


def _merged(ids: np.ndarray, pos: np.ndarray, rtt: np.ndarray) -> tuple:
    """``(ids, pos, rtt)`` sorted by id, one lane per distinct id (a sweep
    may list a task twice; both lanes hold the same answer)."""
    ids, first = np.unique(ids, return_index=True)
    return ids, pos[first], rtt[first]
