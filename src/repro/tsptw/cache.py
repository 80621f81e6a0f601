"""Memoising planner wrapper.

SMORE's candidate-update loop re-plans the same (worker, task-set) pairs —
notably the base routes used by the incentive model and the current
assigned-set route after each rejection.  :class:`CachedPlanner` memoises
full plans on ``(worker identity, frozenset of sensing task ids)``, which
is sound because entities are immutable within an instance, and single
insertions on the exact base order as ``(pos, rtt)`` arrays, answered as
an :class:`~repro.tsptw.insertion.InsertionSweep`.  Keys use
``id(worker)`` rather than ``worker.worker_id`` — worker ids restart from
zero in every instance, and one cache may serve several instances at once
(multi-instance decoding interleaves planner calls across a batch of
environments sharing one planner).  Each entry stores the worker alongside
its answer so the id stays pinned for exactly the entry's lifetime.

The wrapper is feature-transparent: ``plan_with_insertion`` and
``plan_many`` are bound onto the instance *only when the wrapped backend
provides them*, so ``hasattr``/``getattr`` feature detection (as done by
:class:`~repro.smore.candidates.CandidateTable`) behaves identically with
and without the cache — including the batched ``plan_many`` path used by
RL backends.  An optional ``max_size`` turns both memo tables into bounded
LRU caches, and :meth:`stats` exposes hit/miss/size accounting as a
:class:`~repro.core.perf.PerfCounters`.
"""

from __future__ import annotations

import math
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
        tables are bounded independently).  ``None`` keeps the historical
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
        # Insertion answers as (worker, pos, rtt); see _insertions.
        self._insert_cache: OrderedDict[tuple, tuple[Worker, int, float]] = \
            OrderedDict()
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

        One table serves single queries and batched sweeps.  It stores
        each answer as ``(pos, rtt)`` (``-1``/``inf`` for a miss) under
        ``(worker identity, base order, task id, min_position)``.  The
        base order is keyed exactly, as ``(is sensing, task id)`` pairs in
        route order: a permuted base is a different route with different
        answers, and travel-task and sensing-task ids may coincide.  The
        anchored ``min_position`` is part of the key, since the same
        insertion scanned from a different committed position is a
        different plan.  ``new_tasks`` may be a
        :class:`~repro.tsptw.kernels.TaskBlock`; its misses reach the
        backend as a sub-block.
        """
        base = tuple(base_tasks)
        if isinstance(new_tasks, TaskBlock):
            ids = new_tasks.ids.tolist()
        else:
            new_tasks = list(new_tasks)
            ids = [t.task_id for t in new_tasks]
        route_key = tuple((isinstance(t, SensingTask), t.task_id)
                          for t in base)
        keys = [(id(worker), route_key, task_id, min_position)
                for task_id in ids]
        pos = [-1] * len(keys)
        rtt = [math.inf] * len(keys)
        missing = []
        for i, key in enumerate(keys):
            cached = self._lookup(self._insert_cache, key)
            if cached is None:
                missing.append(i)
            else:
                _, pos[i], rtt[i] = cached
        if missing:
            self.misses += len(missing)
            self.backend_calls += 1  # one batched call serves every miss
            tasks = new_tasks.take(missing) \
                if isinstance(new_tasks, TaskBlock) \
                else [new_tasks[i] for i in missing]
            if batched:
                results = self.planner.plan_insertions_many(
                    worker, base, tasks, min_position=min_position)
            else:
                results = [self.planner.plan_with_insertion(
                    worker, base, tasks[0], min_position=min_position)]
            fresh = InsertionSweep.from_results(worker, base, tasks,
                                                results, self.speed)
            for i, p, r in zip(missing, fresh.pos.tolist(),
                               fresh.rtt.tolist()):
                self._store(self._insert_cache, keys[i], (worker, p, r))
                pos[i], rtt[i] = p, r
            if len(missing) == len(keys):
                return fresh
        return InsertionSweep(worker, base, new_tasks,
                              np.array(pos, dtype=np.intp),
                              np.array(rtt, dtype=np.float64), self.speed)

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
        """
        return PerfCounters(
            planner_calls=self.misses,
            backend_calls=self.backend_calls,
            cache_hits=self.hits,
            cache_misses=self.misses,
            cache_size=len(self._cache) + len(self._insert_cache),
            cache_evictions=self.evictions,
        )

    def clear(self) -> None:
        self._cache.clear()
        self._insert_cache.clear()
        self.hits = 0
        self.misses = 0
        self.backend_calls = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)
