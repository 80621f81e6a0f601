"""Memoising planner wrapper.

SMORE's candidate-update loop re-plans the same (worker, task-set) pairs —
notably the base routes used by the incentive model and the current
assigned-set route after each rejection.  :class:`CachedPlanner` memoises
them per instance: :meth:`CachedPlanner.bind_instance` answers with the
instance's :class:`InstanceMemo`, which the instance keeps
(:func:`~repro.tsptw.base.instance_binding`) and which dies with it.
Worker ids restart in every instance, but each instance has its own memo,
so within it a worker is its ``worker_id``: full plans are keyed on
``(worker_id, frozenset of sensing task ids)`` — sound because entities
are immutable within an instance.  Planning goes through a memo: the
wrapper itself only binds instances and keeps the counts.

The insertion memo holds one entry per swept route: the key is
``(worker_id, exact base order, min_position)`` and the value three arrays
— the task ids answered so far (ascending), their insertion positions and
their route travel times.  A sweep probes the table once and gathers its
tasks' answers with one ``searchsorted``; the tasks the entry lacks reach
the backend as one sub-sweep, and one merge adds them to the entry.  A
task the entry answers is a hit, every other task a miss, and a sweep
with misses one backend call; the counts are the wrapper's, summed over
the instances it serves.

A memo is feature-transparent: ``plan_with_insertion``, ``plan_many`` and
``plan_insertions_many`` exist on it *only when the wrapped backend
provides them*, so ``hasattr``/``getattr`` feature detection (as done by
:class:`~repro.smore.candidates.CandidateTable`) behaves identically with
and without the cache — including the batched ``plan_many`` path used by
RL backends.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from ..core.entities import SensingTask, Worker
from ..core.perf import PerfCounters
from .base import RoutePlanner, RouteResult, bind, instance_binding
from .insertion import InsertionSweep
from .kernels import TaskBlock

__all__ = ["CachedPlanner", "InstanceMemo"]


class CachedPlanner:
    """Wrap any :class:`RoutePlanner` with a per-instance memo.

    Parameters
    ----------
    planner:
        The backend to memoise.
    """

    def __init__(self, planner: RoutePlanner):
        self.planner = planner
        self.speed = planner.speed
        self.hits = self.misses = self.backend_calls = 0
        # Full plans plus swept-route entries over the live memos, which
        # are held weakly (for clear()) so each lives as long as its
        # instance.
        self.entries = 0
        self._memos: weakref.WeakSet = weakref.WeakSet()

    def bind_instance(self, instance) -> "InstanceMemo":
        """The memo of ``instance`` (created on first use, kept on it)."""
        return instance_binding(instance, self, lambda: InstanceMemo(
            self, bind(self.planner, instance)))

    def _forget(self, plans: dict, sweeps: dict) -> None:
        """A memo died: its entries leave the count."""
        self.entries -= len(plans) + len(sweeps)

    def __getstate__(self):
        """The backend and the counts; memos stay with their instances."""
        return {**self.__dict__, "entries": 0, "_memos": None}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, _memos=weakref.WeakSet())

    # ------------------------------------------------------------------ #
    def stats(self) -> PerfCounters:
        """Current accounting as a :class:`PerfCounters` snapshot.

        ``planner_calls`` counts *logical* plans computed (one per cache
        miss); ``backend_calls`` counts true backend invocations, which
        on the batched ``plan_many`` path can be far fewer — one batched
        call serves every miss in the request.  Both are exposed so the
        batched path's saving is visible rather than overstated.
        ``cache_size`` counts full plans plus swept-route entries over
        the memos of live instances, kept as a running count.
        """
        return PerfCounters(
            planner_calls=self.misses,
            backend_calls=self.backend_calls,
            cache_hits=self.hits,
            cache_misses=self.misses,
            cache_size=self.entries,
        )

    def clear(self) -> None:
        """Empty every live memo and zero the counters."""
        for memo in self._memos:
            memo.clear()
        self.hits = self.misses = self.backend_calls = 0


class InstanceMemo:
    """One instance's memo tables behind a :class:`CachedPlanner`.

    ``backend`` is the wrapped planner bound to the same instance; misses
    reach it, and hit/miss/backend-call counts go to ``cached``.
    """

    def __init__(self, cached: CachedPlanner, backend):
        self.cached = cached
        self.backend = backend
        self.speed = cached.speed
        self._plans: dict[tuple[int, frozenset[int]], RouteResult] = {}
        # (ids, pos, rtt) per swept route; see _insertions.
        self._sweeps: dict[tuple, tuple] = {}
        cached._memos.add(self)
        weakref.finalize(self, cached._forget, self._plans, self._sweeps)
        if getattr(backend, "plan_with_insertion", None) is not None:
            self.plan_with_insertion = self._plan_with_insertion
        if getattr(backend, "plan_many", None) is not None:
            self.plan_many = self._plan_many
        if getattr(backend, "plan_insertions_many", None) is not None:
            self.plan_insertions_many = self._plan_insertions_many

    def __len__(self) -> int:
        return len(self._plans) + len(self._sweeps)

    def clear(self) -> None:
        self.cached.entries -= len(self)
        self._plans.clear()
        self._sweeps.clear()

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
        entry on ``(worker_id, base order, min_position)``: the base order
        exactly, as ``(is sensing, task id)`` pairs in route order (a
        permuted base is a different route with different answers, and
        travel-task and sensing-task ids may coincide), and the anchor
        too, since the same insertion scanned from a different committed
        position is a different plan.  The entry holds ``(ids, pos,
        rtt)``: the answered task ids in ascending order and each one's
        ``(pos, rtt)`` (``-1``/``inf`` for a miss).  ``new_tasks`` may be
        a :class:`~repro.tsptw.kernels.TaskBlock`; its misses reach the
        backend as a sub-block.
        """
        cached = self.cached
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
        key = (worker.worker_id,
               tuple((isinstance(t, SensingTask), t.task_id) for t in base),
               min_position)
        entry = self._sweeps.get(key)
        if entry is None:
            missing = np.arange(len(ids))
        else:
            known, known_pos, known_rtt = entry
            at = np.minimum(np.searchsorted(known, ids), len(known) - 1)
            found = known[at] == ids
            pos, rtt = known_pos[at], known_rtt[at]
            missing = np.flatnonzero(~found)
            cached.hits += len(ids) - len(missing)
            if not len(missing):
                return InsertionSweep(worker, base, new_tasks, pos, rtt,
                                      self.speed)
        cached.misses += len(missing)
        cached.backend_calls += 1  # one batched call serves every miss
        tasks = new_tasks.take(missing) \
            if isinstance(new_tasks, TaskBlock) \
            else [new_tasks[i] for i in missing.tolist()]
        if batched:
            results = self.backend.plan_insertions_many(
                worker, base, tasks, min_position=min_position)
        else:
            results = [self.backend.plan_with_insertion(
                worker, base, tasks[0], min_position=min_position)]
        fresh = InsertionSweep.from_results(worker, base, tasks, results,
                                            self.speed)
        fresh_ids = ids[missing]
        if entry is None:
            self._sweeps[key] = _merged(fresh_ids, fresh.pos, fresh.rtt)
            cached.entries += 1
            return fresh
        self._sweeps[key] = _merged(
            np.concatenate((known, fresh_ids)),
            np.concatenate((known_pos, fresh.pos)),
            np.concatenate((known_rtt, fresh.rtt)))
        pos[missing] = fresh.pos
        rtt[missing] = fresh.rtt
        return InsertionSweep(worker, base, new_tasks, pos, rtt, self.speed)

    def _plan_many(self, worker: Worker,
                   task_sets: Sequence[Sequence[SensingTask]]
                   ) -> list[RouteResult]:
        """Memoised batch planning: only cache misses reach the backend."""
        cached = self.cached
        keys = [(worker.worker_id, frozenset(s.task_id for s in tasks))
                for tasks in task_sets]
        results: list[RouteResult | None] = [self._plans.get(key)
                                             for key in keys]
        missing = [i for i, r in enumerate(results) if r is None]
        cached.hits += len(keys) - len(missing)
        if missing:
            cached.misses += len(missing)
            cached.backend_calls += 1  # one batched call serves every miss
            fresh = self.backend.plan_many(
                worker, [task_sets[i] for i in missing])
            stored = len(self._plans)
            for i, result in zip(missing, fresh):
                self._plans[keys[i]] = result
                results[i] = result
            cached.entries += len(self._plans) - stored
        return results  # type: ignore[return-value]

    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        cached = self.cached
        key = (worker.worker_id, frozenset(s.task_id for s in sensing_tasks))
        result = self._plans.get(key)
        if result is not None:
            cached.hits += 1
            return result
        cached.misses += 1
        cached.backend_calls += 1
        result = self._plans[key] = self.backend.plan(worker, sensing_tasks)
        cached.entries += 1
        return result

    def base_route(self, worker: Worker) -> RouteResult:
        return self.plan(worker, [])


def _merged(ids: np.ndarray, pos: np.ndarray, rtt: np.ndarray) -> tuple:
    """``(ids, pos, rtt)`` sorted by id, one lane per distinct id (a sweep
    may list a task twice; both lanes hold the same answer)."""
    ids, first = np.unique(ids, return_index=True)
    return ids, pos[first], rtt[first]
