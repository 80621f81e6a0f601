"""Insertion-memo oracle: one answer per (route, task).

:class:`PerTaskMemo` is the insertion memo the array-backed
:class:`~repro.tsptw.cache.InstanceMemo` replaced: every answer is its own
table entry keyed on ``(worker_id, exact base order, task id,
min_position)``, looked up and stored one task at a time.  The array memo
must reproduce the oracle's answers bitwise and its hit, miss and
backend-call counts exactly.  :class:`PerTaskCachedPlanner` binds
instances to it the way :class:`~repro.tsptw.cache.CachedPlanner` binds
them to the array memo, so both memos live exactly as long as their
instance.
"""

import math

import numpy as np

from repro.core.entities import SensingTask
from repro.tsptw.base import bind, instance_binding
from repro.tsptw.cache import CachedPlanner, InstanceMemo
from repro.tsptw.insertion import InsertionSweep
from repro.tsptw.kernels import TaskBlock


class PerTaskCachedPlanner(CachedPlanner):
    """:class:`CachedPlanner` whose instances get a :class:`PerTaskMemo`."""

    def bind_instance(self, instance):
        return instance_binding(instance, self, lambda: PerTaskMemo(
            self, bind(self.planner, instance)))


class PerTaskMemo(InstanceMemo):
    """:class:`InstanceMemo` with the per-task insertion memo."""

    def __init__(self, cached, backend):
        super().__init__(cached, backend)
        self._insert_cache = {}

    def _insertions(self, worker, base_tasks, new_tasks, min_position,
                    batched):
        cached = self.cached
        base = tuple(base_tasks)
        if isinstance(new_tasks, TaskBlock):
            ids = new_tasks.ids.tolist()
        else:
            new_tasks = list(new_tasks)
            ids = [t.task_id for t in new_tasks]
        route = (worker.worker_id,
                 tuple((isinstance(t, SensingTask), t.task_id)
                       for t in base),
                 min_position)
        keys = [route + (task_id,) for task_id in ids]
        pos = [-1] * len(keys)
        rtt = [math.inf] * len(keys)
        missing = []
        for i, key in enumerate(keys):
            found = self._insert_cache.get(key)
            if found is None:
                missing.append(i)
            else:
                cached.hits += 1
                pos[i], rtt[i] = found
        if missing:
            cached.misses += len(missing)
            cached.backend_calls += 1
            tasks = new_tasks.take(missing) \
                if isinstance(new_tasks, TaskBlock) \
                else [new_tasks[i] for i in missing]
            if batched:
                results = self.backend.plan_insertions_many(
                    worker, base, tasks, min_position=min_position)
            else:
                results = [self.backend.plan_with_insertion(
                    worker, base, tasks[0], min_position=min_position)]
            fresh = InsertionSweep.from_results(worker, base, tasks,
                                                results, self.speed)
            for i, p, r in zip(missing, fresh.pos.tolist(),
                               fresh.rtt.tolist()):
                self._insert_cache[keys[i]] = (p, r)
                pos[i], rtt[i] = p, r
        return InsertionSweep(worker, base, new_tasks,
                              np.array(pos, dtype=np.intp),
                              np.array(rtt, dtype=np.float64), self.speed)
