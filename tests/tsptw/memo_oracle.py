"""Insertion-memo oracle: one answer per (route, task).

:class:`PerTaskCachedPlanner` is the insertion memo the array-backed
:class:`~repro.tsptw.cache.CachedPlanner` replaced: every answer is its own
table entry keyed on ``(worker identity, exact base order, task id,
min_position)``, looked up and stored one task at a time.  The bound is
kept per route — touching any answer of a route refreshes the route, and
evicting a route drops all of its answers — so with or without
``max_size`` the array memo must reproduce the oracle's answers bitwise
and its hit, miss, backend-call and eviction counts exactly.
"""

import math
from collections import OrderedDict

import numpy as np

from repro.core.entities import SensingTask
from repro.tsptw.cache import CachedPlanner
from repro.tsptw.insertion import InsertionSweep
from repro.tsptw.kernels import TaskBlock


class PerTaskCachedPlanner(CachedPlanner):
    """:class:`CachedPlanner` with the per-task insertion memo."""

    def __init__(self, planner, max_size=None):
        super().__init__(planner, max_size=max_size)
        self._insert_cache = {}
        # Route key -> the task keys stored under it, in LRU order.
        self._routes = OrderedDict()

    def _insertions(self, worker, base_tasks, new_tasks, min_position,
                    batched):
        base = tuple(base_tasks)
        if isinstance(new_tasks, TaskBlock):
            ids = new_tasks.ids.tolist()
        else:
            new_tasks = list(new_tasks)
            ids = [t.task_id for t in new_tasks]
        route = (id(worker),
                 tuple((isinstance(t, SensingTask), t.task_id)
                       for t in base),
                 min_position)
        keys = [route + (task_id,) for task_id in ids]
        pos = [-1] * len(keys)
        rtt = [math.inf] * len(keys)
        missing = []
        for i, key in enumerate(keys):
            cached = self._insert_cache.get(key)
            if cached is None:
                missing.append(i)
            else:
                self.hits += 1
                _, pos[i], rtt[i] = cached
        if keys and route in self._routes:
            self._routes.move_to_end(route)
        if missing:
            self.misses += len(missing)
            self.backend_calls += 1
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
            stored = self._routes.setdefault(route, set())
            for i, p, r in zip(missing, fresh.pos.tolist(),
                               fresh.rtt.tolist()):
                self._insert_cache[keys[i]] = (worker, p, r)
                stored.add(keys[i])
                pos[i], rtt[i] = p, r
            if self.max_size is not None \
                    and len(self._routes) > self.max_size:
                _, dropped = self._routes.popitem(last=False)
                for key in dropped:
                    del self._insert_cache[key]
                self.evictions += 1
        return InsertionSweep(worker, base, new_tasks,
                              np.array(pos, dtype=np.intp),
                              np.array(rtt, dtype=np.float64), self.speed)
