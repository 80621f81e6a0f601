"""Vectorized route kernels over packed instance arrays.

The hot loops of the insertion planner re-simulate Python object routes
stop-by-stop.  This module packs one route into flat numpy arrays
(:func:`pack_route`), the candidate tasks into a :class:`TaskBlock`, and
provides:

* :func:`sweep_insertions` — the batched kernel: all |route|+1 positions x
  all tasks of a block scored in one lock-step vectorized sweep, with
  slack-pruned task rows skipped entirely;
* :func:`nearest_neighbor_order_packed` — matrix-backed NN construction.

Bit-identity contract (the test suite keeps the object path as the planner
oracle): every observable float is produced by the same IEEE operation
sequence the object path executes.  Distances come from
:func:`~repro.core.geometry.hypot_array`, a bitwise port of ``math.hypot``:
through the cached matrix rows of
:class:`~repro.core.packed.PackedInstance` when the route and the block
sit in one packed view, else in one kernel call over the route points x
the block's coordinates.  The vectorized sweep advances each insertion
position as an independent lane, so per-lane accumulation order matches
the scalar scan exactly; ``np.argmin`` keeps the first minimum, matching
the scan's strict-``<`` tie-breaking.  The backward slack array is *only*
used to prune positions that are infeasible by more than
:data:`SLACK_MARGIN` — far above the ~1e-11 float drift a backward
recursion can accumulate — so pruning never changes a verdict; exact
verdicts always come from forward propagation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.entities import SensingTask, Worker
from ..core.geometry import Location, hypot_array
from ..core.packed import PackedInstance

__all__ = ["RoutePack", "TaskBlock", "pack_route", "sweep_insertions",
           "nearest_neighbor_order_packed", "SLACK_MARGIN"]

_INF = float("inf")

#: Safety margin for slack-based pruning.  The backward latest-arrival
#: recursion is mathematically exact but accumulates ~1 ulp per stop of
#: float error (<1e-11 at route scale); pruning only positions that exceed
#: the slack bound by more than this margin keeps pruning sound, so it can
#: never flip a feasibility verdict relative to forward propagation.
SLACK_MARGIN = 1e-6


class TaskBlock:
    """Sensing tasks as arrays, one lane per task: what a sweep reads.

    ``ids`` holds the task ids; ``data`` stacks one float row per field
    (:attr:`x`, :attr:`y`, :attr:`tw_start`, :attr:`tw_end`,
    :attr:`service`, :attr:`latest_start`), so :meth:`take` is one gather.
    ``latest_start`` is ``tw_end - service``, the expression of
    :attr:`SensingTask.latest_start`.  A block built from task objects
    keeps them for :meth:`__getitem__` (``tasks[lanes[i]]``, so that
    :meth:`take` copies no objects); a block without them (one that
    crossed a process boundary as arrays) rebuilds equal tasks on demand.
    """

    __slots__ = ("ids", "data", "_tasks", "_lanes")

    def __init__(self, ids: np.ndarray, data: np.ndarray,
                 tasks: tuple | None = None,
                 lanes: np.ndarray | None = None):
        self.ids = ids
        self.data = data
        self._tasks = tasks
        self._lanes = lanes

    @classmethod
    def from_tasks(cls, tasks: Sequence[SensingTask]) -> "TaskBlock":
        """The block of ``tasks``, in order."""
        tasks = tuple(tasks)
        ids = np.fromiter((t.task_id for t in tasks), dtype=np.int64,
                          count=len(tasks))
        data = np.empty((6, len(tasks)))
        data[:5] = np.array(
            [(t.location.x, t.location.y, t.tw_start, t.tw_end,
              t.service_time) for t in tasks], dtype=np.float64,
        ).reshape(len(tasks), 5).T
        np.subtract(data[3], data[4], out=data[5])
        return cls(ids, data, tasks, np.arange(len(tasks)))

    def take(self, idx) -> "TaskBlock":
        """The sub-block of lanes ``idx`` (positions into this block)."""
        idx = np.asarray(idx, dtype=np.intp)
        lanes = None if self._tasks is None else self._lanes[idx]
        return TaskBlock(self.ids[idx], self.data[:, idx], self._tasks,
                         lanes)

    x = property(lambda self: self.data[0])
    y = property(lambda self: self.data[1])
    tw_start = property(lambda self: self.data[2])
    tw_end = property(lambda self: self.data[3])
    service = property(lambda self: self.data[4])
    latest_start = property(lambda self: self.data[5])

    def distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(len(xs), len(self))`` meters from points ``(xs, ys)`` to each
        task, in one :func:`~repro.core.geometry.hypot_array` call."""
        return hypot_array(self.x[None, :] - xs[:, None],
                           self.y[None, :] - ys[:, None])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> SensingTask:
        if self._tasks is not None:
            return self._tasks[self._lanes[i]]
        x, y, tw_start, tw_end, service, _ = self.data[:, i].tolist()
        return SensingTask(int(self.ids[i]), Location(x, y), tw_start,
                           tw_end, service)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getstate__(self):
        # Arrays only: task objects are rebuilt on demand.
        return (self.ids, self.data)

    def __setstate__(self, state):
        self.ids, self.data = state
        self._tasks = self._lanes = None


class RoutePack:
    """Flat-array view of one (worker, task order) pair.

    ``locs[0]`` is the origin, ``locs[1..n]`` the stops, ``locs[n+1]`` the
    destination; ``tw0``/``ls``/``svc``/``sensing`` are per-stop lists
    (``-inf``/``inf`` windows for travel tasks).  ``seg[j]`` is the
    travel time into stop ``j`` (from ``locs[j]``); ``seg[n]`` is the
    destination leg.  ``prefix[p]`` is the clock after completing
    ``tasks[:p]``; ``valid`` counts usable prefixes (the scan stops at
    the first window violation, like the object path).
    ``slack[p]`` is the latest arrival time at stop ``p`` (``p == n``: at
    the destination) from which the remaining route can still finish.
    When every route point sits in ``packed``, ``loc_rows`` holds their
    location ids and ``dist_rows`` their cached matrix rows (the missing
    ones built in one call); otherwise both are None and distances come
    from the points' coordinates.
    """

    __slots__ = ("worker", "tasks", "n", "speed", "packed", "loc_rows",
                 "dist_rows", "locs", "tw0", "ls", "svc", "sensing", "seg",
                 "prefix", "valid", "slack", "departure", "latest_thr")

    def __init__(self, worker: Worker, tasks: Sequence, speed: float,
                 packed: PackedInstance | None):
        n = len(tasks)
        self.worker = worker
        self.tasks = list(tasks)
        self.n = n
        self.speed = speed
        self.packed = packed
        self.departure = worker.earliest_departure
        # Same expression as the scan's final check (latest + 1e-9).
        self.latest_thr = worker.latest_arrival + 1e-9

        # Per-stop windows as Python floats: the loops below and the
        # sweep's lane loop read them one stop at a time.
        sensing = [isinstance(task, SensingTask) for task in tasks]
        tw0 = [task.tw_start if is_s else -_INF
               for task, is_s in zip(tasks, sensing)]
        ls = [task.latest_start if is_s else _INF
              for task, is_s in zip(tasks, sensing)]
        svc = [task.service_time for task in tasks]
        self.tw0, self.ls, self.svc, self.sensing = tw0, ls, svc, sensing

        locs = [worker.origin] + [t.location for t in tasks] \
            + [worker.destination]
        self.locs = locs
        rows: list[int] | None = None
        if packed is not None:
            rows = [packed.loc_id(l) for l in locs]
            if min(rows) < 0:
                rows = None
        self.loc_rows = rows

        # seg[j] = travel time locs[j] -> locs[j+1]; same hypot + divide
        # the object path performs per hop.
        if rows is not None:
            self.dist_rows = packed.rows(rows)
            ds = np.fromiter(
                (self.dist_rows[j][rows[j + 1]] for j in range(n + 1)),
                dtype=np.float64, count=n + 1)
        else:
            self.dist_rows = None
            xs, ys = self.points()
            ds = hypot_array(np.diff(xs), np.diff(ys))
        self.seg = ds / speed
        seg = self.seg.tolist()

        # Forward earliest-completion prefixes (the object scan's prefix
        # list), truncated at the first violation.
        prefix = np.empty(n + 1)
        prefix[0] = self.departure
        clock = self.departure
        valid = n + 1
        for j in range(n):
            clock = clock + seg[j]
            if sensing[j]:
                if clock < tw0[j]:
                    clock = tw0[j]
                elif clock > ls[j]:
                    valid = j + 1
                    break
            clock = clock + svc[j]
            prefix[j + 1] = clock
        self.prefix = prefix
        self.valid = valid

        # Backward latest-arrival slack: slack[j] is the latest arrival at
        # stop j keeping stops j..n-1 and the destination leg feasible
        # (waiting for a window to open can only help, which the min/-inf
        # cases encode).  slack[n] is the destination deadline itself.
        slack = np.empty(n + 1)
        slack[n] = self.latest_thr
        for j in range(n - 1, -1, -1):
            bound = slack[j + 1] - seg[j + 1] - svc[j]
            if sensing[j]:
                if tw0[j] > bound:
                    slack[j] = -_INF
                else:
                    slack[j] = min(ls[j], bound)
            else:
                slack[j] = bound
        self.slack = slack

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of ``locs``: origin, stops, destination."""
        pts = np.array([(l.x, l.y) for l in self.locs], dtype=np.float64)
        return pts[:, 0], pts[:, 1]


def pack_route(worker: Worker, tasks: Sequence, speed: float,
               packed: PackedInstance | None = None) -> RoutePack:
    """Pack one route's geometry and timing arrays (O(n))."""
    return RoutePack(worker, tasks, speed, packed)


# ---------------------------------------------------------------------- #
# Batched insertion sweep (positions x tasks, lock-step lanes)
# ---------------------------------------------------------------------- #
def _route_distances(pack: RoutePack, block: TaskBlock) -> np.ndarray:
    """Meters from each route point to each task, shape ``(n+2, T)``.

    Cached matrix rows when the route and every task of the block sit in
    the route's packed view, else one kernel call over coordinates; the
    floats are the same either way.
    """
    packed = pack.packed
    if pack.dist_rows is not None:
        trows = packed.sensing_rows(block.ids)
        if trows is not None:
            cols = packed.sensing_loc[trows]
            dist = np.empty((pack.n + 2, len(block)))
            for r, row in enumerate(pack.dist_rows):
                dist[r] = row[cols]
            return dist
    return block.distances(*pack.points())


def sweep_insertions(pack: RoutePack, block: TaskBlock,
                     min_position: int = 0,
                     dist: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Score every (position, task) lane in one vectorized sweep.

    Returns ``(pos, rtt)`` arrays with one entry per task of ``block``:
    the best feasible insertion position and the route travel time after
    it, or ``-1`` and ``inf`` when no position is feasible.

    Each position is a lane replaying the scalar scan's exact op order on
    its own accumulator, so per-lane floats match the object path; tasks
    whose every lane fails the margin-guarded slack bound are dropped
    before propagation (they are provably infeasible); the surviving
    columns propagate all lanes and take the first-minimum over positions.

    ``min_position`` kills lanes before a worker's committed mid-route
    position up front, matching the scalar scan's anchored loop: the
    surviving lanes' floats are untouched, so first-minimum selection over
    the remaining positions is bit-identical to the anchored object scan.

    ``dist`` optionally supplies the ``(n+2, T)`` route-point x task
    distances in meters (rows: origin, stops, destination), for callers
    that compute many routes' blocks in one kernel call.
    """
    T = len(block)
    out_pos = np.full(T, -1, dtype=np.intp)
    out_rtt = np.full(T, _INF)
    if T == 0:
        return out_pos, out_rtt
    n = pack.n
    P = pack.valid  # lanes 0..P-1 have usable prefixes

    # Route-point -> task travel times, shape (n+2, T): row 0 the origin,
    # rows 1..n the stops, row n+1 the destination.  Row r serves lane
    # r (position r -> task) and the resume leg into stop r-1.
    if dist is None:
        dist = _route_distances(pack, block)
    tt_rt = dist / pack.speed
    ntw0, nls, nsvc = block.tw_start, block.latest_start, block.service

    # Lane 0..P-1: depart the prefix, service the new task.
    arr0 = pack.prefix[:P, None] + tt_rt[:P]
    feas0 = arr0 <= nls[None, :]
    if min_position > 0:
        # Anchored sweep: lanes before the committed position are dead on
        # arrival (the scalar scan never visits them).
        feas0[:min(min_position, P)] = False
    c0 = np.maximum(arr0, ntw0[None, :]) + nsvc[None, :]

    # Arrival at each lane's head stop (stop p; the destination for p==n)
    # and the O(1) slack rejection with safety margin.
    head = c0 + tt_rt[1:P + 1]
    alive = feas0 & (head <= pack.slack[:P, None] + SLACK_MARGIN)
    surv = np.flatnonzero(alive.any(axis=0))
    if surv.size == 0:
        return out_pos, out_rtt

    # Forward propagation for surviving columns, all lanes in lock-step.
    feas = feas0[:, surv].copy()
    c = c0[:, surv].copy()
    head_s = head[:, surv]
    seg, tw0, ls, svc, sensing = (pack.seg.tolist(), pack.tw0, pack.ls,
                                  pack.svc, pack.sensing)
    for j in range(n):
        k = min(j + 1, P)
        a = c[:k] + seg[j]
        if j < P:
            a[j] = head_s[j]  # lane j resumes from the new task
        if sensing[j]:
            feas[:k] &= a <= ls[j]
            c[:k] = np.maximum(a, tw0[j]) + svc[j]
        else:
            c[:k] = a + svc[j]

    final = c + seg[n]
    if P == n + 1:
        final[n] = head_s[n]  # lane n goes new task -> destination
    feas &= final <= pack.latest_thr
    rtt = np.where(feas, final - pack.departure, _INF)
    pos = np.argmin(rtt, axis=0)  # first minimum == strict-< scan order
    best = rtt[pos, np.arange(surv.size)]
    hit = best < _INF
    out_pos[surv[hit]] = pos[hit]
    out_rtt[surv[hit]] = best[hit]
    return out_pos, out_rtt


# ---------------------------------------------------------------------- #
# Nearest-neighbour construction
# ---------------------------------------------------------------------- #
def nearest_neighbor_order_packed(worker: Worker, tasks: Sequence,
                                  packed: PackedInstance) -> list | None:
    """Matrix-backed NN order; None when a location is not packed.

    ``np.argmin`` over the original task order replicates ``min()``'s
    first-occurrence tie-breaking on the object path exactly.
    """
    rows = [packed.loc_id(t.location) for t in tasks]
    cur = packed.loc_id(worker.origin)
    if cur < 0 or any(r < 0 for r in rows):
        return None
    cols = np.asarray(rows, dtype=np.intp)
    dist = dict(zip([cur] + rows, packed.rows([cur] + rows)))
    dead = np.zeros(len(tasks), dtype=bool)
    order = []
    for _ in range(len(tasks)):
        d = dist[cur][cols]
        d = np.where(dead, _INF, d)
        k = int(np.argmin(d))
        dead[k] = True
        order.append(tasks[k])
        cur = rows[k]
    return order
