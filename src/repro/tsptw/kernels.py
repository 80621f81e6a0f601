"""Vectorized route kernels over packed instance arrays.

The hot loops of the insertion planner re-simulate Python object routes
stop-by-stop.  This module packs one route into flat numpy arrays
(:func:`pack_route`) and provides:

* :func:`sweep_insertions` — the batched kernel: all |route|+1 positions x
  all candidate tasks scored in one lock-step vectorized sweep, with
  slack-pruned task rows skipped entirely;
* :func:`nearest_neighbor_order_packed` — matrix-backed NN construction.

Bit-identity contract (the test suite keeps the object path as the planner
oracle): every observable float is produced by the same IEEE operation
sequence the object path executes.  Distances come from
the ``math.hypot`` matrix of :class:`~repro.core.packed.PackedInstance`;
the vectorized sweep advances each insertion position as an independent
lane, so per-lane accumulation order matches the scalar scan exactly;
``np.argmin`` keeps the first minimum, matching the scan's strict-``<``
tie-breaking.  The backward slack array is *only* used to prune positions
that are infeasible by more than :data:`SLACK_MARGIN` — far above the
~1e-11 float drift a backward recursion can accumulate — so pruning never
changes a verdict; exact verdicts always come from forward propagation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.entities import SensingTask, Worker
from ..core.packed import PackedInstance

__all__ = ["RoutePack", "pack_route", "sweep_insertions",
           "nearest_neighbor_order_packed", "SLACK_MARGIN"]

_INF = float("inf")

#: Safety margin for slack-based pruning.  The backward latest-arrival
#: recursion is mathematically exact but accumulates ~1 ulp per stop of
#: float error (<1e-11 at route scale); pruning only positions that exceed
#: the slack bound by more than this margin keeps pruning sound, so it can
#: never flip a feasibility verdict relative to forward propagation.
SLACK_MARGIN = 1e-6


class RoutePack:
    """Flat-array view of one (worker, task order) pair.

    ``locs[0]`` is the origin, ``locs[1..n]`` the stops, ``locs[n+1]`` the
    destination.  ``seg[j]`` is the travel time into stop ``j`` (from
    ``locs[j]``); ``seg[n]`` is the destination leg.  ``prefix[p]`` is the
    clock after completing ``tasks[:p]``; ``valid`` counts usable prefixes
    (the scan stops at the first window violation, like the object path).
    ``slack[p]`` is the latest arrival time at stop ``p`` (``p == n``: at
    the destination) from which the remaining route can still finish.
    """

    __slots__ = ("worker", "tasks", "n", "speed", "packed", "loc_rows",
                 "locs", "tw0", "ls", "svc", "sensing", "seg", "prefix",
                 "valid", "slack", "departure", "latest_thr")

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

        tw0 = np.full(n, -_INF)
        ls = np.full(n, _INF)
        svc = np.empty(n)
        sensing = np.zeros(n, dtype=bool)
        for k, task in enumerate(tasks):
            svc[k] = task.service_time
            if isinstance(task, SensingTask):
                sensing[k] = True
                tw0[k] = task.tw_start
                ls[k] = task.latest_start
        self.tw0, self.ls, self.svc, self.sensing = tw0, ls, svc, sensing

        locs = [worker.origin] + [t.location for t in tasks] \
            + [worker.destination]
        self.locs = locs
        rows: list[int] | None = None
        if packed is not None:
            rows = [packed.loc_id(l) for l in locs]
            if any(r < 0 for r in rows):
                rows = None
        self.loc_rows = rows

        # seg[j] = travel time locs[j] -> locs[j+1]; same hypot + divide
        # the object path performs per hop.
        if rows is not None:
            ds = np.fromiter(
                (packed.row(rows[j])[rows[j + 1]] for j in range(n + 1)),
                dtype=np.float64, count=n + 1)
        else:
            ds = np.fromiter(
                (math.hypot(locs[j + 1].x - locs[j].x,
                            locs[j + 1].y - locs[j].y)
                 for j in range(n + 1)),
                dtype=np.float64, count=n + 1)
        self.seg = ds / speed

        # Forward earliest-completion prefixes (the object scan's prefix
        # list), truncated at the first violation.
        prefix = np.empty(n + 1)
        prefix[0] = self.departure
        clock = self.departure
        valid = n + 1
        seg = self.seg
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


def pack_route(worker: Worker, tasks: Sequence, speed: float,
               packed: PackedInstance | None = None) -> RoutePack:
    """Pack one route's geometry and timing arrays (O(n))."""
    return RoutePack(worker, tasks, speed, packed)


# ---------------------------------------------------------------------- #
# Batched insertion sweep (positions x tasks, lock-step lanes)
# ---------------------------------------------------------------------- #
def _new_task_arrays(pack: RoutePack, new_tasks: Sequence):
    """(tw0, ls, svc) arrays for the batch, via the packed table if known."""
    packed = pack.packed
    T = len(new_tasks)
    if packed is not None:
        rows = [packed.sensing_row(getattr(t, "task_id", -1))
                for t in new_tasks]
        if all(r >= 0 for r in rows):
            idx = np.asarray(rows, dtype=np.intp)
            return (packed.tw_start[idx], packed.latest_start[idx],
                    packed.service[idx])
    tw0 = np.empty(T)
    ls = np.empty(T)
    svc = np.empty(T)
    for k, t in enumerate(new_tasks):
        svc[k] = t.service_time
        if isinstance(t, SensingTask):
            tw0[k] = t.tw_start
            ls[k] = t.tw_end - t.service_time
        else:
            tw0[k] = -_INF
            ls[k] = _INF
    return tw0, ls, svc


def sweep_insertions(pack: RoutePack, new_tasks: Sequence,
                     min_position: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Score every (position, task) lane in one vectorized sweep.

    Returns ``(pos, rtt)`` arrays with one entry per task: the best
    feasible insertion position and the route travel time after it, or
    ``-1`` and ``inf`` when no position is feasible.

    Each position is a lane replaying the scalar scan's exact op order on
    its own accumulator, so per-lane floats match the object path; tasks
    whose every lane fails the margin-guarded slack bound are dropped
    before propagation (they are provably infeasible); the surviving
    columns propagate all lanes and take the first-minimum over positions.

    ``min_position`` kills lanes before a worker's committed mid-route
    position up front, matching the scalar scan's anchored loop: the
    surviving lanes' floats are untouched, so first-minimum selection over
    the remaining positions is bit-identical to the anchored object scan.
    """
    T = len(new_tasks)
    out_pos = np.full(T, -1, dtype=np.intp)
    out_rtt = np.full(T, _INF)
    if T == 0:
        return out_pos, out_rtt
    n = pack.n
    P = pack.valid  # lanes 0..P-1 have usable prefixes
    speed = pack.speed
    packed, rows = pack.packed, pack.loc_rows

    # One integer-keyed row lookup per task feeds both the travel-time
    # block and the window arrays (packed sensing rows also know their
    # location column, skipping per-task Location hashing).
    task_rows = None
    if packed is not None:
        trow = [packed.sensing_row(getattr(t, "task_id", -1))
                for t in new_tasks]
        if all(r >= 0 for r in trow):
            task_rows = np.asarray(trow, dtype=np.intp)

    # Route-point -> task travel times, shape (n+2, T): row 0 the origin,
    # rows 1..n the stops, row n+1 the destination.  Row r serves lane
    # r (position r -> task) and the resume leg into stop r-1.
    if task_rows is not None and rows is not None:
        cols_arr = packed.sensing_loc[task_rows]
        tt_rt = np.empty((n + 2, T))
        for r, i in enumerate(rows):
            tt_rt[r] = packed.row(i)[cols_arr]
        tt_rt /= speed
    else:
        tt_rt = _hypot_block(pack, new_tasks) / speed

    if task_rows is not None:
        ntw0 = packed.tw_start[task_rows]
        nls = packed.latest_start[task_rows]
        nsvc = packed.service[task_rows]
    else:
        ntw0, nls, nsvc = _new_task_arrays(pack, new_tasks)

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
    seg, tw0, ls, svc, sensing = (pack.seg, pack.tw0, pack.ls, pack.svc,
                                  pack.sensing)
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


def _hypot_block(pack: RoutePack, new_tasks: Sequence) -> np.ndarray:
    """math.hypot fallback for the (n+2, T) route-point/task distances.

    Route coordinates are read once into Python-float lists, so the inner
    loop runs ``math.hypot`` over plain floats — the same doubles, so the
    same distances, without a numpy element write per entry.
    """
    xs = [float(l.x) for l in pack.locs]
    ys = [float(l.y) for l in pack.locs]
    out = np.empty((len(new_tasks), len(xs)))
    hypot = math.hypot
    for k, t in enumerate(new_tasks):
        x, y = t.location.x, t.location.y
        out[k] = [hypot(x - lx, y - ly) for lx, ly in zip(xs, ys)]
    return out.T


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
    dead = np.zeros(len(tasks), dtype=bool)
    order = []
    for _ in range(len(tasks)):
        d = packed.row(cur)[cols]
        d = np.where(dead, _INF, d)
        k = int(np.argmin(d))
        dead[k] = True
        order.append(tasks[k])
        cur = rows[k]
    return order
