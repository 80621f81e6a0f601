"""Spatial partitioning of a USMDW instance into shards.

City-scale divide-and-conquer starts here: the sensing region is split
into ``P`` axis-aligned rectangles (a near-square grid or a recursive
k-d split balancing task counts), every sensing task is assigned to
exactly one shard by location, and every worker to exactly one shard by
the centroid of their trip (origin, travel tasks, destination).  Shard
rectangles tile the region exactly — interior edges are half-open and
cut coordinates are shared between neighbours, so membership is a
partition by construction, not by epsilon.

Each pair of edge-adjacent shards additionally carries a symmetric
*boundary set*: the sensing tasks within ``margin`` meters of the shared
border segment.  These are the tasks a spatial split treats worst (a
worker just across the border may serve them cheaply), and they are
exactly what the cross-shard repair pass of :mod:`repro.shard.solve`
revisits after the per-shard solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.entities import Worker
from ..core.geometry import Location, Region
from ..core.instance import USMDWInstance

__all__ = ["Shard", "ShardPlan", "partition_instance", "sub_instance",
           "default_margin"]

#: (x0, y0, x1, y1) rectangle; interior edges half-open, region-border
#: edges closed.
Bounds = tuple[float, float, float, float]


def default_margin(region: Region, num_shards: int) -> float:
    """Boundary band width: 10% of the side of an average shard.

    Wide enough that a worker one cell across the border still sees the
    tasks it could serve cheaply, narrow enough that the repair sweep
    stays a small fraction of a shard solve.
    """
    return 0.1 * math.sqrt(region.area / max(1, num_shards))


@dataclass(frozen=True)
class Shard:
    """One spatial shard: its rectangle plus its task/worker membership."""

    index: int
    bounds: Bounds
    task_ids: tuple[int, ...]
    worker_ids: tuple[int, ...]

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def num_workers(self) -> int:
        return len(self.worker_ids)


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one instance: shards plus symmetric boundary sets.

    ``boundary`` is keyed by the normalised pair ``(a, b)`` with
    ``a < b``; :meth:`boundary_between` accepts either orientation, so
    the boundary relation is symmetric by construction.
    """

    instance: USMDWInstance
    method: str
    margin: float
    shards: tuple[Shard, ...]
    boundary: dict[tuple[int, int], tuple[int, ...]]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def boundary_between(self, a: int, b: int) -> tuple[int, ...]:
        """Boundary tasks of the (a, b) border; orientation-free."""
        if a == b:
            return ()
        return self.boundary.get((min(a, b), max(a, b)), ())

    def boundary_task_ids(self) -> tuple[int, ...]:
        """All boundary task ids, deduplicated, in sorted order."""
        seen: set[int] = set()
        for ids in self.boundary.values():
            seen.update(ids)
        return tuple(sorted(seen))

    # ------------------------------------------------------------------ #
    def validate(self) -> list[str]:
        """Check the partition invariants; return a list of violations.

        Verified: every sensing task and every worker lands in exactly
        one shard (union equals the instance's sets, no duplicates),
        boundary keys are normalised pairs of distinct valid shards, and
        every boundary task belongs to one of its pair's shards and lies
        within ``margin`` of the pair's shared border segment.
        """
        problems: list[str] = []
        task_owner: dict[int, int] = {}
        worker_owner: dict[int, int] = {}
        for shard in self.shards:
            for tid in shard.task_ids:
                if tid in task_owner:
                    problems.append(
                        f"task {tid} in shards {task_owner[tid]} and "
                        f"{shard.index}")
                task_owner[tid] = shard.index
            for wid in shard.worker_ids:
                if wid in worker_owner:
                    problems.append(
                        f"worker {wid} in shards {worker_owner[wid]} and "
                        f"{shard.index}")
                worker_owner[wid] = shard.index
        instance_tasks = {t.task_id for t in self.instance.sensing_tasks}
        instance_workers = {w.worker_id for w in self.instance.workers}
        if set(task_owner) != instance_tasks:
            missing = sorted(instance_tasks - set(task_owner))[:5]
            extra = sorted(set(task_owner) - instance_tasks)[:5]
            problems.append(f"task membership mismatch: missing={missing} "
                            f"extra={extra}")
        if set(worker_owner) != instance_workers:
            problems.append("worker membership mismatch")
        for (a, b), ids in self.boundary.items():
            if not (0 <= a < b < len(self.shards)):
                problems.append(f"boundary key ({a}, {b}) not a normalised "
                                "pair of distinct shards")
                continue
            segment = _shared_segment(self.shards[a].bounds,
                                      self.shards[b].bounds)
            if segment is None:
                problems.append(f"boundary pair ({a}, {b}) shares no border")
                continue
            members = set(self.shards[a].task_ids) | set(self.shards[b].task_ids)
            for tid in ids:
                if tid not in members:
                    problems.append(f"boundary task {tid} outside shards "
                                    f"{a}/{b}")
                    continue
                loc = self.instance.sensing_task(tid).location
                if _segment_distance(loc, segment) > self.margin + 1e-9:
                    problems.append(f"boundary task {tid} farther than "
                                    f"margin from the ({a}, {b}) border")
        return problems


# ---------------------------------------------------------------------- #
# Geometry helpers
# ---------------------------------------------------------------------- #
def _contains(bounds: Bounds, region: Region, x: float, y: float) -> bool:
    """Half-open membership, closed at the region's right/top border."""
    x0, y0, x1, y1 = bounds
    in_x = x0 <= x < x1 or (x1 >= region.width and x == x1)
    in_y = y0 <= y < y1 or (y1 >= region.height and y == y1)
    return in_x and in_y


def _locate(bounds_list: list[Bounds], region: Region,
            x: float, y: float) -> int:
    for k, bounds in enumerate(bounds_list):
        if _contains(bounds, region, x, y):
            return k
    raise ValueError(f"point ({x}, {y}) outside every shard rectangle")


#: A shared border segment: ("v", x, y_lo, y_hi) or ("h", y, x_lo, x_hi).
Segment = tuple[str, float, float, float]


def _shared_segment(a: Bounds, b: Bounds) -> Segment | None:
    """The border segment two rectangles share, or None.

    Cut coordinates are shared floats between neighbours, so exact
    equality is the correct adjacency test; corner-touching rectangles
    (zero-length overlap) are not adjacent.
    """
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    for x in (ax1,) if ax1 == bx0 else (ax0,) if ax0 == bx1 else ():
        lo, hi = max(ay0, by0), min(ay1, by1)
        if hi > lo:
            return ("v", x, lo, hi)
    for y in (ay1,) if ay1 == by0 else (ay0,) if ay0 == by1 else ():
        lo, hi = max(ax0, bx0), min(ax1, bx1)
        if hi > lo:
            return ("h", y, lo, hi)
    return None


def _segment_distance(loc: Location, segment: Segment) -> float:
    kind, c, lo, hi = segment
    if kind == "v":
        along, across = loc.y, loc.x - c
    else:
        along, across = loc.x, loc.y - c
    overshoot = max(lo - along, along - hi, 0.0)
    return math.hypot(across, overshoot)


def _worker_centroid(worker: Worker) -> tuple[float, float]:
    locs = worker.all_locations()
    return (sum(l.x for l in locs) / len(locs),
            sum(l.y for l in locs) / len(locs))


# ---------------------------------------------------------------------- #
# Rectangle layouts
# ---------------------------------------------------------------------- #
def _grid_bounds(region: Region, num_shards: int) -> list[Bounds]:
    """A near-square nx x ny tiling with nx * ny == num_shards.

    Among the factor pairs the one minimising cell-aspect distortion
    wins, so a 2:2.4 region splits 2x2 at P=4 rather than 4x1.
    """
    best = None
    for nx in range(1, num_shards + 1):
        if num_shards % nx:
            continue
        ny = num_shards // nx
        aspect = abs(math.log((region.width / nx) / (region.height / ny)))
        if best is None or aspect < best[0]:
            best = (aspect, nx, ny)
    _, nx, ny = best
    x_edges = [region.width * i / nx for i in range(nx + 1)]
    y_edges = [region.height * j / ny for j in range(ny + 1)]
    return [(x_edges[i], y_edges[j], x_edges[i + 1], y_edges[j + 1])
            for i in range(nx) for j in range(ny)]


def _kd_bounds(points: list[tuple[float, float]], bounds: Bounds,
               parts: int) -> list[Bounds]:
    """Recursive k-d split balancing task counts between the halves.

    The cut is the spatial midpoint between the two tasks straddling the
    target count along the longer axis (the midpoint of the rectangle
    when too few tasks constrain it), clamped strictly inside so no slab
    degenerates.  Left and right children reuse the exact cut float, so
    the rectangles tile without gaps.
    """
    if parts <= 1:
        return [bounds]
    x0, y0, x1, y1 = bounds
    axis = 0 if (x1 - x0) >= (y1 - y0) else 1
    lo, hi = (x0, x1) if axis == 0 else (y0, y1)
    left_parts = parts // 2
    coords = sorted(p[axis] for p in points)
    cut = 0.5 * (lo + hi)
    if len(coords) >= 2:
        k = round(len(coords) * left_parts / parts)
        k = max(1, min(len(coords) - 1, k))
        candidate = 0.5 * (coords[k - 1] + coords[k])
        if lo < candidate < hi:
            cut = candidate
    left_pts = [p for p in points if p[axis] < cut]
    right_pts = [p for p in points if p[axis] >= cut]
    if axis == 0:
        left_b: Bounds = (x0, y0, cut, y1)
        right_b: Bounds = (cut, y0, x1, y1)
    else:
        left_b = (x0, y0, x1, cut)
        right_b = (x0, cut, x1, y1)
    return (_kd_bounds(left_pts, left_b, left_parts)
            + _kd_bounds(right_pts, right_b, parts - left_parts))


# ---------------------------------------------------------------------- #
# Public API
# ---------------------------------------------------------------------- #
def partition_instance(instance: USMDWInstance, num_shards: int,
                       method: str = "grid",
                       margin: float | None = None) -> ShardPlan:
    """Partition an instance into ``num_shards`` spatial shards.

    ``method`` is ``"grid"`` (near-square uniform tiling) or ``"kd"``
    (recursive task-count-balanced splits).  ``margin`` is the boundary
    band width in meters (:func:`default_margin` when None).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    region = instance.coverage.grid.region
    if margin is None:
        margin = default_margin(region, num_shards)

    if method == "grid":
        bounds_list = _grid_bounds(region, num_shards)
    elif method == "kd":
        points = [(t.location.x, t.location.y)
                  for t in instance.sensing_tasks]
        bounds_list = _kd_bounds(points, (0.0, 0.0, region.width,
                                          region.height), num_shards)
    else:
        raise ValueError(f"unknown partition method {method!r}; "
                         "choose 'grid' or 'kd'")

    task_members: list[list[int]] = [[] for _ in bounds_list]
    for task in instance.sensing_tasks:
        k = _locate(bounds_list, region, task.location.x, task.location.y)
        task_members[k].append(task.task_id)
    worker_members: list[list[int]] = [[] for _ in bounds_list]
    for worker in instance.workers:
        cx, cy = _worker_centroid(worker)
        cx = min(max(cx, 0.0), region.width)
        cy = min(max(cy, 0.0), region.height)
        worker_members[k := _locate(bounds_list, region, cx, cy)].append(
            worker.worker_id)

    shards = tuple(
        Shard(index=k, bounds=bounds_list[k],
              task_ids=tuple(task_members[k]),
              worker_ids=tuple(worker_members[k]))
        for k in range(len(bounds_list)))

    boundary: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(len(shards)):
        for b in range(a + 1, len(shards)):
            segment = _shared_segment(shards[a].bounds, shards[b].bounds)
            if segment is None:
                continue
            near = [
                tid for tid in shards[a].task_ids + shards[b].task_ids
                if _segment_distance(
                    instance.sensing_task(tid).location, segment) <= margin
            ]
            if near:
                boundary[(a, b)] = tuple(sorted(near))

    return ShardPlan(instance=instance, method=method, margin=margin,
                     shards=shards, boundary=boundary)


def sub_instance(instance: USMDWInstance, shard: Shard,
                 budget: float) -> USMDWInstance:
    """The shard's own USMDW sub-problem with its budget share.

    Workers and tasks are the *same objects* as the parent instance's
    (fork-pool children share them copy-on-write; route/incentive merges
    need no id translation), and the coverage model is shared so shard
    phi values are comparable with the global objective.
    """
    return USMDWInstance(
        workers=tuple(instance.worker(wid) for wid in shard.worker_ids),
        sensing_tasks=tuple(instance.sensing_task(tid)
                            for tid in shard.task_ids),
        budget=budget,
        mu=instance.mu,
        coverage=instance.coverage,
        speed=instance.speed,
        name=f"{instance.name}/shard{shard.index}",
    )
