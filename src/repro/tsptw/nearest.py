"""Nearest Neighbour route construction.

The paper's RN / TVPG / TCPG baselines all start from a working route built
with the Nearest Neighbour algorithm — "we always select the nearest
location as the next location" (Section V-B).  The construction ignores
time windows while choosing; the resulting route may therefore be
infeasible, which the caller must check via the returned timing.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.entities import SensingTask, Worker
from ..core.geometry import DEFAULT_SPEED, Location, euclidean
from ..core.packed import packed_instance
from ..core.route import WorkingRoute
from . import kernels
from .base import PlannerBase, RouteResult, combined_tasks, instance_binding

__all__ = ["NearestNeighborSolver", "nearest_neighbor_order"]


def nearest_neighbor_order(worker: Worker, tasks: list,
                           dist: Callable[[Location, Location], float] | None
                           = None) -> list:
    """Order ``tasks`` greedily by distance starting from the origin.

    ``dist`` optionally replaces per-pair ``euclidean`` with a shared
    travel-distance provider (same floats, so the order is unchanged).
    """
    measure = dist if dist is not None else euclidean
    remaining = list(tasks)
    ordered = []
    position = worker.origin
    while remaining:
        nearest = min(remaining, key=lambda t: measure(position, t.location))
        remaining.remove(nearest)
        ordered.append(nearest)
        position = nearest.location
    return ordered


class NearestNeighborSolver(PlannerBase):
    """Constructs a route by repeatedly visiting the closest unvisited task."""

    def __init__(self, speed: float = DEFAULT_SPEED):
        self.speed = speed

    def bind_instance(self, instance) -> "BoundNearestNeighborSolver":
        """The solver's binding to ``instance``: plans read the instance's
        packed travel-distance matrix."""
        return instance_binding(
            instance, self,
            lambda: BoundNearestNeighborSolver(self, packed_instance(instance)))

    def plan(self, worker: Worker, sensing_tasks: Sequence[SensingTask],
             packed=None) -> RouteResult:
        tasks = combined_tasks(worker, sensing_tasks)
        ordered = None
        if packed is not None:
            ordered = kernels.nearest_neighbor_order_packed(
                worker, tasks, packed)
        if ordered is None:
            ordered = nearest_neighbor_order(worker, tasks)
        route = WorkingRoute(worker, tuple(ordered), speed=self.speed)
        return RouteResult.from_route(route)


class BoundNearestNeighborSolver(PlannerBase):
    """A :class:`NearestNeighborSolver` bound to one instance's packed
    arrays: the same orders, from the shared distance matrix."""

    def __init__(self, solver: NearestNeighborSolver, packed):
        self.solver = solver
        self.speed = solver.speed
        self.packed = packed

    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        return self.solver.plan(worker, sensing_tasks, packed=self.packed)
