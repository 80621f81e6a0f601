"""Route-planner interface shared by all TSPTW backends.

A planner answers the question SMORE asks thousands of times (Algorithm 1):
*given a worker and a set of sensing tasks, does a feasible working route
exist, and what is its (near-)minimal route travel time?*  Travel tasks
carry no windows of their own — the planner treats them as windowed by the
worker's ``[earliest_departure, latest_arrival]`` interval, exactly as the
paper prescribes (Section III-C).

Backends implemented in this package:

* :class:`repro.tsptw.exact.ExactDPSolver` — bitmask dynamic program,
  optimal, exponential (use for <= ~15 tasks and as ground truth in tests).
* :class:`repro.tsptw.insertion.InsertionSolver` — cheapest feasible
  insertion plus or-opt improvement; the fast default.
* :class:`repro.tsptw.nearest.NearestNeighborSolver` — the Nearest
  Neighbour construction the paper's RN/TVPG/TCPG baselines start from.
* :class:`repro.tsptw.gpn.GPNSolver` — the pre-trained graph-pointer-network
  solver with hierarchical RL training (Ma et al. [16], adapted to carry
  origin + destination in the query as the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ..core.entities import SensingTask, TravelTask, Worker
from ..core.geometry import DEFAULT_SPEED
from ..core.route import RouteTiming, WorkingRoute

__all__ = ["RouteResult", "RoutePlanner", "combined_tasks", "bind",
           "instance_binding"]

Task = TravelTask | SensingTask


@dataclass(frozen=True)
class RouteResult:
    """Outcome of a planning call.

    ``feasible`` is False when the backend found no ordering that respects
    every sensing window and the worker's latest arrival; ``route`` then
    holds the best attempt (possibly None for constructive backends that
    failed outright) so callers can diagnose.
    """

    route: WorkingRoute | None
    timing: RouteTiming | None
    feasible: bool
    #: For single-insertion plans: where the scan placed the new task
    #: (None for full plans or backends that do not report it).  The
    #: candidate table records it in its ``pos`` plane, from which
    #: ``CandidateTable.route`` rebuilds the pair's route.
    pos: int | None = None

    @property
    def route_travel_time(self) -> float:
        if self.timing is None:
            return float("inf")
        return self.timing.route_travel_time

    @staticmethod
    def infeasible(route: WorkingRoute | None = None,
                   timing: RouteTiming | None = None) -> "RouteResult":
        return RouteResult(route, timing, False)

    @staticmethod
    def from_route(route: WorkingRoute) -> "RouteResult":
        timing = route.simulate()
        feasible = timing.feasible and route.covers_all_travel_tasks()
        return RouteResult(route, timing, feasible)


def combined_tasks(worker: Worker,
                   sensing_tasks: Sequence[SensingTask]) -> list[Task]:
    """The full task set a working route must visit."""
    return list(worker.travel_tasks) + list(sensing_tasks)


def bind(planner, instance):
    """``planner`` bound to ``instance``: ``planner.bind_instance``'s
    answer for backends that keep per-instance state (packed arrays, memo
    tables), an object with the planner's methods; else the planner."""
    bind_instance = getattr(planner, "bind_instance", None)
    return planner if bind_instance is None else bind_instance(instance)


def instance_binding(instance, planner, build):
    """``planner``'s binding kept on ``instance``, from ``build()`` on
    first use.

    Bindings sit in the instance's ``_bindings`` dict keyed by the planner
    object, as :func:`~repro.core.packed.packed_instance` keeps the packed
    arrays, so a binding lives as long as its instance (and keeps its
    planner alive that long).  Pickled instances leave them behind.
    """
    bindings = instance.__dict__.get("_bindings")
    if bindings is None:
        bindings = {}
        object.__setattr__(instance, "_bindings", bindings)
    binding = bindings.get(planner)
    if binding is None:
        binding = bindings[planner] = build()
    return binding


class RoutePlanner(Protocol):
    """Protocol all TSPTW backends satisfy."""

    speed: float

    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        """Plan a working route through the worker's travel tasks plus
        ``sensing_tasks``; minimise route travel time."""
        ...

    def base_route(self, worker: Worker) -> RouteResult:
        """The worker's original route (travel tasks only) — the TSP
        baseline of the incentive definition."""
        ...


class PlannerBase:
    """Shared convenience implementation of :meth:`base_route`."""

    speed: float = DEFAULT_SPEED

    def plan(self, worker: Worker, sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        raise NotImplementedError

    def base_route(self, worker: Worker) -> RouteResult:
        return self.plan(worker, [])
