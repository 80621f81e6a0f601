"""Shared machinery for the baseline solvers (paper Section V-B).

RN, TVPG and TCPG all follow the same skeleton: build each worker's initial
working route with the Nearest Neighbour algorithm, then iteratively insert
sensing tasks into routes until the budget is exhausted.
:class:`RouteBuilder` implements that skeleton — incremental insertion
search, dynamic incentives (Definition 6: proportional to the route's
excess over the worker's *optimal* own route, so an inefficient NN backbone
already costs budget, exactly as in the paper), coverage tracking, and
budget accounting — so each baseline only supplies its selection rule.
"""

from __future__ import annotations

from ..core.entities import SensingTask, Worker
from ..core.incentive import IncentiveModel
from ..core.instance import USMDWInstance
from ..core.packed import packed_instance
from ..core.route import WorkingRoute, simulate_route
from ..core.solution import Solution
from ..tsptw.insertion import InsertionSolver, cheapest_insertion_position
from ..tsptw.nearest import nearest_neighbor_order

__all__ = ["RouteBuilder", "AssignmentSolverProtocol"]


class RouteBuilder:
    """Mutable per-worker routes + budget/coverage accounting."""

    def __init__(self, instance: USMDWInstance):
        self.instance = instance
        self.speed = instance.speed
        base_planner = InsertionSolver(speed=instance.speed)
        # Every distance below comes from the instance's shared packed
        # travel-distance matrix (identical floats to per-pair hypot).
        self._dist = packed_instance(instance).distance_between
        self.incentives = IncentiveModel(
            mu=instance.mu,
            base_rtt_fn=lambda w: base_planner.base_route(w).route_travel_time)
        self.coverage = instance.coverage.new_state()
        self.budget_rest = instance.budget
        self.assigned_ids: set[int] = set()

        # Initial working route: Nearest Neighbour over the travel tasks.
        self.routes: dict[int, list] = {}
        self.route_rtt: dict[int, float] = {}
        self.route_ok: dict[int, bool] = {}
        for worker in instance.workers:
            order = nearest_neighbor_order(worker, list(worker.travel_tasks),
                                           dist=self._dist)
            timing = simulate_route(worker, order, speed=self.speed)
            self.routes[worker.worker_id] = order
            self.route_rtt[worker.worker_id] = timing.route_travel_time
            self.route_ok[worker.worker_id] = timing.feasible

    # ------------------------------------------------------------------ #
    def clone(self) -> "RouteBuilder":
        """Independent copy sharing immutable parts (instance, incentives)."""
        twin = object.__new__(RouteBuilder)
        twin.instance = self.instance
        twin.speed = self.speed
        twin._dist = self._dist
        twin.incentives = self.incentives  # caches are per-worker, immutable
        twin.coverage = self.coverage.copy()
        twin.budget_rest = self.budget_rest
        twin.assigned_ids = set(self.assigned_ids)
        twin.routes = {wid: list(route) for wid, route in self.routes.items()}
        twin.route_rtt = dict(self.route_rtt)
        twin.route_ok = dict(self.route_ok)
        return twin

    # ------------------------------------------------------------------ #
    def committed(self, worker_id: int) -> bool:
        """Whether the worker has at least one sensing task (is recruited)."""
        return any(isinstance(t, SensingTask) for t in self.routes[worker_id])

    def current_incentive(self, worker_id: int) -> float:
        if not self.committed(worker_id):
            return 0.0
        worker = self.instance.worker(worker_id)
        return self.incentives.incentive(worker, self.route_rtt[worker_id])

    def delta_incentive(self, worker_id: int, rtt_after: float) -> float:
        worker = self.instance.worker(worker_id)
        return (self.incentives.incentive(worker, rtt_after)
                - self.current_incentive(worker_id))

    # ------------------------------------------------------------------ #
    def feasible_insertion(self, worker_id: int,
                           task: SensingTask) -> tuple[int, float, float] | None:
        """(position, rtt_after, delta_incentive) of the cheapest feasible
        insertion of ``task``, or None (infeasible or over budget)."""
        if not self.route_ok[worker_id] or task.task_id in self.assigned_ids:
            return None
        worker = self.instance.worker(worker_id)
        best = cheapest_insertion_position(
            worker, self.routes[worker_id], task, self.speed,
            dist=self._dist)
        if best is None:
            return None
        position, rtt_after = best
        delta = self.delta_incentive(worker_id, rtt_after)
        if delta >= self.budget_rest:
            return None
        return position, rtt_after, delta

    def insertion_at(self, worker_id: int, task: SensingTask,
                     position: int) -> tuple[float, float] | None:
        """(rtt_after, delta_incentive) for a *specific* position, or None."""
        if not self.route_ok[worker_id] or task.task_id in self.assigned_ids:
            return None
        worker = self.instance.worker(worker_id)
        candidate = self.routes[worker_id][:position] + [task] + \
            self.routes[worker_id][position:]
        timing = simulate_route(worker, candidate, speed=self.speed)
        if not timing.feasible:
            return None
        delta = self.delta_incentive(worker_id, timing.route_travel_time)
        if delta >= self.budget_rest:
            return None
        return timing.route_travel_time, delta

    def apply(self, worker_id: int, task: SensingTask, position: int,
              rtt_after: float, delta: float) -> None:
        self.routes[worker_id].insert(position, task)
        self.route_rtt[worker_id] = rtt_after
        self.budget_rest -= delta
        self.assigned_ids.add(task.task_id)
        self.coverage.add(task)

    def unassigned_tasks(self) -> list[SensingTask]:
        return [s for s in self.instance.sensing_tasks
                if s.task_id not in self.assigned_ids]

    # ------------------------------------------------------------------ #
    def to_solution(self, solver_name: str, wall_time: float) -> Solution:
        routes = {}
        incentives = {}
        for worker in self.instance.workers:
            wid = worker.worker_id
            if not self.committed(wid):
                continue
            routes[wid] = WorkingRoute(worker, tuple(self.routes[wid]),
                                       speed=self.speed)
            incentives[wid] = self.current_incentive(wid)
        return Solution(self.instance, routes, incentives,
                        solver_name=solver_name, wall_time=wall_time)


class AssignmentSolverProtocol:
    """Duck-typed interface: every solver exposes ``solve(instance)``."""

    name: str

    def solve(self, instance: USMDWInstance) -> Solution:  # pragma: no cover
        raise NotImplementedError
