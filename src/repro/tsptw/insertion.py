"""Cheapest-feasible-insertion TSPTW heuristic with or-opt improvement.

The workhorse planner of this reproduction: polynomial, handles windows
natively, and is accurate enough that SMORE's feasibility checks rarely
produce the "false alarms" the paper attributes to approximate solvers.

Construction inserts tasks one by one — mandatory travel tasks first (they
are unconstrained and shape the backbone), then sensing tasks in order of
window start — each at the position minimising the route travel time among
all *feasible* positions.  Improvement then relocates single tasks (or-opt
with segment length 1) while feasibility holds.

Batched candidate checks (:meth:`InsertionSolver.plan_insertions_many`)
run one vectorized :func:`repro.tsptw.kernels.sweep_insertions` over a
:class:`~repro.tsptw.kernels.TaskBlock` of the candidate tasks, reading
distances from the packed matrix of the instance the solver is bound to
(:meth:`InsertionSolver.bind_instance`) where route and tasks are in it,
scoring every (position, task) lane at once, and answer with arrays
(:class:`InsertionSweep`) rather than one result object per task.
Single-insertion scans run the scalar :func:`cheapest_insertion_position`
— one task against one route has no lanes to amortize a pack over, and
the pure-Python scan measures faster than numpy element access at every
route size.

The kernels are bit-identical (same floats, same argmin tie-breaking) to
looping the scalar scan and re-simulating every result, which the test
suite keeps as the planner oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..core.entities import SensingTask, TravelTask, Worker
from ..core.geometry import DEFAULT_SPEED, Location
from ..core.packed import packed_instance
from ..core.route import WorkingRoute, simulate_route
from ..obs.profile import scope as profile_scope
from . import kernels
from .base import PlannerBase, RouteResult, combined_tasks, instance_binding
from .kernels import TaskBlock

__all__ = ["InsertionSolver", "BoundInsertionSolver", "InsertionSweep",
           "cheapest_insertion_position"]

#: Batch size at which ``plan_insertions_many`` switches from looped
#: scalar scans to the vectorized sweep (numpy per-op overhead dominates
#: below this).
_SWEEP_MIN_TASKS = 4

DistFn = Callable[[Location, Location], float]


class _KernelResult:
    """Duck-typed :class:`RouteResult` for the kernel engine.

    Feasibility and route travel time come straight from the kernel scan;
    the per-stop :class:`~repro.core.route.RouteTiming` — which most
    consumers (candidate tables, caches) never read — is materialised
    lazily by simulating the route on first access, with identical values.
    """

    __slots__ = ("route", "feasible", "pos", "_rtt", "_timing")

    def __init__(self, route: WorkingRoute, rtt: float, feasible: bool,
                 pos: int | None = None):
        self.route = route
        self.feasible = feasible
        self.pos = pos
        self._rtt = rtt
        self._timing = None

    @property
    def timing(self):
        if self._timing is None:
            self._timing = self.route.simulate()
        return self._timing

    @property
    def route_travel_time(self) -> float:
        return self._rtt


class InsertionSweep(Sequence):
    """Array answer of :meth:`InsertionSolver.plan_insertions_many`.

    One lane per new task: ``pos[i]`` is where the scan inserts
    ``tasks[i]`` into ``base`` (``-1`` when no position is feasible) and
    ``rtt[i]`` the route travel time after the insertion (``inf`` then).
    ``tasks`` is the task sequence or :class:`TaskBlock` that was swept.
    ``feasible`` also requires ``base`` to visit every travel task of the
    worker, a verdict all lanes share, since inserting a sensing task
    cannot change travel-task membership.

    Consumers that only need numbers (the candidate table, the planner
    memo, the shard repair sweep) read the arrays; :meth:`route` builds
    one lane's :class:`WorkingRoute` on demand.  Indexing materialises a
    per-lane result (a :class:`_KernelResult`, or
    :meth:`RouteResult.infeasible` for a miss) for tests and oracles.
    """

    __slots__ = ("worker", "base", "tasks", "pos", "rtt", "feasible",
                 "speed")

    def __init__(self, worker: Worker, base: Sequence, tasks: Sequence,
                 pos: np.ndarray, rtt: np.ndarray, speed: float):
        self.worker = worker
        self.base = tuple(base)
        self.tasks = tasks if isinstance(tasks, TaskBlock) else list(tasks)
        self.pos = pos
        self.rtt = rtt
        self.speed = speed
        present = {t.task_id for t in self.base
                   if isinstance(t, TravelTask)}
        covers = all(d.task_id in present for d in worker.travel_tasks)
        self.feasible = (pos >= 0) & covers

    @classmethod
    def from_results(cls, worker: Worker, base: Sequence, tasks: Sequence,
                     results: Sequence, speed: float) -> "InsertionSweep":
        """Arrays of per-task insertion results (``plan_with_insertion``
        answers, or an :class:`InsertionSweep` returned as is)."""
        if isinstance(results, InsertionSweep):
            return results
        pos = np.full(len(results), -1, dtype=np.intp)
        rtt = np.full(len(results), math.inf)
        for i, (task, result) in enumerate(zip(tasks, results)):
            if result.route is None:
                continue
            p = getattr(result, "pos", None)
            pos[i] = p if p is not None else result.route.tasks.index(task)
            rtt[i] = result.route_travel_time
        return cls(worker, base, tasks, pos, rtt, speed)

    def route(self, i: int) -> WorkingRoute:
        """Lane ``i``'s route: ``tasks[i]`` inserted into ``base``."""
        p = int(self.pos[i])
        tasks = self.base[:p] + (self.tasks[i],) + self.base[p:]
        return WorkingRoute(self.worker, tasks, speed=self.speed)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, i: int):
        if self.pos[i] < 0:
            return RouteResult.infeasible()
        return _KernelResult(self.route(i), float(self.rtt[i]),
                             bool(self.feasible[i]), pos=int(self.pos[i]))


def _advance(clock: float, d: float, task, speed: float,
             is_sensing: bool) -> float | None:
    """Travel ``d`` meters to ``task``, wait if needed, service it;
    None if the window is missed."""
    clock += d / speed
    if is_sensing:
        if clock < task.tw_start:
            clock = task.tw_start
        elif clock > task.tw_end - task.service_time:
            return None
    return clock + task.service_time


def cheapest_insertion_position(worker: Worker, tasks: list, new_task,
                                speed: float,
                                dist: DistFn | None = None,
                                min_position: int = 0
                                ) -> tuple[int, float] | None:
    """Best feasible position for ``new_task`` in ``tasks``.

    Returns ``(position, route_travel_time_after)`` or None when every
    position violates a window or the latest-arrival constraint.  Runs a
    lean prefix-reusing scan: the timing state after each existing stop is
    computed once, and each candidate position only re-propagates the
    suffix.  ``dist`` optionally replaces the inline ``math.hypot`` with a
    shared travel-distance provider (e.g.
    :meth:`~repro.core.packed.PackedInstance.distance_between`); distances
    are identical either way, so results do not depend on it.

    ``min_position`` anchors the scan at a mid-route position: positions
    before it are never considered, which is how dynamic re-planning
    respects the committed prefix of a worker already en route (the stops
    the worker has departed toward cannot be reordered or preceded by a
    new stop).
    """
    departure = worker.earliest_departure
    latest = worker.latest_arrival
    dest = worker.destination
    sensing_flags = [isinstance(t, SensingTask) for t in tasks]
    new_is_sensing = isinstance(new_task, SensingTask)
    hypot = math.hypot

    # prefix[p]: clock after completing tasks[:p] (None once infeasible).
    prefix: list[float | None] = [departure]
    positions: list[Location] = [worker.origin]
    clock: float | None = departure
    for task, is_sensing in zip(tasks, sensing_flags):
        if clock is not None:
            prev = positions[-1]
            loc = task.location
            d = (dist(prev, loc) if dist is not None
                 else hypot(loc.x - prev.x, loc.y - prev.y))
            clock = _advance(clock, d, task, speed, is_sensing)
        prefix.append(clock)
        positions.append(task.location)

    new_loc = new_task.location
    best: tuple[int, float] | None = None
    for position in range(min_position, len(tasks) + 1):
        clock = prefix[position]
        if clock is None:
            break  # prefix already infeasible; later positions share it
        prev = positions[position]
        d = (dist(prev, new_loc) if dist is not None
             else hypot(new_loc.x - prev.x, new_loc.y - prev.y))
        clock = _advance(clock, d, new_task, speed, new_is_sensing)
        if clock is None:
            continue
        prev = new_loc
        ok = True
        for idx in range(position, len(tasks)):
            task = tasks[idx]
            loc = task.location
            d = (dist(prev, loc) if dist is not None
                 else hypot(loc.x - prev.x, loc.y - prev.y))
            clock = _advance(clock, d, task, speed, sensing_flags[idx])
            if clock is None:
                ok = False
                break
            prev = loc
            # A suffix stop finishing later than the pure-wait slack of the
            # remaining route cannot recover; the final check below catches it.
        if not ok:
            continue
        d = (dist(prev, dest) if dist is not None
             else hypot(dest.x - prev.x, dest.y - prev.y))
        clock += d / speed
        if clock > latest + 1e-9:
            continue
        rtt = clock - departure
        if best is None or rtt < best[1]:
            best = (position, rtt)
    return best


class InsertionSolver(PlannerBase):
    """Cheapest feasible insertion plus or-opt local search.

    Parameters
    ----------
    speed:
        Worker speed (m/min).
    improvement_rounds:
        Maximum or-opt sweeps after construction; 0 disables improvement.
    """

    def __init__(self, speed: float = DEFAULT_SPEED, improvement_rounds: int = 2,
                 use_two_opt: bool = False):
        self.speed = speed
        self.improvement_rounds = improvement_rounds
        self.use_two_opt = use_two_opt

    def bind_instance(self, instance) -> "BoundInsertionSolver":
        """The solver's binding to ``instance`` (kept on the instance).

        Kernels work unbound too (they compute a route's distances from
        coordinates on every call), but a binding reuses the instance's
        lazily built distance matrix across every planner call — and,
        through copy-on-write ``fork``, across pool children — and memoises
        each worker's base route: ``plan(worker, [])`` is a pure function
        of the (immutable) instance, and candidate sweeps re-request it
        every initialisation.  Each instance has its own binding, so
        worker ids, which restart in every instance, never collide.
        """
        return instance_binding(instance, self,
                                lambda: BoundInsertionSolver(self, instance))

    def _cheapest(self, worker: Worker, tasks: list, new_task,
                  min_position: int = 0) -> tuple[int, float] | None:
        # Single-insertion scans run the scalar engine: one position
        # against one task has no lanes to vectorize, and the
        # pure-Python scan (C-level math.hypot, unboxed floats) measures
        # faster than numpy element access at every route size.  The
        # packed kernels take over exactly where vectorization pays —
        # the batched sweep in :meth:`plan_insertions_many`.
        return cheapest_insertion_position(worker, tasks, new_task,
                                           self.speed,
                                           min_position=min_position)

    def _route_result(self, worker: Worker, tasks: Sequence,
                      known: tuple[bool, float] | None = None,
                      covers: bool | None = None,
                      pos: int | None = None) -> RouteResult:
        """Build the planner's result for a final task order.

        ``known`` is the (windows-feasible, rtt) pair when the kernel scan
        already established it — the scan replays the simulation's exact
        op sequence, so reusing its numbers instead of re-simulating is
        bitwise identical and skips a per-result repack.  ``covers``
        short-circuits the travel-coverage check when the caller knows it
        (inserting a sensing task cannot change travel-task membership).
        """
        route = WorkingRoute(worker, tuple(tasks), speed=self.speed)
        if known is not None:
            windows_ok, rtt = known
            if covers is None:
                covers = route.covers_all_travel_tasks()
            return _KernelResult(route, rtt, windows_ok and covers, pos=pos)
        result = RouteResult.from_route(route)
        if pos is not None:
            result = RouteResult(result.route, result.timing,
                                 result.feasible, pos=pos)
        return result

    # ------------------------------------------------------------------ #
    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        all_tasks = combined_tasks(worker, sensing_tasks)
        if not all_tasks:
            return self._route_result(worker, ())

        # Travel tasks first (windowless backbone), then sensing tasks by
        # window start so early windows are placed while slack remains.
        travel = list(worker.travel_tasks)
        sensing = sorted(sensing_tasks, key=lambda s: (s.tw_start, s.task_id))

        route_tasks: list = []
        for task in travel + sensing:
            best = self._cheapest(worker, route_tasks, task)
            if best is None:
                return RouteResult.infeasible()
            route_tasks.insert(best[0], task)

        route_tasks = self._or_opt(worker, route_tasks)
        if self.use_two_opt:
            route_tasks = self._two_opt(worker, route_tasks)
        return self._route_result(worker, route_tasks)

    def plan_with_insertion(self, worker: Worker, base_tasks: Sequence,
                            new_task, min_position: int = 0) -> RouteResult:
        """Insert one task into an existing feasible order (no reordering).

        The incremental feasibility check SMORE's candidate updates rely
        on: O(n^2) instead of rebuilding the whole route.  The result is a
        valid upper bound on the optimal route travel time.
        ``min_position`` anchors the scan mid-route (dynamic re-planning
        from a worker's committed position); 0 keeps the historical
        whole-route scan.
        """
        best = self._cheapest(worker, list(base_tasks), new_task,
                              min_position=min_position)
        if best is None:
            return RouteResult.infeasible()
        position, rtt = best
        tasks = list(base_tasks)
        tasks.insert(position, new_task)
        return self._route_result(worker, tasks, known=(True, rtt),
                                  pos=position)

    def plan_insertions_many(self, worker: Worker, base_tasks: Sequence,
                             new_tasks, min_position: int = 0,
                             dist: np.ndarray | None = None,
                             packed=None) -> InsertionSweep:
        """Check many single-task insertions into one base order.

        The batched entry point behind ``CandidateTable``'s init/recompute
        sweeps and the shard repair: one vectorized sweep scores every
        (position, task) lane at once (small batches loop the scalar
        scan).  ``new_tasks`` is a :class:`TaskBlock` or a sequence of
        sensing tasks.  ``min_position`` restricts every lane to positions
        at or past a worker's committed mid-route position; ``dist``
        optionally supplies the sweep's route-point x task distances
        (:func:`~repro.tsptw.kernels.sweep_insertions`); ``packed`` is the
        worker's instance's packed view, which a binding passes.  The
        answer is arrays (:class:`InsertionSweep`); no per-task result
        object is built.
        """
        if not isinstance(new_tasks, TaskBlock):
            new_tasks = list(new_tasks)
        base = list(base_tasks)
        if len(new_tasks) < _SWEEP_MIN_TASKS:
            pos = np.full(len(new_tasks), -1, dtype=np.intp)
            rtt = np.full(len(new_tasks), math.inf)
            for i, task in enumerate(new_tasks):
                best = self._cheapest(worker, base, task,
                                      min_position=min_position)
                if best is not None:
                    pos[i], rtt[i] = best
        else:
            with profile_scope("kernel.insertion_sweep"):
                pack = kernels.pack_route(worker, base, self.speed, packed)
                block = new_tasks if isinstance(new_tasks, TaskBlock) \
                    else TaskBlock.from_tasks(new_tasks)
                pos, rtt = kernels.sweep_insertions(
                    pack, block, min_position=min_position, dist=dist)
        return InsertionSweep(worker, base, new_tasks, pos, rtt, self.speed)

    def _two_opt(self, worker: Worker, tasks: list) -> list:
        """Classic 2-opt: reverse segments while feasible and improving.

        Time windows make many reversals infeasible, so this is a light
        polish on top of or-opt rather than the primary search.
        """
        if len(tasks) < 3:
            return tasks
        current = list(tasks)
        current_rtt = self._route_rtt(worker, current)[1]
        for _ in range(self.improvement_rounds):
            improved = False
            for i in range(len(current) - 1):
                for j in range(i + 1, len(current)):
                    candidate = (current[:i] + current[i:j + 1][::-1]
                                 + current[j + 1:])
                    feasible, rtt = self._route_rtt(worker, candidate)
                    if feasible and rtt < current_rtt - 1e-9:
                        current = candidate
                        current_rtt = rtt
                        improved = True
            if not improved:
                break
        return current

    def _route_rtt(self, worker: Worker, tasks: list) -> tuple[bool, float]:
        """(window-feasible, rtt) of an order."""
        timing = simulate_route(worker, tasks, speed=self.speed)
        return timing.feasible, timing.route_travel_time

    # ------------------------------------------------------------------ #
    def _or_opt(self, worker: Worker, tasks: list) -> list:
        """Relocate single tasks while the route travel time improves."""
        if len(tasks) < 2 or self.improvement_rounds <= 0:
            return tasks
        current = list(tasks)
        current_rtt = self._route_rtt(worker, current)[1]
        for _ in range(self.improvement_rounds):
            improved = False
            for i in range(len(current)):
                moved = current[i]
                rest = current[:i] + current[i + 1:]
                best = self._cheapest(worker, rest, moved)
                if best is not None and best[1] < current_rtt - 1e-9:
                    rest.insert(best[0], moved)
                    current = rest
                    current_rtt = best[1]
                    improved = True
            if not improved:
                break
        return current


class BoundInsertionSolver:
    """An :class:`InsertionSolver` bound to one instance.

    Holds the instance's packed arrays, which batched sweeps read, and the
    base-route memo keyed by ``worker_id``; every plan is the solver's
    own, so answers equal the unbound solver's bit for bit.  Workers
    passed in must belong to the instance.
    """

    def __init__(self, solver: InsertionSolver, instance):
        self.solver = solver
        self.speed = solver.speed
        self.packed = packed_instance(instance)
        self._base_routes: dict[int, RouteResult] = {}

    def base_route(self, worker: Worker) -> RouteResult:
        result = self._base_routes.get(worker.worker_id)
        if result is None:
            result = self._base_routes[worker.worker_id] = \
                self.solver.plan(worker, [])
        return result

    def plan(self, worker: Worker,
             sensing_tasks: Sequence[SensingTask]) -> RouteResult:
        return self.solver.plan(worker, sensing_tasks)

    def plan_with_insertion(self, worker: Worker, base_tasks: Sequence,
                            new_task, min_position: int = 0) -> RouteResult:
        return self.solver.plan_with_insertion(worker, base_tasks, new_task,
                                               min_position=min_position)

    def plan_insertions_many(self, worker: Worker, base_tasks: Sequence,
                             new_tasks, min_position: int = 0,
                             dist: np.ndarray | None = None
                             ) -> InsertionSweep:
        return self.solver.plan_insertions_many(
            worker, base_tasks, new_tasks, min_position=min_position,
            dist=dist, packed=self.packed)
