"""Partition -> solve -> merge for city-scale instances.

:func:`solve_sharded` runs the divide-and-conquer pipeline:

1. **Partition** the instance spatially (:mod:`repro.shard.partition`)
   and split the budget across non-empty shards in proportion to their
   worker counts (the last share absorbs rounding so shares sum exactly
   to the instance budget).
2. **Solve** each shard as its own USMDW sub-problem — serially through
   the caller's solver, or fanned out over a
   :class:`~repro.parallel.PersistentPool` whose resident workers read
   the shard's packed arrays and the policy's weights zero-copy from
   shared memory.  After its solve, each shard sweeps its own workers'
   routes against the boundary tasks it left unserved (the ones a
   spatial split treats worst), so the repair's per-worker sweeps run
   in the parallel phase.  The boundary tasks travel to the shards as
   one :class:`~repro.tsptw.kernels.TaskBlock` of arrays, and the
   sweeps come back as arrays over it.
3. **Merge**: shard worker sets are disjoint, so routes and incentives
   union without translation; then a **boundary-repair** pass offers
   the still-unassigned boundary tasks to *every* worker, greedily
   applying the best coverage-per-incentive insertions until the
   leftover budget is exhausted.  The merged solution observes exactly
   the invariants of an unsharded solve — feasible routes, no task
   served twice, Definition-6 incentives, total spend within the one
   global budget — checkable via
   :meth:`repro.core.solution.Solution.validate`.

Per-shard solves bind their *own* packed sub-instance, so candidate
sweeps run over shard-width rows: at P shards both the O(|W| x |S|)
init sweep and every per-step table scan shrink by ~P, which is where
the wall-time scaling comes from even on one core.

With ``shards=1`` the call delegates directly to ``solver.solve`` and
the output is bit-identical to the unsharded path.
"""

from __future__ import annotations

import io
import pickle
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.incentive import IncentiveModel
from ..core.instance import USMDWInstance
from ..core.packed import PackedInstance
from ..core.perf import PerfCounters
from ..core.route import WorkingRoute
from ..core.solution import Solution
from ..parallel import (PersistentPool, _shm_module, derive_seeds,
                        shared_arrays)
from ..tsptw.base import bind
from ..tsptw.insertion import InsertionSolver
from ..tsptw.kernels import TaskBlock
from .partition import partition_instance, sub_instance

__all__ = ["ShardReport", "solve_sharded"]

#: Ratio floor for the repair score gain/delta (a zero-cost insertion is
#: strictly best at equal gain).
_EPS = 1e-9


@dataclass
class ShardReport:
    """Accounting of one sharded solve, attached as ``solution.shard_report``."""

    num_shards: int
    method: str
    margin: float
    shard_tasks: tuple[int, ...] = ()
    shard_workers: tuple[int, ...] = ()
    budget_shares: tuple[float, ...] = ()
    boundary_tasks: int = 0
    used_pool: bool = False
    phi_shards: tuple[float, ...] = ()
    phi_before_repair: float = 0.0
    phi_after_repair: float = 0.0
    repair_candidates: int = 0
    repair_added: int = 0
    repair_spent: float = 0.0
    wall_partition: float = 0.0
    wall_solve: float = 0.0
    wall_repair: float = 0.0

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "method": self.method,
            "margin": self.margin,
            "shard_tasks": list(self.shard_tasks),
            "shard_workers": list(self.shard_workers),
            "budget_shares": list(self.budget_shares),
            "boundary_tasks": self.boundary_tasks,
            "used_pool": self.used_pool,
            "phi_shards": list(self.phi_shards),
            "phi_before_repair": self.phi_before_repair,
            "phi_after_repair": self.phi_after_repair,
            "repair_candidates": self.repair_candidates,
            "repair_added": self.repair_added,
            "repair_spent": self.repair_spent,
            "wall_partition": self.wall_partition,
            "wall_solve": self.wall_solve,
            "wall_repair": self.wall_repair,
        }


# ---------------------------------------------------------------------- #
# Publishing the policy to a pool
# ---------------------------------------------------------------------- #
#: Per pool: the (skeleton bytes, parameter layout) last published to it.
_PUBLISHED: "weakref.WeakKeyDictionary[PersistentPool, tuple]" = \
    weakref.WeakKeyDictionary()

#: Worker side, per policy key: the published array set and the policy
#: rebuilt around it (rebuilt again when a new block replaces the set).
_REBUILT: dict[str, tuple[dict, object]] = {}


class _SkeletonPickler(pickle.Pickler):
    """Pickles a policy without its weights: each parameter's ``data``
    becomes its index, and gradients are dropped."""

    def __init__(self, file, params):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._slots = {id(p.data): i for i, p in enumerate(params)}
        self._grads = {id(p.grad) for p in params if p.grad is not None}

    def persistent_id(self, obj):
        ident = id(obj)
        if ident in self._slots:
            return self._slots[ident]
        return -1 if ident in self._grads else None


class _SkeletonUnpickler(pickle.Unpickler):
    def __init__(self, file, params: list):
        super().__init__(file)
        self._params = params

    def persistent_load(self, pid):
        return None if pid < 0 else self._params[pid]


def _publish_policy(pool: PersistentPool, policy) -> str | None:
    """Make ``policy`` current in ``pool``'s workers; its key, or None.

    The policy travels as a parameter-free skeleton plus one shared
    array per parameter.  Every call re-pickles the skeleton (cheap) and
    re-publishes when it or any parameter's shape or dtype changed;
    otherwise it copies the current weights into the shared views, so
    in-place updates, rebound ``.data`` arrays and changed
    hyperparameters all reach the workers.  None — solve serially — when
    the skeleton cannot be pickled or the platform lacks shared memory.
    """
    if _shm_module() is None:
        return None
    params = list(policy.parameters()) if hasattr(policy, "parameters") \
        else []
    buf = io.BytesIO()
    try:
        _SkeletonPickler(buf, params).dump(policy)
    except Exception:
        return None
    skeleton = buf.getvalue()
    layout = tuple((p.data.shape, p.data.dtype.str) for p in params)
    # One key per pool: the parent-side view registry is process-wide.
    key = f"shard:policy:{id(pool):x}"
    views = shared_arrays(key) \
        if _PUBLISHED.get(pool) == (skeleton, layout) else None
    if views is not None:
        for i, param in enumerate(params):
            np.copyto(views[f"p{i}"], param.data)
        return key
    arrays = {"skeleton": np.frombuffer(skeleton, dtype=np.uint8)}
    arrays.update((f"p{i}", param.data) for i, param in enumerate(params))
    if not pool.share_arrays(key, arrays):
        _PUBLISHED.pop(pool, None)
        return None
    _PUBLISHED[pool] = (skeleton, layout)
    return key


def _published_policy(key: str):
    """The policy published under ``key``, rebuilt once per block; its
    parameters are views of the shared block, not copies."""
    arrays = shared_arrays(key)
    cached = _REBUILT.get(key)
    if cached is None or cached[0] is not arrays:
        _REBUILT.pop(key, None)  # release the old block's views first
        params = [arrays[f"p{i}"] for i in range(len(arrays) - 1)]
        skeleton = io.BytesIO(arrays["skeleton"].tobytes())
        cached = _REBUILT[key] = (
            arrays, _SkeletonUnpickler(skeleton, params).load())
    return cached[1]


# ---------------------------------------------------------------------- #
# Per-shard solving
# ---------------------------------------------------------------------- #
def _shard_seeds(rng, greedy: bool, num_samples: int, count: int) -> list:
    """One derived seed per shard, or all-None for pure greedy decoding.

    The root is drawn once off the caller's rng, so the schedule — and
    therefore the merged solution — is identical whether shards solve
    serially or across a pool, mirroring ``SMORESolver._rollout_plan``.
    """
    if rng is None and greedy and num_samples == 1:
        return [None] * count
    rng = rng or np.random.default_rng()
    root = int(rng.integers(0, 2**63 - 1))
    return list(derive_seeds(root, count))


@dataclass
class _ShardJob:
    """One shard solve: the sub-instance plus everything to solve it.

    ``solver`` is the caller's solver and never leaves the process: a
    pool worker receives the job without it and rebuilds the solver
    around the published policy (``policy_key``) and the shard's packed
    arrays (``packed_key``).  ``boundary`` is the block of boundary tasks
    to sweep for the repair (pickled as arrays), None when there is no
    repair.
    """

    sub: USMDWInstance
    seed: object
    greedy: bool
    num_samples: int
    planner_cfg: dict | None
    boundary: TaskBlock | None
    solver: object = None
    policy_key: str | None = None
    packed_key: str | None = None
    name: str = ""

    def __getstate__(self):
        return {**self.__dict__, "solver": None}


def _solve_shard(job: _ShardJob):
    """Solve one shard, then sweep its workers for the boundary repair.

    The serial and the pooled path both run this.  Returns ``(routes,
    incentives, perf, objective, repair_rows)``: ``repair_rows[wid]`` is
    the worker's :func:`_repair_rows` row — its final order swept against
    the boundary tasks this shard left unserved, with the solve's own
    :class:`InsertionSolver` (configured like the planner
    :func:`_boundary_repair` uses, so the floats match) bound to the
    shard, whose base-route memo already holds every worker's base route.  In a worker, the
    shard's packed arrays are attached zero-copy
    (:func:`repro.parallel.shared_arrays`); most boundary tasks lie
    outside that view, so every worker's route points x the boundary
    block are one :func:`~repro.core.geometry.hypot_array` call, the same
    floats as ``math.hypot``: results are bit-identical to an in-process
    solve.
    """
    sub, solver = job.sub, job.solver
    if solver is None:
        from ..smore.solver import SMORESolver

        arrays = shared_arrays(job.packed_key) \
            if job.packed_key is not None else None
        if arrays is not None:
            packed = PackedInstance.from_arrays(sub.workers, arrays)
            object.__setattr__(sub, "_packed", packed)
        solver = SMORESolver(InsertionSolver(**job.planner_cfg),
                             _published_policy(job.policy_key),
                             name=job.name)
    rng = None if job.seed is None else np.random.default_rng(job.seed)
    solution = solver.solve(sub, greedy=job.greedy, rng=rng,
                            num_samples=job.num_samples)
    rows = {}
    if job.boundary is not None:
        served = [t.task_id for route in solution.routes.values()
                  for t in route.sensing_tasks]
        unserved = np.flatnonzero(~np.isin(job.boundary.ids, served))
        rows = _repair_rows(bind(solver.planner, sub), sub.workers,
                            solution.routes, job.boundary, unserved)
    return (solution.routes, solution.incentives, solution.perf,
            solution.objective, rows)


def _pool_solve(pool: PersistentPool, solver, jobs: list[_ShardJob]):
    """Fan the shard jobs out over a persistent pool, or None.

    Returns None — falling back to the serial path — when the solver's
    planner is not an :class:`InsertionSolver` or its policy cannot be
    published (:func:`_publish_policy`).  Shard arrays are keyed by
    slot, so a pool holds at most one block per shard plus the policy.
    """
    if jobs[0].planner_cfg is None:
        return None
    policy_key = _publish_policy(pool, solver.policy)
    if policy_key is None:
        return None
    for slot, job in enumerate(jobs):
        key = f"shard:{slot}"
        packed = PackedInstance(job.sub.workers, job.sub.sensing_tasks)
        job.packed_key = key if pool.share_arrays(
            key, packed.export_arrays()) else None
        job.policy_key = policy_key
    return pool.map(_solve_shard, jobs)


# ---------------------------------------------------------------------- #
# Boundary repair
# ---------------------------------------------------------------------- #
def _sweep_rows(planner: InsertionSolver, workers: list, orders: list,
                block: TaskBlock, cols: np.ndarray) -> list:
    """``(pos, rtt)`` over the whole block for each worker's order swept
    against the block's columns ``cols`` (``-1``/``inf`` elsewhere and
    where no insertion is feasible).

    The distances from every order's route points to the swept tasks are
    one :func:`~repro.core.geometry.hypot_array` call; each worker's
    batched sweep reads its slice.
    """
    swept = block.take(cols)
    xs, ys = [], []
    for worker, order in zip(workers, orders):
        for loc in [worker.origin, *(t.location for t in order),
                    worker.destination]:
            xs.append(loc.x)
            ys.append(loc.y)
    dist = swept.distances(np.array(xs), np.array(ys)) if len(cols) else None
    out = []
    at = 0
    for worker, order in zip(workers, orders):
        pos = np.full(len(block), -1, dtype=np.intp)
        rtt = np.full(len(block), np.inf)
        k = len(order) + 2
        if len(cols):
            sweep = planner.plan_insertions_many(worker, order, swept,
                                                 dist=dist[at:at + k])
            hit = np.flatnonzero(sweep.feasible)
            pos[cols[hit]] = sweep.pos[hit]
            rtt[cols[hit]] = sweep.rtt[hit]
        at += k
        out.append((pos, rtt))
    return out


def _repair_rows(planner: InsertionSolver, workers, routes: dict,
                 block: TaskBlock, cols: np.ndarray) -> dict:
    """Each worker's repair row, by worker id.

    None when the worker's base route is infeasible, else ``(base_rtt,
    order_ids, pos, rtt)``: its route (the base route when it has none)
    swept against the block's columns ``cols`` (:func:`_sweep_rows`),
    and the swept order's task ids (:func:`_order_from_ids` rebuilds it).
    """
    rows: dict = {}
    live, orders, base_rtts = [], [], []
    for worker in workers:
        base = planner.base_route(worker)
        if not base.feasible:
            rows[worker.worker_id] = None
            continue
        route = routes.get(worker.worker_id)
        live.append(worker)
        orders.append(tuple((base.route if route is None else route).tasks))
        base_rtts.append(base.route_travel_time)
    swept = _sweep_rows(planner, live, orders, block, cols)
    for worker, order, base_rtt, (pos, rtt) in zip(live, orders, base_rtts,
                                                  swept):
        rows[worker.worker_id] = (
            base_rtt, tuple(t.task_id for t in order), pos, rtt)
    return rows


def _order_from_ids(worker, routes: dict, ids: tuple) -> tuple:
    """The order a repair row was swept from: the worker's merged route,
    or — for a worker without one — its base route, which visits only
    the worker's own travel tasks."""
    route = routes.get(worker.worker_id)
    if route is not None:
        return tuple(route.tasks)
    travel = {t.task_id: t for t in worker.travel_tasks}
    return tuple(travel[i] for i in ids)


def _pick(ok: np.ndarray, gains: np.ndarray, delta: np.ndarray):
    """The repair's arg-best ``(row, col)`` over live pairs ``ok``.

    The lexicographic minimum of ``(-gain / max(delta, eps), delta, task
    id, worker id)`` — rows are in ascending worker id and columns in
    ascending task id, so the first tied column, then its first tied row,
    break the remaining ties.
    """
    keys = np.where(ok, -gains / np.maximum(delta, _EPS), np.inf)
    tied = ok & (keys == keys.min())
    cheapest = np.where(tied, delta, np.inf)
    tied &= cheapest == cheapest.min()
    c = int(np.flatnonzero(tied.any(axis=0))[0])
    return int(np.flatnonzero(tied[:, c])[0]), c


def _boundary_repair(instance: USMDWInstance, planner_cfg: dict,
                     block: TaskBlock, routes: dict, incentives: dict,
                     rows: dict):
    """Cross-shard insertions of the unassigned boundary tasks.

    Every worker — recruited or not, from any shard — is a candidate
    for every unassigned task of the boundary ``block``.  Its initial
    sweep comes from ``rows`` (the shard solves swept their own workers,
    see :func:`_solve_shard`), masked to the still-unassigned pool; only
    workers without a row — those of shards with no tasks — are swept
    here.  Then the best coverage-gain-per-incentive insertions apply
    greedily until no feasible candidate fits the leftover global
    budget.

    The pick loop runs on ``(worker, boundary task)`` planes, rows in
    ascending worker id and columns in ascending task id: incentives via
    :meth:`IncentiveModel.incentives`, gains re-read from the live merged
    coverage state at every pick via :meth:`CoverageState.gain_many`, and
    one lexicographic arg-best over ``(-gain / max(delta, eps), delta,
    task id, worker id)``.  Only the changed worker is re-swept (other
    workers' routes — and hence their candidate positions and rtts — are
    untouched), so the loop stays O(picks x pool).

    Incentives are maintained against Definition 6 exactly (the sweep's
    rtt is bit-identical to the merged route's simulation), so the
    repaired solution still passes ``Solution.validate``.
    """
    planner = InsertionSolver(**planner_cfg)
    model = IncentiveModel(mu=instance.mu)
    tasks = [instance.sensing_task(tid) for tid in block.ids.tolist()]

    assigned = [t.task_id for route in routes.values()
                for t in route.sensing_tasks]
    pool = ~np.isin(block.ids, assigned)
    stats = {"candidates": 0, "added": 0, "spent": 0.0}
    if not pool.any():
        return stats

    bins = instance.coverage.bins(tasks)
    state = instance.coverage.new_state()
    for route in routes.values():
        for task in route.sensing_tasks:
            state.add(task)
    remaining = instance.budget - sum(incentives.values())

    with obs.span("shard.repair", pool=int(pool.sum())):
        rows = dict(rows)
        rows.update(_repair_rows(
            planner, [w for w in instance.workers if w.worker_id not in rows],
            routes, block, np.flatnonzero(pool)))
        workers = sorted((instance.worker(wid) for wid, row in rows.items()
                          if row is not None), key=lambda w: w.worker_id)
        orders, cur_inc = [], []
        pos = np.empty((len(workers), len(block)), dtype=np.intp)
        inc = np.empty((len(workers), len(block)))
        for r, worker in enumerate(workers):
            base_rtt, ids, pos[r], rtt = rows[worker.worker_id]
            model.set_base_rtt(worker, base_rtt)
            inc[r] = model.incentives(worker, rtt)
            orders.append(_order_from_ids(worker, routes, ids))
            cur_inc.append(incentives.get(worker.worker_id, 0.0))
        valid = (pos >= 0) & pool
        delta = inc - np.array(cur_inc)[:, None]
        stats["candidates"] = int(valid.sum())
        touched: set[int] = set()
        while True:
            ok = valid & ~(delta > remaining + 1e-9)
            live = np.flatnonzero(ok.any(axis=0))
            if not live.size:
                break
            gains = np.zeros(len(block))
            gains[live] = state.gain_many(bins[live])
            ok &= gains > 0.0
            if not ok.any():
                break
            r, c = _pick(ok, gains, delta)
            task, p, inc_new = tasks[c], int(pos[r, c]), float(inc[r, c])
            orders[r] = orders[r][:p] + (task,) + orders[r][p:]
            remaining -= inc_new - cur_inc[r]
            stats["spent"] += inc_new - cur_inc[r]
            cur_inc[r] = inc_new
            state.add(task)
            pool[c] = False
            valid[:, c] = False
            (pos[r], rtt), = _sweep_rows(planner, [workers[r]], [orders[r]],
                                         block, np.flatnonzero(pool))
            inc[r] = model.incentives(workers[r], rtt)
            delta[r] = inc[r] - inc_new
            valid[r] = pos[r] >= 0
            touched.add(r)
            stats["added"] += 1

        for r in touched:
            routes[workers[r].worker_id] = WorkingRoute(
                workers[r], orders[r], speed=planner.speed)
            incentives[workers[r].worker_id] = cur_inc[r]
    obs.count("shard.repair_added", stats["added"])
    return stats


# ---------------------------------------------------------------------- #
# The pipeline
# ---------------------------------------------------------------------- #
def solve_sharded(solver, instance: USMDWInstance, shards: int,
                  method: str = "grid", margin: float | None = None,
                  pool: PersistentPool | None = None, greedy: bool = True,
                  rng: np.random.Generator | None = None,
                  num_samples: int = 1, repair: bool = True) -> Solution:
    """Solve ``instance`` via spatial sharding; see the module docstring.

    ``shards=1`` delegates straight to ``solver.solve`` (bit-identical
    output).  ``pool`` optionally fans the shard solves out over a
    :class:`~repro.parallel.PersistentPool`; without one (or when the
    solver cannot ship to a worker) shards solve serially in-process,
    which still captures the divide-and-conquer savings.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        solution = solver.solve(instance, greedy=greedy, rng=rng,
                                num_samples=num_samples)
        solution.shard_report = ShardReport(
            num_shards=1, method=method, margin=0.0,
            shard_tasks=(instance.num_sensing_tasks,),
            shard_workers=(instance.num_workers,),
            budget_shares=(instance.budget,),
            phi_shards=(solution.objective,),
            phi_before_repair=solution.objective,
            phi_after_repair=solution.objective,
            wall_solve=solution.wall_time)
        return solution

    start = time.perf_counter()
    with obs.span("solve_sharded", shards=shards, method=method,
                  workers=instance.num_workers,
                  tasks=instance.num_sensing_tasks):
        t0 = time.perf_counter()
        plan = partition_instance(instance, shards, method=method,
                                  margin=margin)
        wall_partition = time.perf_counter() - t0

        active = [s for s in plan.shards if s.num_workers and s.num_tasks]
        shares: dict[int, float] = {}
        if active:
            total_workers = sum(s.num_workers for s in active)
            acc = 0.0
            for s in active[:-1]:
                share = instance.budget * s.num_workers / total_workers
                shares[s.index] = share
                acc += share
            shares[active[-1].index] = instance.budget - acc
        subs = [sub_instance(instance, s, shares[s.index]) for s in active]
        seeds = _shard_seeds(rng, greedy, num_samples, len(subs))

        planner = solver.planner
        if type(planner) is InsertionSolver:
            planner_cfg = dict(speed=planner.speed,
                               improvement_rounds=planner.improvement_rounds,
                               use_two_opt=planner.use_two_opt)
        else:
            planner_cfg = None
        boundary_ids = plan.boundary_task_ids()
        boundary = TaskBlock.from_tasks(
            instance.sensing_task(tid) for tid in boundary_ids) \
            if repair and planner_cfg is not None and boundary_ids else None
        jobs = [_ShardJob(sub, seed, greedy, num_samples, planner_cfg,
                          boundary, solver=solver, name=solver.name)
                for sub, seed in zip(subs, seeds)]

        t0 = time.perf_counter()
        results = None
        if pool is not None and jobs:
            results = _pool_solve(pool, solver, jobs)
        used_pool = results is not None
        if results is None:
            results = [_solve_shard(job) for job in jobs]
        wall_solve = time.perf_counter() - t0

        routes: dict[int, WorkingRoute] = {}
        incentives: dict[int, float] = {}
        rows: dict[int, tuple | None] = {}
        perf = PerfCounters()
        phi_shards = []
        for shard_routes, shard_inc, shard_perf, shard_phi, shard_rows \
                in results:
            routes.update(shard_routes)
            incentives.update(shard_inc)
            rows.update(shard_rows)
            if shard_perf is not None:
                perf.merge(shard_perf)
            phi_shards.append(shard_phi)

        phi_before = instance.coverage.phi(
            [t for route in routes.values() for t in route.sensing_tasks])

        t0 = time.perf_counter()
        stats = {"candidates": 0, "added": 0, "spent": 0.0}
        if boundary is not None:
            stats = _boundary_repair(instance, planner_cfg, boundary,
                                     routes, incentives, rows)
        wall_repair = time.perf_counter() - t0

        phi_after = instance.coverage.phi(
            [t for route in routes.values() for t in route.sensing_tasks])
        elapsed = time.perf_counter() - start
        obs.gauge("shard.count", len(active))
        obs.gauge("shard.boundary_tasks", len(plan.boundary_task_ids()))
        obs.event("solve_sharded.done", shards=shards, method=method,
                  used_pool=used_pool, phi_before=round(phi_before, 6),
                  phi_after=round(phi_after, 6),
                  repair_added=stats["added"],
                  wall_time=round(elapsed, 6))

    solution = Solution(
        instance=instance,
        routes=routes,
        incentives=incentives,
        solver_name=solver.name,
        wall_time=elapsed,
        perf=perf,
    )
    solution.shard_report = ShardReport(
        num_shards=shards, method=method, margin=plan.margin,
        shard_tasks=tuple(s.num_tasks for s in plan.shards),
        shard_workers=tuple(s.num_workers for s in plan.shards),
        budget_shares=tuple(shares.get(s.index, 0.0) for s in plan.shards),
        boundary_tasks=len(plan.boundary_task_ids()),
        used_pool=used_pool,
        phi_shards=tuple(phi_shards),
        phi_before_repair=phi_before,
        phi_after_repair=phi_after,
        repair_candidates=stats["candidates"],
        repair_added=stats["added"],
        repair_spent=stats["spent"],
        wall_partition=wall_partition,
        wall_solve=wall_solve,
        wall_repair=wall_repair,
    )
    return solution
