"""Partition -> solve -> merge for city-scale instances.

:func:`solve_sharded` runs the divide-and-conquer pipeline:

1. **Partition** the instance spatially (:mod:`repro.shard.partition`)
   and split the budget across non-empty shards in proportion to their
   worker counts (the last share absorbs rounding so shares sum exactly
   to the instance budget).
2. **Solve** each shard as its own USMDW sub-problem — serially through
   the caller's solver, or fanned out over a
   :class:`~repro.parallel.PersistentPool` whose resident workers read
   the shard's packed arrays zero-copy from shared memory.
3. **Merge**: shard worker sets are disjoint, so routes and incentives
   union without translation; then a **boundary-repair** pass sweeps the
   unassigned boundary tasks (the ones a spatial split treats worst)
   against *every* worker's current route with the batched insertion
   kernels, greedily applying the best coverage-per-incentive insertions
   until the leftover budget is exhausted.  The merged solution observes
   exactly the invariants of an unsharded solve — feasible routes, no
   task served twice, Definition-6 incentives, total spend within the
   one global budget — checkable via
   :meth:`repro.core.solution.Solution.validate`.

Per-shard solves bind their *own* packed sub-instance, so candidate
sweeps run over shard-width rows: at P shards both the O(|W| x |S|)
init sweep and every per-step table scan shrink by ~P, which is where
the wall-time scaling comes from even on one core.

With ``shards=1`` the call delegates directly to ``solver.solve`` and
the output is bit-identical to the unsharded path.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.incentive import IncentiveModel
from ..core.instance import USMDWInstance
from ..core.packed import PackedInstance
from ..core.perf import PerfCounters
from ..core.route import WorkingRoute
from ..core.solution import Solution
from ..parallel import PersistentPool, derive_seeds, shared_arrays
from ..tsptw.insertion import InsertionSolver
from .partition import ShardPlan, partition_instance, sub_instance

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
# Per-shard solving (serial + pool payload)
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


def _solve_one_local(solver, sub: USMDWInstance, seed, greedy: bool,
                     num_samples: int):
    rng = None if seed is None else np.random.default_rng(seed)
    solution = solver.solve(sub, greedy=greedy, rng=rng,
                            num_samples=num_samples)
    return (solution.routes, solution.incentives, solution.perf,
            solution.objective)


def _solve_shard_worker(payload):
    """Pool-side shard solve (module-level: picklable to a started pool).

    When the parent shared the shard's packed arrays, the worker attaches
    them zero-copy (:func:`repro.parallel.shared_arrays`) and rebuilds
    the :class:`PackedInstance` view around them; distances are the same
    ``math.hypot`` over the same floats, so results are bit-identical to
    a local solve.
    """
    (sub, greedy, seed, num_samples, shared_key, planner_cfg, policy,
     name) = payload
    from ..smore.solver import SMORESolver

    if shared_key is not None:
        arrays = shared_arrays(shared_key)
        if arrays is not None:
            packed = PackedInstance.from_arrays(sub.workers, arrays)
            object.__setattr__(sub, "_packed", packed)
    planner = InsertionSolver(**planner_cfg)
    solver = SMORESolver(planner, policy, name=name)
    rng = None if seed is None else np.random.default_rng(seed)
    solution = solver.solve(sub, greedy=greedy, rng=rng,
                            num_samples=num_samples)
    return (solution.routes, solution.incentives, solution.perf,
            solution.objective)


def _pool_solve(pool: PersistentPool, solver, subs: list[USMDWInstance],
                seeds: list, greedy: bool, num_samples: int):
    """Fan the shard solves out over a persistent pool, or None.

    Returns None — falling back to the serial path — when the solver's
    planner or policy cannot be reconstructed in a worker (only
    :class:`InsertionSolver` planners and picklable policies ship).
    """
    planner = solver.planner
    if type(planner) is not InsertionSolver:
        return None
    planner_cfg = dict(speed=planner.speed,
                       improvement_rounds=planner.improvement_rounds,
                       use_two_opt=planner.use_two_opt,
                       use_kernels=planner.use_kernels)
    payloads = []
    for i, (sub, seed) in enumerate(zip(subs, seeds)):
        key = f"shard:{sub.name}"
        packed = PackedInstance(sub.workers, sub.sensing_tasks)
        shared = pool.share_arrays(key, packed.export_arrays())
        payloads.append((sub, greedy, seed, num_samples,
                         key if shared else None, planner_cfg,
                         solver.policy, solver.name))
    try:
        pickle.dumps(payloads)
    except Exception:
        return None
    try:
        return pool.map(_solve_shard_worker, payloads)
    except TypeError:
        return None


# ---------------------------------------------------------------------- #
# Boundary repair
# ---------------------------------------------------------------------- #
def _boundary_repair(instance: USMDWInstance, planner_cfg: dict,
                     plan: ShardPlan, routes: dict, incentives: dict):
    """Cross-shard insertion sweeps over the unassigned boundary tasks.

    Every worker — recruited or not, from any shard — is swept against
    the boundary pool with the batched insertion kernels
    (:meth:`InsertionSolver.plan_insertions_many`, running
    :func:`repro.tsptw.kernels.sweep_insertions` underneath), then the
    best coverage-gain-per-incentive insertions apply greedily until no
    feasible candidate fits the leftover global budget.  Gains are
    re-read from the live merged coverage state at every pick, and only
    the changed worker is re-swept (other workers' routes — and hence
    their candidate positions and rtts — are untouched), so the loop
    stays O(picks x pool) after the initial sweep.

    Incentives are maintained against Definition 6 exactly (the sweep's
    rtt is bit-identical to the merged route's simulation), so the
    repaired solution still passes ``Solution.validate``.
    """
    planner = InsertionSolver(**planner_cfg)
    model = IncentiveModel(mu=instance.mu)
    workers = {w.worker_id: w for w in instance.workers}

    assigned = {t.task_id for route in routes.values()
                for t in route.sensing_tasks}
    pool_by_id = {
        tid: instance.sensing_task(tid)
        for tid in plan.boundary_task_ids() if tid not in assigned
    }
    stats = {"candidates": 0, "added": 0, "spent": 0.0}
    if not pool_by_id:
        return stats

    order: dict[int, tuple] = {}
    cur_inc: dict[int, float] = {}
    for wid, worker in workers.items():
        base = planner.plan(worker, [])
        if not base.feasible:
            continue
        model.set_base_rtt(worker, base.route_travel_time)
        if wid in routes:
            order[wid] = tuple(routes[wid].tasks)
            cur_inc[wid] = incentives.get(wid, 0.0)
        else:
            order[wid] = tuple(base.route.tasks)
            cur_inc[wid] = 0.0

    state = instance.coverage.new_state()
    for route in routes.values():
        for task in route.sensing_tasks:
            state.add(task)
    remaining = instance.budget - sum(incentives.values())

    def sweep(wid: int) -> dict:
        tasks = list(pool_by_id.values())
        if not tasks:
            return {}
        row = {}
        results = planner.plan_insertions_many(workers[wid], order[wid],
                                               tasks)
        for task, result in zip(tasks, results):
            if result.feasible:
                row[task.task_id] = (task, result.pos,
                                     result.route_travel_time)
        return row

    with obs.span("shard.repair", pool=len(pool_by_id)):
        cand = {wid: sweep(wid) for wid in order}
        stats["candidates"] = sum(len(row) for row in cand.values())
        touched: set[int] = set()
        while True:
            best = None
            best_key = None
            for wid, row in cand.items():
                worker = workers[wid]
                for tid, (task, pos, rtt_new) in row.items():
                    inc_new = model.incentive(worker, rtt_new)
                    delta = inc_new - cur_inc[wid]
                    if delta > remaining + 1e-9:
                        continue
                    gain = state.gain(task)
                    if gain <= 0.0:
                        continue
                    key = (-gain / max(delta, _EPS), delta, tid, wid)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (wid, tid, task, pos, rtt_new, inc_new)
            if best is None:
                break
            wid, tid, task, pos, rtt_new, inc_new = best
            order[wid] = order[wid][:pos] + (task,) + order[wid][pos:]
            remaining -= inc_new - cur_inc[wid]
            stats["spent"] += inc_new - cur_inc[wid]
            cur_inc[wid] = inc_new
            state.add(task)
            del pool_by_id[tid]
            for row in cand.values():
                row.pop(tid, None)
            cand[wid] = sweep(wid)
            touched.add(wid)
            stats["added"] += 1

        for wid in touched:
            routes[wid] = WorkingRoute(workers[wid], order[wid],
                                       speed=planner.speed)
            incentives[wid] = cur_inc[wid]
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

        t0 = time.perf_counter()
        results = None
        used_pool = False
        if pool is not None and subs:
            results = _pool_solve(pool, solver, subs, seeds, greedy,
                                  num_samples)
            used_pool = results is not None
        if results is None:
            results = [_solve_one_local(solver, sub, seed, greedy,
                                        num_samples)
                       for sub, seed in zip(subs, seeds)]
        wall_solve = time.perf_counter() - t0

        routes: dict[int, WorkingRoute] = {}
        incentives: dict[int, float] = {}
        perf = PerfCounters()
        phi_shards = []
        for shard_routes, shard_inc, shard_perf, shard_phi in results:
            routes.update(shard_routes)
            incentives.update(shard_inc)
            if shard_perf is not None:
                perf.merge(shard_perf)
            phi_shards.append(shard_phi)

        phi_before = instance.coverage.phi(
            [t for route in routes.values() for t in route.sensing_tasks])

        planner = solver.planner
        if type(planner) is InsertionSolver:
            planner_cfg = dict(speed=planner.speed,
                               improvement_rounds=planner.improvement_rounds,
                               use_two_opt=planner.use_two_opt,
                               use_kernels=planner.use_kernels)
        else:
            planner_cfg = None

        t0 = time.perf_counter()
        stats = {"candidates": 0, "added": 0, "spent": 0.0}
        if repair and planner_cfg is not None:
            stats = _boundary_repair(instance, planner_cfg, plan, routes,
                                     incentives)
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
