"""Test oracle: the boundary repair swept entirely in the parent.

``solve_sharded`` sweeps each shard's workers against the boundary
tasks inside the shard solves and keeps only the greedy pick loop in
the parent.  ``oracle_repair`` is the repair it replaced: every worker
of the instance gets its base route planned and its order swept against
the still-unassigned boundary pool here, with one unbound object-path
planner (the planner oracle of ``tests/tsptw/oracle.py``), before the
same greedy coverage-per-incentive pick loop.  Applied to the unrepaired
merge (``solve_sharded(..., repair=False)``) it must reproduce the
library's repaired routes, incentives and objective bitwise.
"""

from repro.core.incentive import IncentiveModel
from repro.core.route import WorkingRoute

from ..tsptw.oracle import ObjectInsertionSolver

_EPS = 1e-9


def oracle_repair(instance, planner_cfg, plan, routes, incentives):
    """Repair ``routes``/``incentives`` in place.

    Returns ``(candidates, added)``: feasible (worker, task) insertions
    of the initial sweep, and insertions applied.
    """
    planner = ObjectInsertionSolver(**planner_cfg)
    model = IncentiveModel(mu=instance.mu)
    workers = {w.worker_id: w for w in instance.workers}

    assigned = {t.task_id for route in routes.values()
                for t in route.sensing_tasks}
    pool_by_id = {tid: instance.sensing_task(tid)
                  for tid in plan.boundary_task_ids() if tid not in assigned}
    if not pool_by_id:
        return 0, 0

    order = {}
    cur_inc = {}
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

    def sweep(wid):
        tasks = list(pool_by_id.values())
        if not tasks:
            return {}
        results = planner.plan_insertions_many(workers[wid], order[wid],
                                               tasks)
        return {task.task_id: (task, result.pos, result.route_travel_time)
                for task, result in zip(tasks, results) if result.feasible}

    cand = {wid: sweep(wid) for wid in order}
    candidates = sum(len(row) for row in cand.values())
    added = 0
    touched = set()
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
                    best = (wid, tid, task, pos, inc_new)
        if best is None:
            break
        wid, tid, task, pos, inc_new = best
        order[wid] = order[wid][:pos] + (task,) + order[wid][pos:]
        remaining -= inc_new - cur_inc[wid]
        cur_inc[wid] = inc_new
        state.add(task)
        del pool_by_id[tid]
        for row in cand.values():
            row.pop(tid, None)
        cand[wid] = sweep(wid)
        touched.add(wid)
        added += 1

    for wid in touched:
        routes[wid] = WorkingRoute(workers[wid], order[wid],
                                   speed=planner.speed)
        incentives[wid] = cur_inc[wid]
    return candidates, added
