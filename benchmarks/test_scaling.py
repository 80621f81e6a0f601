"""Empirical check of the complexity analysis (paper Section III-D).

The paper derives: candidate initialisation costs |W| x |S| planner calls;
each selection iteration re-plans only the chosen worker's candidates
(O(|S|) calls), while the greedy baselines re-scan all |W| x |S|
insertions per step.  This bench counts actual planner calls and wall
time as |S| grows, verifying both the exact call counts and the resulting
runtime separation between SMORE and the greedy baselines.
"""

import time

import numpy as np

from repro.baselines import TVPGSolver
from repro.datasets import InstanceOptions, generate_instances
from repro.smore import RatioSelectionRule, SelectionEnv, SMORESolver
from repro.tsptw import InsertionSolver

from .conftest import write_artifact

DENSITIES = (0.08, 0.15, 0.3)


def test_planner_call_scaling(benchmark, results_dir):
    def run():
        rows = []
        for density in DENSITIES:
            options = InstanceOptions(task_density=density)
            instance = generate_instances("delivery", 1, seed=100,
                                          options=options)[0]
            env = SelectionEnv(instance, InsertionSolver())
            state = env.reset()
            init_calls = state.candidates.planner_calls
            # One selection step: only the chosen worker's row refreshes.
            table = state.candidates
            row = int(table.live_rows()[0])
            worker_id = table.workers[row].worker_id
            task_id = int(table.task_ids[table.mask[row]][0])
            env.step(worker_id, task_id)
            step_calls = state.candidates.planner_calls - init_calls

            start = time.perf_counter()
            smore = SMORESolver(InsertionSolver(),
                                RatioSelectionRule()).solve(instance)
            smore_time = time.perf_counter() - start
            start = time.perf_counter()
            TVPGSolver().solve(instance)
            greedy_time = time.perf_counter() - start

            rows.append({
                "S": instance.num_sensing_tasks,
                "W": instance.num_workers,
                "init_calls": init_calls,
                "step_calls": step_calls,
                "smore_time": smore_time,
                "greedy_time": greedy_time,
            })
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    lines = ["Scaling — planner calls and wall time vs |S| (Section III-D)",
             "=" * 62]
    for r in rows:
        lines.append(
            f"  |S|={r['S']:<4} |W|={r['W']} init_calls={r['init_calls']:<5} "
            f"step_calls={r['step_calls']:<4} "
            f"SMORE={r['smore_time']:.2f}s TVPG={r['greedy_time']:.2f}s "
            f"(x{r['greedy_time'] / max(r['smore_time'], 1e-9):.1f})")
    text = "\n".join(lines)
    write_artifact(results_dir, "scaling.txt", text)
    print("\n" + text)

    for r in rows:
        # Initialisation: exactly |W| x |S| feasibility checks.
        assert r["init_calls"] == r["W"] * r["S"]
        # One iteration: at most |S| re-checks (selected worker only).
        assert r["step_calls"] <= r["S"]
    # The greedy baseline's per-step |W| x |S| scan makes it slower, and
    # increasingly so as |S| grows.
    assert rows[-1]["greedy_time"] > rows[-1]["smore_time"]