"""``python -m bench``: repeated runs of every workload, summarised.

Each run is a fresh subprocess (its own RSS, caches and pool lifetime)
with BLAS threads pinned and ``REPRO_*`` removed.  Runs alternate between
workloads so slow drift of the machine spreads over all of them.  The
report gives, per workload and metric, the median and the IQR over runs;
every run of one seed must agree on ``phi_mean`` and on the digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from .env import ROOT, pinned_environ
from .machine import machine_facts
from .metrics import load_catalog, spread

#: A run may take this long before the suite gives up on it.
RUN_TIMEOUT_S = 900


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh interpreter; returns its result and record."""
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, env=pinned_environ(os.environ),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode} "
                           "without a result")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "returncode": done.returncode}


def _print_runs(workload: str, runs: list, section: list) -> None:
    record = runs[0]["record"]
    print(f"\n{workload}: {len(runs)} run(s), seed {record['seed']}, "
          f"{record['seconds']} s, digest {record['digest'][:16]}")
    print(f"  {'metric':<32} {'unit':<10} {'median':>12} {'IQR/median':>11}")
    for metric in section:
        values = [run["result"]["metrics"][metric["name"]]["value"]
                  for run in runs]
        stats = spread(values)
        print(f"  {metric['name']:<32} {metric['unit']:<10} "
              f"{stats['median']:>12.5g} {stats['iqr_frac']:>10.2%}")
    tails = [run["record"].get("latency_tail_ms") for run in runs]
    if all(tails):
        stats = spread(tail["value"] for tail in tails)
        print(f"  latency p{tails[0]['percentile']} (unbounded; "
              f"{tails[0]['samples']} samples) {'ms':<3} "
              f"{stats['median']:>12.5g} {stats['iqr_frac']:>10.2%}")


def _consistency(workload: str, runs: list) -> list[str]:
    problems = []
    for run in runs:
        if not run["result"]["correct"] or run["returncode"]:
            problems.append(f"{workload}: a run failed the correctness gate: "
                            f"{run['record']['problems'][:3]}")
    digests = {run["record"]["digest"] for run in runs}
    phis = {run["result"]["metrics"]["phi_mean"]["value"] for run in runs
            if "phi_mean" in run["result"]["metrics"]}
    if len(digests) > 1 or len(phis) > 1:
        problems.append(f"{workload}: runs of one seed disagree "
                        f"({len(digests)} digests, {len(phis)} phi_mean)")
    return problems


def run_suite(workloads: list[str], seed: int, seconds: float, repeats: int,
              sets: int, trace: bool, out=None) -> int:
    catalog = load_catalog()
    doc = {"schema": 1, "machine": machine_facts(seed),
           "config": {"workloads": workloads, "seed": seed,
                      "seconds": seconds, "repeats": repeats, "sets": sets},
           "sets": [], "trace": {}}
    every_run = {workload: [] for workload in workloads}
    for set_index in range(sets):
        runs = {workload: [] for workload in workloads}
        for _ in range(repeats):
            for workload in workloads:
                runs[workload].append(run_child(workload, seed, seconds,
                                                trace=False))
        doc["sets"].append(runs)
        print(f"\n=== set {set_index + 1}/{sets}: end-to-end metrics ===")
        for workload in workloads:
            _print_runs(workload, runs[workload], catalog["end_to_end"])
            every_run[workload] += runs[workload]
    if trace:
        print("\n=== traced run: per-layer metrics ===")
        for workload in workloads:
            run = run_child(workload, seed, seconds, trace=True)
            doc["trace"][workload] = run
            _print_runs(workload, [run], catalog["per_layer"])
            every_run[workload].append(run)
    problems = [problem for workload in workloads
                for problem in _consistency(workload, every_run[workload])]
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0
