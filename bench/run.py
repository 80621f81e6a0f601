"""One benchmark run: one workload, one seed, traced or untraced.

The untraced run sets up ``SETUP_REPEATS`` times (reporting the median
as ``setup_s``; the last set-up is kept), measures the closed loop for
the requested seconds, tears down, and applies the correctness gate.

The traced run first repeats the untraced measurement once, then sets up
again with the layer wrappers installed and replays exactly as many
operations traced.  Per-layer numbers come from the traced pass;
``trace.overhead_frac`` is the traced wall over the untraced wall of the
same operations, minus one.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker

from repro.parallel import PersistentPool

from .env import ROOT
from .layers import (layer_table, layer_targets, module_of, self_time_total,
                     span_metrics)
from .machine import machine_facts
from .metrics import load_catalog, percentile
from .trace import Tracer
from .workloads import WORKLOADS, Pass, digest_of

SETUP_REPEATS = 3
SPANS_DIR = ROOT / "bench" / "out"


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Workload teardown closes its pool; this also covers error paths, and
    the ``multiprocessing`` resource tracker, a helper process that the
    first ``shared_memory`` block starts.  Left alone, the tracker ends
    only after this process has exited, and nothing waits for it.
    """
    for pool in PersistentPool.active_pools():
        pool.close()
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


def latency_tail(latencies) -> dict | None:
    """The highest of p99/p95/p90/p75 with at least 10 samples beyond it.

    Reported in the record, not bounded: on a small shared host the tail
    of one run moves with neighbours' load far more than the median.
    """
    for q in (99, 95, 90, 75):
        if len(latencies) * (100 - q) / 100 >= 10:
            return {"percentile": q, "samples": len(latencies),
                    "value": percentile(latencies, q) * 1e3}
    return None


def _gate(workload, state, timed: Pass) -> list[tuple]:
    """Correctness problems of a pass as ``(op index or None, text)``."""
    problems = [(None, f"quality-prefix op {i} never ran")
                for i in range(workload.min_ops) if i not in timed.outputs]
    raised = [(i, out) for i, out in sorted(timed.outputs.items())
              if isinstance(out, Exception)]
    if raised:
        traceback.print_exception(raised[0][1], file=sys.stderr)
    problems += [(i, f"raised {type(out).__name__}: {out}")
                 for i, out in raised]
    return problems + workload.check(state, timed)


def _prefix(workload, timed: Pass) -> list:
    """Outputs of the quality prefix that completed."""
    outs = [timed.outputs.get(i) for i in range(workload.min_ops)]
    return [out for out in outs
            if out is not None and not isinstance(out, Exception)]


def _untraced(workload, seed: int, seconds: float):
    setup_times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    try:
        timed = workload.run(state, time.perf_counter() + seconds)
        problems = _gate(workload, state, timed)
    finally:
        workload.teardown(state)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": percentile(timed.latencies, 50) * 1e3,
        "ops_per_s": len(timed.outputs) / timed.wall,
        "phi_mean": statistics.fmean(
            workload.phi(out) for out in _prefix(workload, timed)),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {"setup_s": setup_times, "wall_s": timed.wall,
              "latency_tail_ms": latency_tail(timed.latencies),
              "latencies_ms": [round(t * 1e3, 3) for t in timed.latencies]}
    return timed, metrics, problems, record


def _traced(workload, seed: int, seconds: float):
    pairs = layer_targets()
    targets = [target for _, target in pairs]
    roles = {target.name: role for role, target in pairs}
    tracer = Tracer()

    state = workload.setup(seed)
    try:
        untraced = workload.run(state, time.perf_counter() + seconds)
        problems = _gate(workload, state, untraced)
        reference, ref_problems = workload.reference(state, untraced, tracer,
                                                     targets, roles)
        problems += ref_problems
    finally:
        workload.teardown(state)

    with tracer.installed(targets):
        state = workload.setup(seed)
        try:
            generate_s = sum(row[1] for name, row in tracer.totals().items()
                             if roles.get(name) == "datasets.generate")
            tracer.reset()
            traced = workload.run(state, math.inf,
                                  max_ops=len(untraced.outputs))
            totals = tracer.totals()
            problems += _gate(workload, state, traced)
            metrics = span_metrics(totals, roles, len(traced.outputs))
            metrics.update(workload.layer_metrics(state, traced))
        finally:
            workload.teardown(state)
    metrics.update(reference)

    digests = [workload.digest(out) for out in _prefix(workload, traced)]
    if digests != [workload.digest(out)
                   for out in _prefix(workload, untraced)]:
        problems.append((None, "traced outputs differ from untraced outputs"))
    steps = metrics.get("env.steps", 0.0)
    unattributed = traced.wall - self_time_total(totals)
    metrics.update({
        "datasets.generate_s": generate_s,
        "planner.calls_per_step": (metrics.get("planner.calls", 0.0) / steps
                                   if steps else 0.0),
        "trace.unattributed_frac": unattributed / traced.wall,
        "trace.overhead_frac": traced.wall / untraced.wall - 1.0,
    })
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = SPANS_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    record = {
        "wall_s": traced.wall, "untraced_wall_s": untraced.wall,
        "self_s": self_time_total(totals), "unattributed_s": unattributed,
        "layers": layer_table(totals, {t.name: module_of(t)
                                       for t in targets}),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
    }
    return traced, metrics, problems, record


def run_once(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, full record)."""
    workload = WORKLOADS[name]()
    catalog = load_catalog()
    timed, values, problems, record = (
        _traced if trace else _untraced)(workload, seed, seconds)
    section = catalog["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]}
               for m in section}
    failed_ops = {i for i, _ in problems if i is not None}
    result = {"correct": not problems, "attempted": len(timed.outputs),
              "failed": len(failed_ops), "metrics": metrics}
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(seed), "ops": len(timed.outputs),
        "quality_prefix": workload.min_ops,
        "digest": digest_of(workload.digest(out)
                            for out in _prefix(workload, timed)),
        "problems": [f"op {i}: {text}" if i is not None else text
                     for i, text in problems[:50]],
        "problem_count": len(problems),
    })
    return result, record
