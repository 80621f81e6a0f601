"""Command-line smoke runner for the online solver service.

Usage::

    python -m repro.serve [--requests 32] [--instances 8]
                          [--mode delivery] [--density 0.05]
                          [--batch-size 8] [--max-wait-us 2000]
                          [--timeout SECONDS] [--samples 1]
                          [--metrics serve_metrics.jsonl]
                          [--journal journal.jsonl]
                          [--openmetrics metrics.prom]
                          [--slo-report slo.json] [--slo-p95-ms 500]
                          [--check-parity]
    python -m repro.serve replay journal.jsonl

Generates a pool of instances, fires ``--requests`` concurrent solve
requests round-robin over them through a :class:`SolverService`, and
prints the serving summary (batch-size distribution, latency
percentiles, sustained throughput).  ``--check-parity`` additionally
re-solves every greedy request directly through ``SMORESolver.solve``
and exits non-zero unless each service answer is bit-identical —
the CI ``serve-smoke`` gate.

``--journal`` attaches a :class:`~repro.obs.recorder.FlightRecorder`:
every admitted request and its solution digest is journaled, and the
``replay`` subcommand rebuilds the workload from the journal header,
re-executes every request, and exits non-zero unless each digest is
bit-identical — the CI ``serve-replay-smoke`` gate.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..datasets import generate_instances
from ..datasets.instances import InstanceOptions
from ..obs.openmetrics import write_openmetrics
from ..obs.recorder import FlightRecorder, read_journal, replay_journal
from ..obs.slo import SloConfig, SloTracker
from ..smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from ..tsptw import CachedPlanner, InsertionSolver
from .client import SolveRequest, drive_requests
from .engine import WarmEngine
from .service import ServeConfig


def _workload_spec(args) -> dict:
    """The journal-header workload spec: everything replay needs to
    rebuild the instance pool and the (seeded, untrained) solver."""
    return {"mode": args.mode, "instances": args.instances,
            "density": args.density, "budget": args.budget,
            "seed": args.seed, "d_model": args.d_model,
            "heads": args.heads, "layers": args.layers}


def _build_engine(spec: dict) -> tuple[WarmEngine, list]:
    options = InstanceOptions(task_density=spec["density"],
                              budget=spec["budget"])
    instances = generate_instances(spec["mode"], spec["instances"],
                                   seed=spec["seed"], options=options)
    grid = instances[0].coverage.grid
    config = TASNetConfig(d_model=spec["d_model"], num_heads=spec["heads"],
                          num_layers=spec["layers"], conv_channels=4)
    net = TASNet(config, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(spec["seed"]))
    solver = SMORESolver(CachedPlanner(InsertionSolver()), TASNetPolicy(net))
    return WarmEngine(solver), instances


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


def _render_stats(stats: dict) -> str:
    lat, batch = stats["latency_ms"], stats["batch_size"]
    lines = [
        "serving summary",
        "=" * 45,
        f"requests            {stats['requests']}",
        f"responses           {stats['responses']}",
        f"shed (deadline)     {stats['shed_deadline']}",
        f"rejected (overload) {stats['rejected_overload']}",
        f"queue depth peak    {stats['queue_depth_peak']}",
        f"sustained req/s     {stats['sustained_req_per_s']:.2f}",
    ]
    if batch.get("count"):
        lines.append(f"batch size          n={batch['count']} "
                     f"mean={batch['mean']:.2f} max={batch['max']:g}")
    if lat.get("count"):
        lines.append(f"latency ms          p50={lat['p50']:.1f} "
                     f"p95={lat['p95']:.1f} p99={lat['p99']:.1f}")
    engine = stats["engine"]
    lines.append(f"engine              warm={engine['warm_instances']} "
                 f"hits={engine['env_hits']} misses={engine['env_misses']}")
    stages = stats.get("stages")
    if stages:
        for label, key in (("admission wait ms", "admission_wait_ms"),
                           ("coalesce wait ms", "coalesce_wait_ms"),
                           ("engine execute ms", "execute_ms")):
            summary = stages.get(key, {})
            if summary.get("count"):
                lines.append(f"{label:<19} p50={summary['p50']:.2f} "
                             f"p99={summary['p99']:.2f}")
    slo = stats.get("slo")
    if slo:
        lines.append(f"slo                 window={slo['window_s']:g}s "
                     f"error_rate={slo['error_rate']:.4f} "
                     f"alerts={slo['alerts_fired']}")
    return "\n".join(lines)


def _replay_main(argv: list[str]) -> int:
    """``python -m repro.serve replay journal.jsonl``."""
    parser = argparse.ArgumentParser(prog="repro.serve replay")
    parser.add_argument("journal", help="flight-recorder journal JSONL")
    args = parser.parse_args(argv)

    journal = read_journal(args.journal)
    if not journal.complete:
        print(f"warning: {args.journal} has no end record "
              "(recording run did not shut down cleanly)")
    spec = journal.workload
    if not spec:
        print(f"{args.journal}: header carries no workload spec; "
              "cannot rebuild the instance pool")
        return 2
    engine, instances = _build_engine(spec)
    print(f"replaying {len(journal.requests)} journaled request(s) over "
          f"{len(instances)} rebuilt {spec['mode']} instances")
    report = replay_journal(journal, engine, instances)
    print(report.render())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "replay":
        return _replay_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro.serve")
    parser.add_argument("--requests", type=int, default=32,
                        help="concurrent requests to fire (default 32)")
    parser.add_argument("--instances", type=int, default=8,
                        help="distinct instances to round-robin over")
    parser.add_argument("--mode", default="delivery",
                        help="dataset mode (default delivery)")
    parser.add_argument("--density", type=float, default=0.05,
                        help="task density for generated instances")
    parser.add_argument("--budget", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d-model", type=int, default=32)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--samples", type=int, default=1,
                        help="rollouts per request (sample-and-select-best)")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="micro-batcher max batch size")
    parser.add_argument("--max-wait-us", type=float, default=2_000.0,
                        help="micro-batcher coalescing window")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write serving metrics JSONL to PATH")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="journal admitted requests (flight recorder) "
                             "to PATH for later replay")
    parser.add_argument("--openmetrics", default=None, metavar="PATH",
                        help="write the final registry as OpenMetrics text")
    parser.add_argument("--slo-report", default=None, metavar="PATH",
                        help="write the rolling-window SLO report as JSON")
    parser.add_argument("--slo-window", type=float, default=60.0,
                        help="SLO rolling window in seconds (default 60)")
    parser.add_argument("--slo-p95-ms", type=float, default=None,
                        help="windowed p95 latency objective in ms")
    parser.add_argument("--slo-budget", type=float, default=0.01,
                        help="error budget (failure fraction, default 0.01)")
    parser.add_argument("--check-parity", action="store_true",
                        help="assert every greedy response is bit-identical "
                             "to a direct SMORESolver.solve")
    args = parser.parse_args(argv)

    engine, instances = _build_engine(_workload_spec(args))
    greedy = args.samples <= 1
    requests = [
        SolveRequest(instance=instances[i % len(instances)], greedy=greedy,
                     seed=None if greedy else 10_000 + i,
                     num_samples=args.samples, timeout=args.timeout)
        for i in range(args.requests)]

    slo = None
    if args.slo_report is not None or args.slo_p95_ms is not None:
        slo = SloTracker(SloConfig(window_s=args.slo_window,
                                   latency_p95_ms=args.slo_p95_ms,
                                   error_budget=args.slo_budget))
    recorder = None
    if args.journal is not None:
        recorder = FlightRecorder(args.journal,
                                  workload=_workload_spec(args))
        recorder.register_instances(instances)

    print(f"repro.serve: {args.requests} concurrent requests over "
          f"{len(instances)} {args.mode} instances "
          f"(batch<={args.batch_size}, wait<={args.max_wait_us:g}us)")
    result = drive_requests(
        engine, requests,
        config=ServeConfig(max_batch_size=args.batch_size,
                           max_wait_us=args.max_wait_us,
                           max_queue_depth=max(args.requests, 1)),
        metrics_path=args.metrics, slo=slo, recorder=recorder)

    print(_render_stats(result.stats))
    if args.metrics:
        print(f"metrics written to {args.metrics}")
    if args.journal:
        print(f"journal written to {args.journal} "
              f"({recorder.requests} requests, {recorder.outcomes} outcomes)")
    if args.openmetrics:
        write_openmetrics(result.metrics, args.openmetrics)
        print(f"openmetrics written to {args.openmetrics}")
    if args.slo_report:
        with open(args.slo_report, "w", encoding="utf-8") as fh:
            json.dump(slo.report(), fh, sort_keys=True, indent=2)
        print(f"slo report written to {args.slo_report}")
    if result.errors:
        print(f"{len(result.errors)} request(s) failed "
              f"({type(result.errors[0]).__name__}: {result.errors[0]})")

    if args.check_parity:
        if not greedy:
            print("parity check requires greedy requests (--samples 1)")
            return 2
        if result.errors:
            print("parity check failed: not every request was answered")
            return 1
        direct = {id(inst): engine.solver.solve(inst) for inst in instances}
        mismatches = 0
        for request, outcome in zip(requests, result.outcomes):
            want = direct[id(request.instance)]
            if (_routes(want) != _routes(outcome)
                    or want.incentives != outcome.incentives
                    or want.objective != outcome.objective):
                mismatches += 1
        verdict = "OK" if mismatches == 0 else "MISMATCH"
        print(f"parity: {len(requests) - mismatches}/{len(requests)} greedy "
              f"responses bit-identical to direct solve [{verdict}]")
        if mismatches:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
