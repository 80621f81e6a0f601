"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments table1 [--full] [--datasets delivery,tourism]
    python -m repro.experiments table2 [--json out.json]
    python -m repro.experiments table3
    python -m repro.experiments figure4
    python -m repro.experiments figure5
    python -m repro.experiments figure6 [--dataset delivery]
    python -m repro.experiments train --dataset tourism   # warm the cache

Any invocation accepts ``--trace out.jsonl``: the whole run executes
under a live :mod:`repro.obs` tracer, the JSONL event trace is written to
the given path, and a per-method span-summary table is appended to the
report output.  ``--profile out.jsonl`` additionally runs under the
op-level autograd profiler (:mod:`repro.obs.profile`) and appends the
per-op summary table; the two flags compose.
"""

from __future__ import annotations

import argparse

from .. import obs
from ..datasets import (
    DATASET_NAMES,
    generate_instances,
    summarize_dataset,
)
from .ablation import figure5_ablation, render_figure5
from .case_study import render_case_study, run_case_study
from .pretrained import get_trained_policy
from .reporting import render_grid, render_perf, render_spans
from .runner import FAST_PROFILE, FULL_PROFILE, ExperimentRunner
from .tables import table1_time_window, table2_budget, table3_alpha


def _figure4(runner: ExperimentRunner, datasets) -> str:
    lines = ["Figure 4 — Data Distributions", "=" * 40]
    for dataset in datasets:
        instances = generate_instances(dataset, 20, seed=runner.seed,
                                       options=runner.profile.options())
        summary = summarize_dataset(instances)
        lines.append(f"\n[{dataset}]")
        for panel, dist in summary.items():
            lines.append(f"  {panel}: mean={dist.mean:.2f} std={dist.std:.2f} "
                         f"min={dist.min:g} max={dist.max:g}")
            for label, count in dist.rows():
                bar = "#" * int(count)
                lines.append(f"    {label:<14} {bar}")
    return "\n".join(lines)


def _figure6(runner: ExperimentRunner, dataset: str,
             svg_path: str | None = None) -> str:
    instance = runner.test_instances(dataset)[0]
    policy = get_trained_policy(dataset, spec=runner.profile.pretrain,
                                cache_dir=runner.cache_dir)
    result = run_case_study(instance, policy)
    if svg_path:
        from .svg import render_solution_svg

        with open(svg_path, "w") as handle:
            handle.write(render_solution_svg(result.smore))
    return render_case_study(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument("experiment",
                        choices=["table1", "table2", "table3",
                                 "figure4", "figure5", "figure6", "train",
                                 "dynamic", "shard", "all"])
    parser.add_argument("--full", action="store_true",
                        help="use the larger (slower) run profile")
    parser.add_argument("--latex", default=None, metavar="PATH",
                        help="also dump table results as LaTeX to PATH")
    parser.add_argument("--datasets", default=",".join(DATASET_NAMES),
                        help="comma-separated dataset subset")
    parser.add_argument("--dataset", default="delivery",
                        help="dataset for figure6 / train")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for the method grid "
                             "(1 = serial; results are identical)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also dump table results as JSON to PATH")
    parser.add_argument("--schedule", default="poisson",
                        choices=["poisson", "burst"],
                        help="dynamic: the arrival process to stream")
    parser.add_argument("--shards", default="1,2,4",
                        help="shard: comma-separated shard counts to sweep")
    parser.add_argument("--tasks", type=int, default=2000,
                        help="shard: sensing tasks in the city instance")
    parser.add_argument("--city-workers", type=int, default=200,
                        help="shard: workers in the city instance")
    parser.add_argument("--budget", type=float, default=600.0,
                        help="shard: incentive budget of the city instance")
    parser.add_argument("--method", default="grid", choices=["grid", "kd"],
                        help="shard: spatial partitioning method")
    parser.add_argument("--svg", default=None, metavar="PATH",
                        help="figure6: also write the SMORE plan as SVG")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL obs trace of the whole run to "
                             "PATH and append a span-summary table")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="run under the op-level autograd profiler, "
                             "write the JSONL profile to PATH and append "
                             "the per-op summary table")
    args = parser.parse_args(argv)

    if args.profile:
        from ..obs.profile import render_profile

        with obs.profiling(args.profile) as profiler:
            code = _run_traced(args)
        print()
        print(render_profile(profiler))
        print(f"\nProfile written to {args.profile}")
        return code
    return _run_traced(args)


def _run_traced(args) -> int:
    if args.trace:
        with obs.tracing(args.trace) as tracer:
            code = _dispatch(args)
            spans = render_spans(tracer.metrics)
        if spans:
            print()
            print(spans)
        print(f"\nTrace written to {args.trace}")
        return code
    return _dispatch(args)


def _dispatch(args) -> int:
    profile = FULL_PROFILE if args.full else FAST_PROFILE
    runner = ExperimentRunner(profile=profile, seed=args.seed,
                              workers=args.workers)
    datasets = tuple(name.strip() for name in args.datasets.split(","))

    table_builders = {
        "table1": ("Table I — Effect of Sensing Task Time Window",
                   table1_time_window),
        "table2": ("Table II — Effect of Budget", table2_budget),
        "table3": ("Table III — Effect of Weight in Data Coverage",
                   table3_alpha),
    }
    if args.experiment == "all":
        for name, (title, builder) in table_builders.items():
            print(render_grid(title, builder(runner, datasets=datasets)))
            print()
        print(_figure4(runner, datasets))
        print()
        print(render_figure5(figure5_ablation(runner, datasets=datasets)))
        print()
        print(_figure6(runner, args.dataset))
        return 0
    if args.experiment in table_builders:
        title, builder = table_builders[args.experiment]
        results = builder(runner, datasets=datasets)
        print(render_grid(title, results))
        perf_block = render_perf(results)
        if perf_block:
            print()
            print(perf_block)
        if args.json:
            from .reporting import results_to_json

            with open(args.json, "w") as handle:
                handle.write(results_to_json(results))
            print(f"\nJSON written to {args.json}")
        if args.latex:
            from .reporting import results_to_latex

            with open(args.latex, "w") as handle:
                handle.write(results_to_latex(title, results))
            print(f"LaTeX written to {args.latex}")
    elif args.experiment == "figure4":
        print(_figure4(runner, datasets))
    elif args.experiment == "figure5":
        print(render_figure5(figure5_ablation(runner, datasets=datasets)))
    elif args.experiment == "figure6":
        print(_figure6(runner, args.dataset, svg_path=args.svg))
    elif args.experiment == "dynamic":
        from .dynamic import dynamic_curves, render_dynamic

        results = dynamic_curves(runner, datasets=datasets,
                                 schedule=args.schedule)
        print(render_dynamic(results, schedule=args.schedule))
    elif args.experiment == "shard":
        from .shard import render_shard_scaling, shard_scaling

        shard_counts = tuple(int(p) for p in args.shards.split(","))
        results = shard_scaling(num_tasks=args.tasks,
                                num_workers=args.city_workers,
                                budget=args.budget, seed=args.seed,
                                shard_counts=shard_counts,
                                method=args.method,
                                pool_workers=args.workers)
        print(render_shard_scaling(results))
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(results, handle, indent=2)
            print(f"\nJSON written to {args.json}")
    elif args.experiment == "train":
        policy = get_trained_policy(args.dataset, spec=runner.profile.pretrain,
                                    cache_dir=runner.cache_dir)
        print(f"trained TASNet for {args.dataset!r}: "
              f"{policy.net.num_parameters()} parameters "
              f"(cached under .cache/pretrained)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
