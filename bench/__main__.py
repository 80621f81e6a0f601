"""Command line of the benchmark (see ``bench/README.md``).

    python -m bench [--repeats 5] [--sets 1] [--trace] [--seed 1]
                    [--seconds 20] [--out FILE]
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare BASE.json [HEAD.json]

The second form is one run: it prints its full record as a JSON line,
then the result as the last line, and exits non-zero when the
correctness gate fails.
"""

from bench import env

env.apply_to_process()  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from bench.metrics import load_catalog  # noqa: E402

DEFAULT_SEED = 1


def _import_program() -> None:
    sys.path.insert(0, str(env.SRC))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program from "
                         f"{env.SRC}: {exc}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base")
        parser.add_argument("head", nargs="?")
        args = parser.parse_args(argv[1:])
        from bench.compare import compare

        return compare(args.base, args.head)

    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=load_catalog()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write the suite's JSON report here")
    args = parser.parse_args(argv)
    _import_program()
    from bench.workloads import WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        from bench.run import run_once, stop_children

        try:
            result, record = run_once(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        finally:
            stop_children()
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    from bench.suite import run_suite

    return run_suite(list(WORKLOADS), args.seed, args.seconds, args.repeats,
                     args.sets, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
