"""Paired A/B of one bench workload: this tree against a parent revision.

    python tools/ab.py --parent REV --workload W --seed S --pairs N
                       [--out FILE] [--scratch DIR]

Exports ``REV`` with ``git archive`` into a scratch directory, then runs
``python -m bench --workload W --seed S`` (for ``BENCHMARK.json``'s
``run_seconds``, as the gated runs) once per tree in each of ``N`` pairs,
alternating which tree runs first (the parent in even pairs, the
change in odd ones), so drift of the machine over the runs falls on
both sides.  Exits 1 when the two trees' digests differ in any pair or a
run fails its correctness gate.

Writes one JSON report under ``workloads.W`` of ``--out`` (else stdout),
keeping the other workloads an existing file holds, so one file can
gather a change's pairs on every workload.  Per end-to-end metric
of ``BENCHMARK.json``: each tree's median and quartiles, the paired
differences (change minus parent), the pairs in which the change is
better, whether the change's median stays within the metric's bound of
the parent's, and ``"resolved"`` when the medians differ by more than
the parent's own interquartile range (``"unresolved"`` otherwise: the
runs cannot tell the trees apart; ``"identical"`` when every run of both
reads the same).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked under ``into``."""
    tree = into / "parent"
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in ``tree``: its result line plus digest."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"ab: bench run in {tree} printed no result:\n"
                         f"{proc.stderr[-2000:]}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"digest": record["digest"], "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "machine": record["machine"]}


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (inclusive method; one value repeats)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], catalog: dict) -> dict:
    """Per end-to-end metric: medians, quartiles, paired differences."""
    out = {}
    for metric in catalog["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        diffs = [c - p for c, p in zip(change, parent)]
        qp, qc = quartiles(parent), quartiles(change)
        gap = qc[1] - qp[1]
        bound = metric["bound"] * abs(qp[1])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": {"median": qp[1], "q1": qp[0], "q3": qp[2],
                       "runs": parent},
            "change": {"median": qc[1], "q1": qc[0], "q3": qc[2],
                       "runs": change},
            "paired_diffs": diffs,
            "median_diff": statistics.median(diffs),
            "change_wins": sum((d > 0) if higher else (d < 0)
                               for d in diffs),
            "pairs": len(diffs),
            "within_bound": (gap >= -bound) if higher else (gap <= bound),
            "verdict": ("identical" if len(set(parent + change)) == 1
                        else "resolved" if abs(gap) > qp[2] - qp[0]
                        else "unresolved"),
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/ab.py")
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--scratch",
                        help="directory for the parent tree (default: a "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = catalog["run_seconds"]

    scratch = Path(args.scratch) if args.scratch \
        else Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"parent": export(args.parent, scratch), "change": ROOT}
    pairs, problems = [], []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run(trees[side], args.workload, args.seed,
                                 seconds)
                print(f"pair {i} {side}: " + json.dumps(
                    pair[side]["metrics"]), file=sys.stderr, flush=True)
            if pair["parent"]["digest"] != pair["change"]["digest"]:
                problems.append(f"pair {i}: digests differ")
            for side in order:
                if not pair[side]["correct"]:
                    problems.append(f"pair {i}: {side} failed its "
                                    "correctness gate")
            pairs.append(pair)
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "parent": args.parent, "change_base": commit,
        "machine": pairs[0]["parent"]["machine"] if pairs else None,
        "digests": sorted({p[s]["digest"] for p in pairs
                           for s in ("parent", "change")}),
        "failed_ops": {s: sum(p[s]["failed"] for p in pairs)
                       for s in ("parent", "change")},
        "order": [p["first"] for p in pairs],
        "problems": problems,
        "metrics": summarize(pairs, catalog),
    }
    out = Path(args.out) if args.out else None
    gathered = json.loads(out.read_text()) if out and out.exists() \
        else {"workloads": {}}
    gathered["workloads"][args.workload] = report
    text = json.dumps(gathered, indent=1, sort_keys=True)
    if out:
        out.write_text(text + "\n")
    else:
        print(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
