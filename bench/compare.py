"""``python -m bench compare BASE.json [HEAD.json]``: the regression rule.

For every (end-to-end metric, workload) pair, in its own row:

* ``gain`` — at least 10 pairs, HEAD better in at least 9 of 10, and the
  medians differ by more than BASE's own IQR (the only verdict that
  supports claiming a gain);
* ``better`` — every HEAD run is better than every BASE run;
* ``unresolved`` — otherwise, when either side's spread (IQR over
  median) exceeds the metric's bound;
* ``regressed`` — HEAD's median is worse than BASE's by more than the
  bound;
* ``ok`` — within the bound.

With one file holding two or more sets (``--sets``), set 0 is compared
with set 1: two sets of one commit must agree.  The command exits 1
when any pair regressed.
"""

from __future__ import annotations

import json

from .metrics import load_catalog, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _runs(sets: list) -> dict[str, list]:
    """Pool the runs of several sets per workload."""
    pooled: dict[str, list] = {}
    for runs_by_workload in sets:
        for workload, runs in runs_by_workload.items():
            pooled.setdefault(workload, []).extend(runs)
    return pooled


def _values(runs: list, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def verdict(base: list[float], head: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The rule above for one pair; returns (verdict, relative change)."""
    sign = 1.0 if better == "lower" else -1.0

    def wins(x, y):
        return sign * (y - x) > 0

    b, h = spread(base), spread(head)
    change = (h["median"] - b["median"]) / abs(b["median"]) \
        if b["median"] else 0.0
    pairs = list(zip(head, base))
    won = sum(1 for x, y in pairs if wins(x, y))
    if len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs) \
            and wins(h["median"], b["median"]) \
            and abs(h["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "gain", change
    if all(wins(x, y) for x in head for y in base):
        return "better", change
    if max(b["iqr_frac"], h["iqr_frac"]) > bound:
        return "unresolved", change
    if sign * change > bound:
        return "regressed", change
    return "ok", change


def compare(base_path, head_path=None) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base_doc = json.load(fh)
    if head_path is None:
        if len(base_doc["sets"]) < 2:
            raise SystemExit(f"{base_path} holds one set; give two files")
        base, head = _runs(base_doc["sets"][:1]), _runs(base_doc["sets"][1:2])
    else:
        with open(head_path, encoding="utf-8") as fh:
            head_doc = json.load(fh)
        base, head = _runs(base_doc["sets"]), _runs(head_doc["sets"])
    catalog = load_catalog()
    regressed = 0
    print(f"{'workload':<16} {'metric':<16} {'base':>12} {'head':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(head)):
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            outcome, change = verdict(_values(base[workload], name),
                                      _values(head[workload], name),
                                      metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            print(f"{workload:<16} {name:<16} "
                  f"{spread(_values(base[workload], name))['median']:>12.4g} "
                  f"{spread(_values(head[workload], name))['median']:>12.4g} "
                  f"{change:>+8.2%} {metric['bound']:>6.0%}  {outcome}")
    return 1 if regressed else 0
