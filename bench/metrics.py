"""Metric catalog and the summary statistics every report uses.

Names, units, directions and bounds live in the root ``BENCHMARK.json``;
the runner computes values under exactly those names, and
``bench/tests`` checks that the two agree.
"""

from __future__ import annotations

import json
import statistics

from .env import ROOT

CATALOG_PATH = ROOT / "BENCHMARK.json"


def load_catalog(path=CATALOG_PATH) -> dict:
    """``BENCHMARK.json`` as a dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values) -> dict:
    """Median, quartiles and IQR as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)``, the definition
    the acceptance check applies; one value has no spread.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_frac": (q3 - q1) / abs(median) if median else 0.0}
