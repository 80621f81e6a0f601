"""Tables I-III of the paper: the three parameter sweeps.

Each function runs the full method grid over the three datasets with one
varied parameter and returns nested results
``{dataset: {setting_label: [MethodResult, ...]}}``; ``render``ing them
prints the same rows the paper reports (Obj. / Time per setting).
"""

from __future__ import annotations

from ..datasets import DATASET_NAMES
from .metrics import MethodResult
from .runner import ExperimentRunner

__all__ = ["table1_time_window", "table2_budget", "table3_alpha",
           "TABLE1_WINDOWS", "TABLE2_BUDGETS", "TABLE3_ALPHAS"]

TABLE1_WINDOWS = (30.0, 60.0, 120.0)
TABLE2_BUDGETS = (200.0, 300.0, 400.0)
TABLE3_ALPHAS = (0.2, 0.5, 0.8)

Results = dict[str, dict[str, list[MethodResult]]]


def table1_time_window(runner: ExperimentRunner,
                       datasets=DATASET_NAMES,
                       windows=TABLE1_WINDOWS,
                       methods=None) -> Results:
    """Table I: effect of the sensing-task time window (30/60/120 min)."""
    results: Results = {}
    for dataset in datasets:
        results[dataset] = {}
        for window in windows:
            label = f"Interval={window:g}"
            results[dataset][label] = runner.run_setting(
                dataset, methods=methods, window_minutes=window)
    return results


def table2_budget(runner: ExperimentRunner,
                  datasets=DATASET_NAMES,
                  budgets=TABLE2_BUDGETS,
                  methods=None) -> Results:
    """Table II: effect of the total budget (200/300/400)."""
    results: Results = {}
    for dataset in datasets:
        results[dataset] = {}
        for budget in budgets:
            label = f"Budget={budget:g}"
            results[dataset][label] = runner.run_setting(
                dataset, methods=methods, budget=budget)
    return results


def table3_alpha(runner: ExperimentRunner,
                 datasets=DATASET_NAMES,
                 alphas=TABLE3_ALPHAS,
                 methods=None) -> Results:
    """Table III: effect of the weight alpha in the data coverage."""
    results: Results = {}
    for dataset in datasets:
        results[dataset] = {}
        for alpha in alphas:
            label = f"alpha={alpha:g}"
            results[dataset][label] = runner.run_setting(
                dataset, methods=methods, alpha=alpha)
    return results
