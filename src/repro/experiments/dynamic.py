"""Dynamic-scenario experiment: coverage vs. rejection rate.

The static tables ask "how much coverage does a budget buy"; the dynamic
scenario adds a second axis — how many streamed tasks *expire unserved*.
This experiment sweeps the arrival pressure (the time-to-live of a posted
task) and, for each setting, runs SMORE's trained policy and the greedy
coverage-gain baseline through the same
:class:`~repro.smore.dynamic.DynamicSelectionEnv` episodes, reporting the
mean coverage objective against the mean rejection rate.  Shorter TTLs
reject more tasks and depress coverage; the curves show how much of that
loss the learned policy recovers over the greedy rule at equal pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..datasets import burst_arrivals, poisson_arrivals
from ..smore import GreedySelectionRule, SMORESolver
from ..tsptw import InsertionSolver
from ..tsptw.cache import CachedPlanner
from .runner import ExperimentRunner

__all__ = ["DynamicPoint", "dynamic_curves", "render_dynamic"]

#: TTL sweep (minutes a posted task stays in the pool); None = until the
#: task's own window closes, the lowest-pressure point of the curve.
DEFAULT_TTLS = (15.0, 30.0, 60.0, None)

SCHEDULES = {
    "poisson": poisson_arrivals,
    "burst": burst_arrivals,
}


@dataclass(frozen=True)
class DynamicPoint:
    """One (method, ttl) point of a coverage-vs-rejection curve."""

    method: str
    ttl: float | None
    mean_phi: float
    mean_rejection_rate: float
    mean_selected: float
    mean_rejected: float
    mean_events: float
    mean_wall_time: float

    @property
    def ttl_label(self) -> str:
        return "window" if self.ttl is None else f"{self.ttl:g}m"


def _solvers_for(runner: ExperimentRunner, dataset: str) -> dict[str, SMORESolver]:
    """SMORE (trained policy) and the greedy rule, both insertion-backed.

    Each method gets its own memoising planner so per-method perf stays
    attributable; both decode through the same dynamic environment code.
    """
    smore = runner._smore_solver(dataset)
    return {
        "Greedy": SMORESolver(CachedPlanner(InsertionSolver()),
                              GreedySelectionRule(), name="Greedy"),
        "SMORE": SMORESolver(CachedPlanner(smore.planner), smore.policy,
                             name="SMORE"),
    }


def dynamic_curves(runner: ExperimentRunner,
                   datasets=("delivery", "tourism"),
                   schedule: str = "poisson",
                   ttls=DEFAULT_TTLS,
                   initial_fraction: float = 0.4,
                   num_samples: int = 1) -> dict[str, list[DynamicPoint]]:
    """Coverage-vs-rejection curves per dataset.

    Every (method, ttl) cell replays the *same* seeded schedules — one
    per test instance, seeded off the runner seed — so curve points
    differ only in arrival pressure and policy, never in the stream.
    """
    try:
        make_schedule = SCHEDULES[schedule]
    except KeyError:
        raise KeyError(f"unknown schedule {schedule!r}; "
                       f"choose from {tuple(SCHEDULES)}")
    results: dict[str, list[DynamicPoint]] = {}
    for dataset in datasets:
        instances = runner.test_instances(dataset)
        solvers = _solvers_for(runner, dataset)
        points: list[DynamicPoint] = []
        for ttl in ttls:
            schedules = [
                make_schedule(instance, np.random.default_rng(
                    runner.seed + 7919 * i), ttl=ttl,
                    initial_fraction=initial_fraction)
                for i, instance in enumerate(instances)]
            for method, solver in solvers.items():
                with obs.span("dynamic.cell", dataset=dataset,
                              method=method,
                              ttl=-1.0 if ttl is None else ttl):
                    outcomes = [
                        solver.solve_dynamic(instance, sched,
                                             num_samples=num_samples)
                        for instance, sched in zip(instances, schedules)]
                n = len(outcomes)
                points.append(DynamicPoint(
                    method=method, ttl=ttl,
                    mean_phi=sum(o.phi for o in outcomes) / n,
                    mean_rejection_rate=sum(o.rejection_rate
                                            for o in outcomes) / n,
                    mean_selected=sum(len(o.selected_ids)
                                      for o in outcomes) / n,
                    mean_rejected=sum(len(o.rejected_ids)
                                      for o in outcomes) / n,
                    mean_events=sum(o.events for o in outcomes) / n,
                    mean_wall_time=sum(o.wall_time for o in outcomes) / n,
                ))
        results[dataset] = points
    return results


def render_dynamic(results: dict[str, list[DynamicPoint]],
                   schedule: str = "poisson") -> str:
    """Plain-text curve tables, one block per dataset."""
    lines = ["Dynamic scenario — coverage vs. rejection rate "
             f"({schedule} arrivals)", "=" * 60]
    for dataset, points in results.items():
        lines.append(f"\n[{dataset}]")
        lines.append(f"  {'ttl':>8} {'method':<8} {'phi':>8} "
                     f"{'reject%':>8} {'sel':>6} {'rej':>6} "
                     f"{'events':>7} {'time(s)':>8}")
        for point in points:
            lines.append(
                f"  {point.ttl_label:>8} {point.method:<8} "
                f"{point.mean_phi:>8.4f} "
                f"{100 * point.mean_rejection_rate:>7.1f}% "
                f"{point.mean_selected:>6.1f} {point.mean_rejected:>6.1f} "
                f"{point.mean_events:>7.1f} {point.mean_wall_time:>8.3f}")
        by_ttl: dict = {}
        for point in points:
            by_ttl.setdefault(point.ttl, {})[point.method] = point
        gains = [cell["SMORE"].mean_phi - cell["Greedy"].mean_phi
                 for cell in by_ttl.values()
                 if "SMORE" in cell and "Greedy" in cell]
        if gains:
            lines.append(f"  mean SMORE-vs-Greedy coverage gain: "
                         f"{sum(gains) / len(gains):+.4f}")
    return "\n".join(lines)
