"""Figure 5 — ablation study of SMORE's main designs.

Four variants per dataset:

* **SMORE** — trained TASNet policy.
* **w/o RL-AS** — the iterative framework with the myopic
  maximum-coverage-gain rule instead of the learned policy.
* **w/o TASNet** — a single-stage flat pointer over all (worker, task)
  pairs, trained the same way.
* **w/o Soft Mask** — TASNet with the soft-mask modulation disabled,
  trained the same way.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..datasets import DATASET_NAMES, generator_for
from ..smore import (
    FlatSelectionNet,
    FlatSelectionPolicy,
    GreedySelectionRule,
    SMORESolver,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
)
from ..tsptw import InsertionSolver
from .metrics import MethodResult, aggregate
from .pretrained import PretrainSpec, get_trained_policy, train_on_spec
from .runner import ExperimentRunner

__all__ = ["ABLATION_VARIANTS", "figure5_ablation", "train_variant_policy"]

ABLATION_VARIANTS = ("SMORE", "w/o RL-AS", "w/o TASNet", "w/o Soft Mask")

#: Extension beyond the paper: also ablate the decoder's data fusion
#: (delta_phi / delta_in pointer-key signals) separately from the mask.
EXTENDED_VARIANTS = ABLATION_VARIANTS + ("w/o Fusion",)


def train_variant_policy(variant: str, dataset: str,
                         spec: PretrainSpec, cache_dir=None):
    """Build the policy (or rule) behind one ablation variant."""
    grid = generator_for(dataset).spec.grid
    config = TASNetConfig(d_model=spec.d_model, num_heads=spec.num_heads,
                          num_layers=spec.num_layers,
                          conv_channels=spec.conv_channels)
    if variant == "SMORE":
        return get_trained_policy(dataset, spec=spec, cache_dir=cache_dir)
    if variant == "w/o RL-AS":
        return GreedySelectionRule()
    if variant == "w/o TASNet":
        rng = np.random.default_rng(spec.seed)
        return train_on_spec(FlatSelectionPolicy(
            FlatSelectionNet(config, grid.nx, grid.ny, rng=rng)),
            dataset, spec)
    if variant == "w/o Soft Mask":
        no_mask = replace(config, use_soft_mask=False)
        rng = np.random.default_rng(spec.seed)
        return train_on_spec(TASNetPolicy(
            TASNet(no_mask, grid.nx, grid.ny, rng=rng)), dataset, spec)
    if variant == "w/o Fusion":
        no_fusion = replace(config, use_heuristic_fusion=False)
        rng = np.random.default_rng(spec.seed)
        return train_on_spec(TASNetPolicy(
            TASNet(no_fusion, grid.nx, grid.ny, rng=rng)), dataset, spec)
    raise KeyError(f"unknown ablation variant {variant!r}")


def figure5_ablation(runner: ExperimentRunner,
                     datasets=DATASET_NAMES,
                     variants=ABLATION_VARIANTS
                     ) -> dict[str, list[MethodResult]]:
    """Run the ablation grid; returns ``{dataset: [MethodResult, ...]}``."""
    planner = InsertionSolver()
    results: dict[str, list[MethodResult]] = {}
    for dataset in datasets:
        instances = runner.test_instances(dataset)
        solutions = {}
        for variant in variants:
            policy = train_variant_policy(variant, dataset,
                                          runner.profile.pretrain,
                                          cache_dir=runner.cache_dir)
            solver = SMORESolver(planner, policy, name=variant)
            solutions[variant] = [solver.solve(inst) for inst in instances]
        results[dataset] = aggregate(solutions)
    return results


def render_figure5(results: dict[str, list[MethodResult]]) -> str:
    """Bar-chart-as-text rendering of the ablation results."""
    lines = ["Figure 5 — Ablation Study (data coverage)",
             "=" * 46]
    for dataset, rows in results.items():
        lines.append(f"\n[{dataset}]")
        top = max(r.objective_mean for r in rows) or 1.0
        for result in rows:
            bar = "#" * int(round(30 * result.objective_mean / top))
            lines.append(f"  {result.method:<14} {result.objective_mean:6.3f} {bar}")
    return "\n".join(lines)
