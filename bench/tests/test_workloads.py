"""Each workload at a tiny size, untraced and traced, against the catalog.

Run explicitly: ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import multiprocessing
import re
from multiprocessing import resource_tracker

import numpy as np
import pytest

from bench import run, workloads
from bench.layers import layer_targets
from bench.metrics import load_catalog
from bench.trace import Tracer
from repro.obs.recorder import solution_digest
from repro.smore import SMORESolver, TASNetPolicy
from repro.tsptw import InsertionSolver

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TinySolve(workloads.SolvePaper):
    min_ops = 2
    instances = 3


class TinyTrain(workloads.TrainReinforce):
    round_ops = 2
    min_ops = 2
    instances = 2
    config = workloads.TrainingConfig(batch_size=2, rollouts_per_instance=2,
                                      seed=3)


class TinyServe(workloads.ServeClosed):
    min_ops = 4
    clients = 2
    instances = 3
    warmup = 2
    max_requests = 6
    resolved = 2


class TinyCity(workloads.CityShard):
    min_ops = 2
    cities = 2
    city = dict(num_tasks=200, num_workers=20, budget=100.0)
    serial_refs = 2
    unsharded_refs = 1


TINY = [TinySolve, TinyTrain, TinyServe, TinyCity]


@pytest.fixture(autouse=True)
def quick_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


def test_catalog_names_are_well_formed():
    catalog = load_catalog()
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in catalog[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in catalog["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    """Untraced and traced tiny runs of every workload (run once)."""
    spans = tmp_path_factory.mktemp("spans")
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "SETUP_REPEATS", 1)
    patch.setattr(run, "SPANS_DIR", spans)
    try:
        yield {cls.name: (run._untraced(cls(), 5, 0.0),
                          run._traced(cls(), 5, 0.0)) for cls in TINY}
    finally:
        patch.undo()


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_workload_completes_at_a_tiny_size(tiny_results, cls):
    untraced, traced = tiny_results[cls.name]
    for timed, metrics, problems, _ in (untraced, traced):
        assert problems == []
        assert len(timed.outputs) >= cls.min_ops
        assert all(np.isfinite(value) for value in metrics.values())
    assert untraced[1]["latency_ms.p50"] > 0
    assert untraced[1]["phi_mean"] > 0
    record = traced[3]
    assert record["self_s"] + record["unattributed_s"] == pytest.approx(
        record["wall_s"])


def test_emitted_metric_names_equal_the_catalog(tiny_results):
    catalog = load_catalog()
    end_to_end = {m["name"] for m in catalog["end_to_end"]}
    per_layer = {m["name"] for m in catalog["per_layer"]}
    emitted_layer = set()
    for untraced, traced in tiny_results.values():
        assert set(untraced[1]) == end_to_end
        assert set(traced[1]) <= per_layer
        emitted_layer |= set(traced[1])
    assert emitted_layer == per_layer


def test_stop_children_leaves_no_process_running(tiny_results):
    # city-shard's pool shares arrays, which starts the resource tracker.
    run.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_wrappers_are_transparent_and_removed():
    instance = workloads.paper_instances(1, seed=11)[0]
    net = workloads.build_net(instance)

    def solve():
        return solution_digest(SMORESolver(InsertionSolver(),
                                           TASNetPolicy(net)).solve(instance))

    pairs = layer_targets()
    originals = [(t.owner, t.attr, vars(t.owner).get(t.attr))
                 for _, t in pairs]
    untraced = solve()
    tracer = Tracer()
    with tracer.installed([t for _, t in pairs]):
        traced = solve()
    assert traced == untraced
    assert {"repro.smore.solver.SMORESolver.solve",
            "repro.smore.candidates.CandidateTable.initialize",
            "repro.smore.env.SelectionEnv.step_state"} <= set(tracer.totals())
    for owner, attr, original in originals:
        assert vars(owner).get(attr) is original
