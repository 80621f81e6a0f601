"""Tests for the experiment runner, metrics and pretrained-policy cache."""

import numpy as np
import pytest

from repro.core import Solution
from repro.experiments import (
    METHOD_ORDER,
    ExperimentRunner,
    MethodResult,
    aggregate,
)
from repro.experiments.pretrained import PretrainSpec, get_trained_policy

from .conftest import TINY_PRETRAIN


class TestAggregate:
    def _fake_solutions(self, instance, objectives):
        solutions = []
        for value in objectives:
            s = Solution(instance, solver_name="fake", wall_time=0.5)
            # objective is derived from routes; monkeypatch via property is
            # heavy — use an empty solution and check the zero path instead.
            solutions.append(s)
        return solutions

    def test_empty_solutions_aggregate_to_zero(self, runner):
        instance = runner.test_instances("delivery")[0]
        results = aggregate({"fake": self._fake_solutions(instance, [0, 0])})
        assert results[0].objective_mean == 0.0
        assert results[0].num_instances == 2

    def test_method_order_preserved(self, runner):
        instance = runner.test_instances("delivery")[0]
        results = aggregate({
            "b": self._fake_solutions(instance, [0]),
            "a": self._fake_solutions(instance, [0]),
        })
        assert [r.method for r in results] == ["b", "a"]

    def test_format_time_units(self):
        fast = MethodResult("x", 1.0, 0.0, 12.0, 1, 0, 0)
        slow = MethodResult("x", 1.0, 0.0, 120.0, 1, 0, 0)
        glacial = MethodResult("x", 1.0, 0.0, 7200.0, 1, 0, 0)
        assert fast.format_time() == "12.00 (s)"
        assert slow.format_time() == "2.0 (m)"
        assert glacial.format_time() == "2.0 (h)"


class TestRunner:
    def test_instances_deterministic(self, runner):
        a = runner.test_instances("delivery")
        b = runner.test_instances("delivery")
        assert a[0].workers[0].origin == b[0].workers[0].origin

    def test_option_overrides(self, runner):
        instances = runner.test_instances("delivery", budget=123.0)
        assert instances[0].budget == 123.0

    def test_run_setting_fast_methods(self, runner):
        results = runner.run_setting("delivery", methods=("RN", "TVPG"))
        methods = [r.method for r in results]
        assert methods == ["RN", "TVPG"]
        for result in results:
            assert result.num_instances == 1
            assert np.isfinite(result.objective_mean)

    def test_unknown_method_raises(self, runner):
        with pytest.raises(KeyError):
            runner.run_setting("delivery", methods=("WAT",))

    def test_method_order_matches_paper(self):
        assert METHOD_ORDER == ("RN", "TVPG", "TCPG", "MSA", "MSAGI",
                                "JDRL", "SMORE")

    def test_smore_runs_with_cache(self, runner):
        results = runner.run_setting("delivery", methods=("SMORE",))
        assert results[0].method == "SMORE"
        assert results[0].objective_mean > 0


class TestParallelRunner:
    def _make(self, tmp_path, workers):
        from .conftest import TINY_PROFILE

        return ExperimentRunner(profile=TINY_PROFILE, seed=100,
                                cache_dir=tmp_path / "pretrained",
                                workers=workers)

    def test_parallel_results_bit_identical_to_serial(self, tmp_path):
        methods = ("RN", "TVPG")
        serial = self._make(tmp_path, workers=1).run_setting(
            "delivery", methods=methods)
        fanned = self._make(tmp_path, workers=2).run_setting(
            "delivery", methods=methods)
        assert [r.method for r in fanned] == [r.method for r in serial]
        for a, b in zip(serial, fanned):
            # Everything except wall time must match exactly.
            assert a.objective_mean == b.objective_mean
            assert a.objective_std == b.objective_std
            assert a.num_completed_mean == b.num_completed_mean
            assert a.incentive_mean == b.incentive_mean
            assert a.num_instances == b.num_instances

    def test_workers_default_serial(self, runner):
        assert runner.workers == 1

    def test_smore_perf_counters_reported(self, runner):
        results = runner.run_setting("delivery", methods=("SMORE",))
        perf = results[0].perf
        assert perf is not None
        assert perf.planner_calls > 0
        assert perf.init_planner_calls > 0
        assert perf.init_time > 0


class TestPretrainedCache:
    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "cache"
        first = get_trained_policy("delivery", spec=TINY_PRETRAIN,
                                   cache_dir=cache)
        files = list(cache.glob("*.npz"))
        assert len(files) == 1
        second = get_trained_policy("delivery", spec=TINY_PRETRAIN,
                                    cache_dir=cache)
        state_a = first.net.state_dict()
        state_b = second.net.state_dict()
        for key in state_a:
            np.testing.assert_allclose(state_a[key], state_b[key])

    def test_cache_key_distinguishes_specs(self):
        from dataclasses import replace

        a = TINY_PRETRAIN.cache_key("delivery")
        b = replace(TINY_PRETRAIN, d_model=16).cache_key("delivery")
        assert a != b

    def test_cache_key_distinguishes_datasets(self):
        assert (TINY_PRETRAIN.cache_key("delivery")
                != TINY_PRETRAIN.cache_key("tourism"))

    @pytest.mark.parametrize("field", sorted(PretrainSpec.__dataclass_fields__))
    def test_cache_key_covers_every_field(self, field):
        from dataclasses import replace

        value = getattr(TINY_PRETRAIN, field)
        changed = replace(TINY_PRETRAIN, **{field: value * 2 + 1})
        assert (changed.cache_key("delivery")
                != TINY_PRETRAIN.cache_key("delivery"))

    def test_cache_key_covers_training_code(self, monkeypatch):
        from repro.experiments import pretrained

        before = TINY_PRETRAIN.cache_key("delivery")
        monkeypatch.setattr(pretrained, "training_code_digest",
                            lambda: "0" * 64)
        assert TINY_PRETRAIN.cache_key("delivery") != before
