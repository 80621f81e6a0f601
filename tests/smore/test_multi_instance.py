"""Cross-instance lock-step decoding: parity with independent solves.

``MultiInstanceRunner`` / ``SMORESolver.solve_many`` / the REINFORCE
trainer decode B heterogeneous instances through shared batched forwards.  The contract under test: batching is
*only* an execution strategy — every rollout consumes its own generator
in the serial worker-then-task order, and every planner call resolves
through the worker's own instance — so results match B independent
per-instance runs action-for-action, including across ragged worker/task
counts and a shared (memoising or kernel-bound) planner.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets.instances import InstanceOptions, generate_instances
from repro.smore import (
    GreedySelectionRule,
    MultiInstanceRunner,
    SMORESolver,
    SelectionEnv,
    TASNet,
    TASNetConfig,
    TASNetPolicy,
    TASNetTrainer,
    TrainingConfig,
)
from repro.tsptw import CachedPlanner, InsertionSolver

from .oracle import PerInstanceTrainer, SerialTASNetPolicy, \
    run_serial_episode

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    """Three delivery instances with ragged worker/task counts."""
    opts = InstanceOptions(task_density=0.04, budget=120.0)
    insts = generate_instances("delivery", 3, seed=7, options=opts)
    sizes = {(len(i.workers), len(i.sensing_tasks)) for i in insts}
    assert len(sizes) > 1, "fixture should exercise ragged batches"
    return insts


def _make_net(instances):
    grid = instances[0].coverage.grid
    return TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                  rng=np.random.default_rng(0))


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


# --------------------------------------------------------------------- #
# solve_many parity
# --------------------------------------------------------------------- #
class TestSolveManyParity:
    def test_greedy_matches_independent_solves(self, instances):
        net = _make_net(instances)
        solo = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        expected = [solo.solve(inst) for inst in instances]
        many = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        got = many.solve_many(instances)
        assert len(got) == len(instances)
        for a, b in zip(expected, got):
            assert _routes(a) == _routes(b)
            assert a.objective == b.objective

    def test_sampled_matches_independent_solves(self, instances):
        net = _make_net(instances)
        solo = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        expected = [solo.solve(inst, greedy=False,
                               rng=np.random.default_rng(1234 + i),
                               num_samples=4)
                    for i, inst in enumerate(instances)]
        many = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        got = many.solve_many(
            instances, greedy=False,
            rngs=[np.random.default_rng(1234 + i)
                  for i in range(len(instances))],
            num_samples=4)
        for a, b in zip(expected, got):
            assert _routes(a) == _routes(b)
            assert a.objective == b.objective

    def test_empty_instance_list_raises(self, instances):
        """An empty batch is a caller bug, not a no-op (the behaviour was
        previously unspecified; it is now an explicit error)."""
        net = _make_net(instances)
        solver = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        with pytest.raises(ValueError, match="at least one instance"):
            solver.solve_many([])

    def test_single_instance_degenerate_batch(self, instances):
        """B=1 collapses to the one-instance path, bit-identically."""
        net = _make_net(instances)
        direct = SMORESolver(InsertionSolver(), TASNetPolicy(net)) \
            .solve(instances[0])
        (batched,) = SMORESolver(InsertionSolver(), TASNetPolicy(net)) \
            .solve_many(instances[:1])
        assert _routes(direct) == _routes(batched)
        assert direct.incentives == batched.incentives
        assert direct.objective == batched.objective

    def test_extreme_shape_mix(self, instances):
        """Instances built from different generator options (different
        worker counts, densities, budgets) share one decode batch."""
        opts = [InstanceOptions(task_density=0.02, budget=100.0,
                                num_workers=2),
                InstanceOptions(task_density=0.08, budget=150.0),
                InstanceOptions(task_density=0.04, budget=120.0,
                                num_workers=5)]
        mixed = [generate_instances("delivery", 1, seed=40 + i,
                                    options=opt)[0]
                 for i, opt in enumerate(opts)]
        shapes = {(len(i.workers), len(i.sensing_tasks)) for i in mixed}
        assert len(shapes) == len(mixed)

        net = _make_net(mixed)
        solo = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        expected = [solo.solve(inst) for inst in mixed]
        got = SMORESolver(InsertionSolver(), TASNetPolicy(net)) \
            .solve_many(mixed)
        for a, b in zip(expected, got):
            assert _routes(a) == _routes(b)
            assert a.objective == b.objective

    def test_rng_count_mismatch_raises(self, instances):
        net = _make_net(instances)
        solver = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        with pytest.raises(ValueError, match="rngs"):
            solver.solve_many(instances, greedy=False,
                              rngs=[np.random.default_rng(0)])

    def test_shared_cached_planner_stays_correct(self, instances):
        """A memoising planner shared across the batch must key per
        instance — worker and task ids collide across instances."""
        net = _make_net(instances)
        solo = SMORESolver(InsertionSolver(), TASNetPolicy(net))
        expected = [solo.solve(inst) for inst in instances]
        many = SMORESolver(CachedPlanner(InsertionSolver()),
                           TASNetPolicy(net))
        got = many.solve_many(instances)
        for a, b in zip(expected, got):
            assert _routes(a) == _routes(b)


# --------------------------------------------------------------------- #
# Runner mechanics
# --------------------------------------------------------------------- #
class TestMultiInstanceRunner:
    def test_groups_results_per_env(self, instances):
        net = _make_net(instances)
        policy = TASNetPolicy(net)
        planner = InsertionSolver()
        envs = [SelectionEnv(inst, planner) for inst in instances]
        specs = [[(True, None)], [], [(True, None), (False, 5)]]
        grouped = MultiInstanceRunner(envs, policy).run(specs)
        assert [len(g) for g in grouped] == [1, 0, 2]

    def test_spec_count_mismatch_raises(self, instances):
        net = _make_net(instances)
        envs = [SelectionEnv(inst, InsertionSolver()) for inst in instances]
        runner = MultiInstanceRunner(envs, TASNetPolicy(net))
        with pytest.raises(ValueError, match="spec lists"):
            runner.run([[(True, None)]])

    def test_matches_per_instance_batched_runner(self, instances):
        """B instances x K seeded rollouts == each rollout decoded alone
        by the per-state oracle (the RNG threading contract)."""
        net = _make_net(instances)
        specs = [[(False, 100 + 10 * e + k) for k in range(3)]
                 for e in range(len(instances))]

        serial = SerialTASNetPolicy(net)
        expected = []
        for inst, env_specs in zip(instances, specs):
            env = SelectionEnv(inst, InsertionSolver())
            expected.append([
                run_serial_episode(env, serial, greedy=False,
                                   rng=np.random.default_rng(seed),
                                   record_actions=True)
                for _, seed in env_specs])

        policy = TASNetPolicy(net)
        planner = InsertionSolver()
        envs = [SelectionEnv(inst, planner) for inst in instances]
        grouped = MultiInstanceRunner(envs, policy).run(
            specs, record_actions=True)

        for env_expected, env_got in zip(expected, grouped):
            for (_, reward, records), b in zip(env_expected, env_got):
                assert [(r.worker_id, r.task_id) for r in records] == \
                    [(r.worker_id, r.task_id) for r in b.records]
                assert reward == b.total_reward

    def test_fallback_for_policy_without_begin_episodes(self, instances):
        """Policies lacking the multi protocol run per-env, same results."""
        planner = InsertionSolver()
        envs = [SelectionEnv(inst, planner) for inst in instances]
        grouped = MultiInstanceRunner(envs, GreedySelectionRule()).run(
            [[(True, None)] for _ in instances], record_actions=True)
        for inst, results in zip(instances, grouped):
            env = SelectionEnv(inst, InsertionSolver())
            _, _, solo = run_serial_episode(env, GreedySelectionRule(),
                                            record_actions=True)
            assert [(r.worker_id, r.task_id) for r in solo] == \
                [(r.worker_id, r.task_id) for r in results[0].records]


# --------------------------------------------------------------------- #
# Shared-planner regression (the bug multi-instance decoding exposed)
# --------------------------------------------------------------------- #
class TestSharedPlannerBindings:
    def test_base_routes_survive_interleaved_bindings(self, instances):
        """Binding B instances on one solver must not cross their
        packed arrays or base-route memos (worker ids collide)."""
        shared = InsertionSolver()
        for inst in instances:
            shared.bind_instance(inst)
        interleaved = {}
        for inst in instances:
            for worker in inst.workers:
                result = shared.base_route(worker)
                interleaved[id(worker)] = (
                    result.feasible, result.route_travel_time)
        for inst in instances:
            fresh = InsertionSolver()
            fresh.bind_instance(inst)
            for worker in inst.workers:
                result = fresh.base_route(worker)
                assert interleaved[id(worker)] == (
                    result.feasible, result.route_travel_time)

    def test_insertion_sweeps_use_the_workers_own_instance(self, instances):
        shared = InsertionSolver()
        for inst in instances:
            shared.bind_instance(inst)
        # Interleave batched sweeps across instances; compare against a
        # fresh solver bound to only the worker's instance.
        for inst in instances:
            fresh = InsertionSolver()
            fresh.bind_instance(inst)
            for worker in inst.workers:
                tasks = inst.sensing_tasks[:6]
                got = shared.plan_insertions_many(worker, [], tasks)
                want = fresh.plan_insertions_many(worker, [], tasks)
                for g, w in zip(got, want):
                    assert g.feasible == w.feasible
                    if g.feasible:
                        assert g.route_travel_time == w.route_travel_time

    def test_cached_planner_does_not_collide_across_instances(self, instances):
        cached = CachedPlanner(InsertionSolver())
        first, second = instances[0], instances[1]
        w0, w1 = first.workers[0], second.workers[0]
        assert w0.worker_id == w1.worker_id  # ids DO collide
        r0 = cached.plan(w0, [])
        r1 = cached.plan(w1, [])
        assert r0.route.worker is w0
        assert r1.route.worker is w1


# --------------------------------------------------------------------- #
# Trainer: one cross-instance decode per iteration
# --------------------------------------------------------------------- #
class TestTrainerCrossInstanceBatch:
    def _pair(self, instances, rollouts):
        cfg = TrainingConfig(batch_size=2, rollouts_per_instance=rollouts,
                             seed=5)
        return [cls(TASNetPolicy(_make_net(instances)), InsertionSolver(),
                    cfg)
                for cls in (PerInstanceTrainer, TASNetTrainer)]

    def _assert_match(self, instances, rollouts):
        oracle, trainer = self._pair(instances, rollouts)
        for _ in range(2):
            # Same seeds, same action streams: identical mean rewards.
            assert oracle.train_iteration(instances) \
                == trainer.train_iteration(instances)
        for p_oracle, p_trainer in zip(oracle.policy.parameters(),
                                       trainer.policy.parameters()):
            # Parameters agree to BLAS-reassociation tolerance (batched
            # GEMMs of different shapes may round differently).
            np.testing.assert_allclose(p_trainer.data, p_oracle.data,
                                       rtol=1e-12, atol=1e-12)

    def test_metrics_and_params_match_serial_path(self, instances):
        self._assert_match(instances, rollouts=3)

    def test_single_rollout_matches_per_instance_oracle(self, instances):
        """K=1 runs through the same runner, one seed per rollout."""
        self._assert_match(instances, rollouts=1)


class TestDecodeStateLifetime:
    """No decode state outlives the run (or iteration) that built it."""

    def test_runner_releases_policy_decode_state(self, instances):
        policy = TASNetPolicy(_make_net(instances))
        planner = InsertionSolver()
        envs = [SelectionEnv(inst, planner) for inst in instances]
        MultiInstanceRunner(envs, policy).run(
            [[(False, 3 + e)] for e in range(len(envs))])
        assert policy._multi is None
        assert policy._bank is None
        assert policy._bank_slots == {}

    def test_iteration_graph_dies_without_gc(self, instances):
        policy = TASNetPolicy(_make_net(instances))
        trainer = TASNetTrainer(policy, InsertionSolver(),
                                TrainingConfig(batch_size=2,
                                               rollouts_per_instance=2,
                                               seed=1))
        refs = []
        act_batch = policy.act_batch

        def recording_act_batch(*args, **kwargs):
            actions = act_batch(*args, **kwargs)
            refs.extend(weakref.ref(a.log_prob) for a in actions)
            refs.append(weakref.ref(policy._multi.cand_keys))
            refs.append(weakref.ref(policy._bank))
            return actions

        policy.act_batch = recording_act_batch
        gc.collect()
        gc.disable()
        try:
            trainer.train_iteration(instances)
            assert refs
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert policy._multi is None and policy._bank is None
