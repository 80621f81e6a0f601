"""The four workloads, driven through the program's public APIs only.

Each workload builds its inputs from the run seed in ``setup``, then
``run`` drives a closed loop until the deadline (or for exactly
``max_ops`` operations) and returns every output with its latency.  The
first ``min_ops`` operations are the *quality prefix*: they always run,
and coverage (``phi_mean``) and the output digest are taken over them,
so both are identical across runs of one seed whatever the machine
speed.  ``check`` is the correctness gate applied after timing.

TASNet is on every measured path at the paper's size, randomly
initialised with seed 0: a trained policy would add minutes of set-up
and decode the same way.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import repro.datasets
import repro.datasets.synthetic
import repro.shard
from repro.core.incentive import IncentiveModel
from repro.obs.recorder import solution_digest
from repro.parallel import PersistentPool
from repro.serve import SolveRequest, SolverService, WarmEngine
from repro.smore import (SMORESolver, TASNet, TASNetConfig, TASNetPolicy,
                         TASNetTrainer, TrainingConfig)
from repro.tsptw import CachedPlanner, InsertionSolver

from .layers import span_metrics

PAPER_NET = TASNetConfig(d_model=128, num_heads=8, num_layers=3,
                         conv_channels=8)
PAPER_OPTIONS = repro.datasets.InstanceOptions(task_density=0.15,
                                               num_workers=7)


def build_net(instance) -> TASNet:
    """Paper-size TASNet on the instance's grid, initialised from seed 0."""
    grid = instance.coverage.grid
    return TASNet(PAPER_NET, grid_nx=grid.nx, grid_ny=grid.ny,
                  rng=np.random.default_rng(0))


def paper_instances(count: int, seed: int) -> list:
    """``count`` paper-scale delivery instances (S=144, W=7)."""
    return repro.datasets.generate_instances("delivery", count, seed=seed,
                                             options=PAPER_OPTIONS)


@dataclass
class Pass:
    """One timed pass: outputs by operation index, latencies, wall time.

    An output is a result or the exception its operation raised.
    """

    outputs: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    extra: dict = field(default_factory=dict)


def _keep_going(i: int, deadline: float, min_ops: int,
                max_ops: int | None) -> bool:
    if max_ops is not None:
        return i < max_ops
    return i < min_ops or time.perf_counter() < deadline


def closed_loop(op, deadline: float, min_ops: int,
                max_ops: int | None = None) -> Pass:
    """One caller issuing ``op(i)`` back to back; ``op`` returns
    ``(latency_s, output)``."""
    result = Pass()
    start = time.perf_counter()
    i = 0
    while _keep_going(i, deadline, min_ops, max_ops):
        try:
            latency, output = op(i)
            result.latencies.append(latency)
        except Exception as exc:  # counted as a failed operation
            output = exc
        result.outputs[i] = output
        i += 1
    result.wall = time.perf_counter() - start
    return result


def digest_of(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def validate_solutions(solutions) -> list[tuple]:
    """``Solution.validate`` with Definition-6 incentives, once per object.

    Base routes come from a fresh planner, so a stale memo in the solver
    under test cannot hide a wrong incentive.
    """
    problems, seen = [], set()
    for index, solution in solutions:
        if id(solution) in seen:
            continue
        seen.add(id(solution))
        planner = InsertionSolver(speed=solution.instance.speed)
        model = IncentiveModel(
            mu=solution.instance.mu,
            base_rtt_fn=lambda w: planner.base_route(w).route_travel_time)
        problems += [(index, p) for p in solution.validate(model)]
    return problems


def perf_metrics(solutions, ops: int) -> dict:
    """Planner counters summed over distinct solutions' ``perf``, per op."""
    calls = init_calls = 0
    seen = set()
    for solution in solutions:
        if id(solution) in seen or solution.perf is None:
            continue
        seen.add(id(solution))
        calls += solution.perf.planner_calls
        init_calls += solution.perf.init_planner_calls
    return {"planner.calls": calls / ops,
            "planner.init_calls": init_calls / ops}


class Workload:
    """Interface of one workload; subclasses fill in the operations."""

    name = ""
    min_ops = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def run(self, state, deadline: float, max_ops: int | None = None) -> Pass:
        raise NotImplementedError

    def phi(self, output) -> float:
        return output.objective

    def digest(self, output) -> str:
        return solution_digest(output)

    def check(self, state, timed: Pass) -> list[tuple]:
        """Problems with a pass's outputs as ``(op index or None, text)``."""
        return validate_solutions(
            (i, out) for i, out in sorted(timed.outputs.items())
            if not isinstance(out, Exception))

    def layer_metrics(self, state, timed: Pass) -> dict:
        """Per-layer metrics read from the program's own counters."""
        ok = [out for out in timed.outputs.values()
              if not isinstance(out, Exception)]
        return perf_metrics(ok, len(timed.outputs))

    def reference(self, state, timed: Pass, tracer, targets, roles):
        """Extra reference passes of the traced run: (metrics, problems)."""
        return {}, []


# ---------------------------------------------------------------------- #
class SolvePaper(Workload):
    """The paper's greedy test protocol, one cold instance per solve."""

    name = "solve-paper"
    min_ops = 64
    instances = 450

    def setup(self, seed):
        instances = paper_instances(self.instances + 1, seed)
        solver = SMORESolver(InsertionSolver(),
                             TASNetPolicy(build_net(instances[0])))
        solver.solve(instances[-1])  # warm-up on an instance never timed
        return SimpleNamespace(instances=instances[:-1], solver=solver)

    def run(self, state, deadline, max_ops=None):
        def op(i):
            instance = state.instances[i % len(state.instances)]
            start = time.perf_counter()
            solution = state.solver.solve(instance)
            return time.perf_counter() - start, solution

        return closed_loop(op, deadline, self.min_ops, max_ops)


# ---------------------------------------------------------------------- #
class TrainReinforce(Workload):
    """REINFORCE iterations, each from the same starting state.

    The trainer, and with it every candidate-table snapshot, lives for
    the whole run, but before each iteration the weights, both Adam
    states and the sampling stream are restored to their initial values.
    Iteration time then does not drift with what the policy has learnt
    (from random init, a few updates changed episode lengths, and so the
    time, by up to 2x depending on the seed), and every iteration must
    return the identical reward; ``check`` holds it to that.
    """

    name = "train-reinforce"
    min_ops = 2
    instances = 8
    config = TrainingConfig(batch_size=8, rollouts_per_instance=4, seed=3)

    @staticmethod
    def _state_of(trainer) -> tuple:
        return (trainer.policy.net.state_dict(), trainer.critic.state_dict(),
                trainer.optimizer.state_dict(),
                trainer.critic_optimizer.state_dict())

    def _restore(self, trainer, start: tuple) -> None:
        net, critic, optimizer, critic_optimizer = start
        trainer.policy.net.load_state_dict(net)
        trainer.critic.load_state_dict(critic)
        trainer.optimizer.load_state_dict(optimizer)
        trainer.critic_optimizer.load_state_dict(critic_optimizer)
        trainer.rng = np.random.default_rng(self.config.seed)

    def setup(self, seed):
        instances = paper_instances(self.instances, seed)
        trainer = TASNetTrainer(TASNetPolicy(build_net(instances[0])),
                                InsertionSolver(), self.config)
        start = self._state_of(trainer)
        trainer.train_iteration(instances)  # warm-up: fills the snapshots
        return SimpleNamespace(instances=instances, trainer=trainer,
                               start=start)

    def run(self, state, deadline, max_ops=None):
        def op(i):
            self._restore(state.trainer, state.start)
            start = time.perf_counter()
            reward = state.trainer.train_iteration(state.instances)
            return time.perf_counter() - start, reward

        return closed_loop(op, deadline, self.min_ops, max_ops)

    def phi(self, output):
        return output

    def digest(self, output):
        return float(output).hex()

    def check(self, state, timed):
        problems = []
        first = timed.outputs.get(0)
        for i, reward in sorted(timed.outputs.items()):
            if isinstance(reward, Exception):
                continue
            if not math.isfinite(reward):
                problems.append((i, f"non-finite return {reward}"))
            if reward != first:
                problems.append((i, f"return {reward!r} differs from "
                                    f"iteration 0's {first!r}"))
        return problems

    def layer_metrics(self, state, timed):
        return {}


# ---------------------------------------------------------------------- #
class ServeClosed(Workload):
    """Four closed-loop clients against the asyncio solver service."""

    name = "serve-closed"
    min_ops = 64
    clients = 4
    instances = 96
    warmup = 16
    max_requests = 5000
    zipf_s = 1.1
    sampled_share = 0.2
    sampled_rollouts = 4
    resolved = 16  # served greedy answers re-solved directly by check()

    def _requests(self, rng, instances, count) -> list[SolveRequest]:
        order = rng.permutation(len(instances))
        weights = 1.0 / np.arange(1, len(instances) + 1) ** self.zipf_s
        picks = rng.choice(len(instances), size=count,
                           p=weights / weights.sum())
        sampled = rng.random(count) < self.sampled_share
        seeds = rng.integers(0, 2**31, size=count)
        return [SolveRequest(instance=instances[order[k]], greedy=not s,
                             seed=int(seed) if s else None,
                             num_samples=self.sampled_rollouts if s else 1)
                for k, s, seed in zip(picks, sampled, seeds)]

    def setup(self, seed):
        instances = paper_instances(self.instances, seed)
        net = build_net(instances[0])
        engine = WarmEngine(SMORESolver(CachedPlanner(InsertionSolver()),
                                        TASNetPolicy(net)))
        service = SolverService(engine)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(service.start())
        requests = self._requests(np.random.default_rng(seed), instances,
                                  self.warmup + self.max_requests)
        state = SimpleNamespace(net=net, engine=engine, service=service,
                                loop=loop, requests=requests[self.warmup:])
        loop.run_until_complete(self._drive(
            service, requests[:self.warmup], math.inf, 0, self.warmup))
        return state

    def teardown(self, state):
        try:
            state.loop.run_until_complete(state.service.stop())
        finally:
            state.loop.close()

    async def _drive(self, service, requests, deadline, min_ops, max_ops):
        timed = Pass()
        traces = {}

        async def client(first: int) -> None:
            i = first
            while i < len(requests) and _keep_going(i, deadline, min_ops,
                                                    max_ops):
                request = requests[i]
                start = time.perf_counter()
                try:
                    solution, trace = await service.solve(
                        request.instance, greedy=request.greedy,
                        seed=request.seed, num_samples=request.num_samples,
                        return_trace=True)
                    timed.latencies.append(time.perf_counter() - start)
                    timed.outputs[i] = solution
                    traces[i] = trace
                except Exception as exc:  # counted as a failed request
                    timed.outputs[i] = exc
                i += self.clients

        start = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(self.clients)))
        timed.wall = time.perf_counter() - start
        timed.extra["traces"] = traces
        return timed

    def run(self, state, deadline, max_ops=None):
        engine = state.engine
        planner_before = engine.solver.planner.stats()
        engine_before = engine.stats()
        timed = state.loop.run_until_complete(self._drive(
            state.service, state.requests, deadline, self.min_ops, max_ops))
        timed.extra["planner"] = engine.solver.planner.stats().diff(
            planner_before)
        after = engine.stats()
        timed.extra["engine"] = {key: after[key] - engine_before[key]
                                 for key in ("env_hits", "env_misses",
                                             "statics_hits", "statics_misses")}
        return timed

    def check(self, state, timed):
        problems = super().check(state, timed)
        greedy = [i for i in sorted(timed.outputs)
                  if state.requests[i].greedy
                  and not isinstance(timed.outputs[i], Exception)]
        direct = SMORESolver(InsertionSolver(), TASNetPolicy(state.net))
        for i in greedy[:self.resolved]:
            want = solution_digest(direct.solve(state.requests[i].instance))
            if solution_digest(timed.outputs[i]) != want:
                problems.append((i, "served greedy answer differs from a "
                                    "direct solve"))
        return problems

    def layer_metrics(self, state, timed):
        metrics = super().layer_metrics(state, timed)
        traces = list(timed.extra["traces"].values())
        duplicates = sum(1 for t in traces if t.dedup == "duplicate")
        # Each batch of n requests contributes n traces of weight 1/n.
        batches = sum(1.0 / t.batch_requests for t in traces)
        planner = timed.extra["planner"]
        engine = timed.extra["engine"]

        def rate(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        metrics.update({
            "serve.admission_wait_ms.p50": statistics.median(
                t.admission_wait_ms for t in traces),
            "serve.coalesce_wait_ms.p50": statistics.median(
                t.coalesce_wait_ms for t in traces),
            "serve.batch_width.mean": (len(traces) - duplicates) / batches,
            "serve.dedup_share": duplicates / len(traces),
            "serve.env_hit_rate": rate(engine["env_hits"],
                                       engine["env_misses"]),
            "policy.statics_hit_rate": rate(engine["statics_hits"],
                                            engine["statics_misses"]),
            "planner.cache_hit_rate": rate(planner.cache_hits,
                                           planner.cache_misses),
        })
        return metrics


# ---------------------------------------------------------------------- #
class CityShard(Workload):
    """Sharded city solves on a persistent two-worker pool."""

    name = "city-shard"
    min_ops = 4
    cities = 40
    shards = 4
    pool_workers = 2
    city = dict(num_tasks=1_000, num_workers=100, budget=300.0)
    serial_refs = 4      # traced run: P=4 without the pool
    unsharded_refs = 2   # traced run: P=1

    def setup(self, seed):
        cities = [repro.datasets.synthetic.make_city_instance(
                      seed=seed * 1000 + k, **self.city)
                  for k in range(self.cities + 1)]
        solver = SMORESolver(InsertionSolver(speed=cities[0].speed),
                             TASNetPolicy(build_net(cities[0])))
        pool = PersistentPool(workers=self.pool_workers)
        try:
            repro.shard.solve_sharded(solver, cities[-1], self.shards,
                                      pool=pool)
        except BaseException:
            pool.close()
            raise
        return SimpleNamespace(cities=cities[:-1], solver=solver, pool=pool)

    def teardown(self, state):
        state.pool.close()

    def _solve(self, state, i, shards, pool):
        city = state.cities[i % len(state.cities)]
        start = time.perf_counter()
        solution = repro.shard.solve_sharded(state.solver, city, shards,
                                             pool=pool)
        return time.perf_counter() - start, solution

    def run(self, state, deadline, max_ops=None):
        return closed_loop(
            lambda i: self._solve(state, i, self.shards, state.pool),
            deadline, self.min_ops, max_ops)

    def check(self, state, timed):
        problems = super().check(state, timed)
        solved = {i % len(state.cities) for i, out in timed.outputs.items()
                  if not isinstance(out, Exception)}
        for k in sorted(solved):
            plan = repro.shard.partition_instance(state.cities[k],
                                                  self.shards)
            problems += [(None, f"city {k} partition: {p}")
                         for p in plan.validate()]
        for i, out in sorted(timed.outputs.items()):
            if not isinstance(out, Exception) \
                    and not out.shard_report.used_pool:
                problems.append((i, "shards were not solved on the pool"))
        return problems

    def layer_metrics(self, state, timed):
        ok = [out for out in timed.outputs.values()
              if not isinstance(out, Exception)]
        reports = [out.shard_report for out in ok]
        metrics = super().layer_metrics(state, timed)
        metrics.update({
            "shard.solve_s": statistics.fmean(r.wall_solve for r in reports),
            "shard.repair_s": statistics.fmean(r.wall_repair
                                               for r in reports),
            "shard.repair_added": statistics.fmean(r.repair_added
                                                   for r in reports),
            "shard.boundary_tasks": statistics.fmean(r.boundary_tasks
                                                     for r in reports),
            "parallel.child_work_s": statistics.fmean(
                out.perf.total_time for out in ok),
        })
        return metrics

    def reference(self, state, timed, tracer, targets, roles):
        """P=4 without the pool and P=1, on the first timed cities.

        Pool children are not traced, so the in-process layer breakdown
        comes from the traced serial pass.  Speed-ups use untraced walls:
        algorithmic = P=1 / serial P=4, parallel = serial P=4 / pool P=4.
        """
        serial = [self._solve(state, i, self.shards, None)
                  for i in range(self.serial_refs)]
        unsharded = [self._solve(state, i, 1, None)
                     for i in range(self.unsharded_refs)]
        with tracer.installed(targets):
            tracer.reset()
            traced = [self._solve(state, i, self.shards, None)[1]
                      for i in range(self.serial_refs)]
            totals = tracer.totals()
        metrics = {key: value for key, value
                   in span_metrics(totals, roles, self.serial_refs).items()
                   if not key.startswith("parallel.")}
        metrics.update(perf_metrics(traced, self.serial_refs))

        problems = []
        for i, (_, solution) in enumerate(serial):
            pooled = timed.outputs.get(i)
            if isinstance(pooled, Exception) or pooled is None \
                    or solution_digest(pooled) != solution_digest(solution):
                problems.append((None, f"city {i}: pool and serial "
                                       f"P={self.shards} solutions differ"))
        pool_walls = timed.latencies[:self.serial_refs]
        serial_walls = [wall for wall, _ in serial]
        unsharded_walls = [wall for wall, _ in unsharded]
        phis = [(u.objective, s.objective)
                for (_, u), (_, s) in zip(unsharded, serial)]
        metrics.update({
            "shard.serial_solve_ms.p50":
                statistics.median(serial_walls) * 1e3,
            "shard.unsharded_solve_ms.p50":
                statistics.median(unsharded_walls) * 1e3,
            "shard.speedup_algorithmic":
                sum(unsharded_walls) / sum(serial_walls[:len(unsharded)]),
            "shard.speedup_parallel": sum(serial_walls) / sum(pool_walls),
            "shard.phi_gap": statistics.fmean((u - s) / u for u, s in phis),
        })
        return metrics, problems


WORKLOADS = {cls.name: cls for cls in
             (SolvePaper, TrainReinforce, ServeClosed, CityShard)}
