"""The SMORE solver facade (paper Algorithm 1).

Runs candidate assignment initialisation followed by iterative selection,
driven by a trained (or untrained) policy.  Also hosts the "w/o RL-AS"
ablation: the same iterative framework with a purely greedy
coverage-gain-first selection rule instead of the learned policy.

Every solve decodes through :class:`~repro.smore.batch.MultiInstanceRunner`.
Sample-and-select-best inference (``num_samples > 1``) shares one
:class:`~repro.smore.env.SelectionEnv` across rollouts, so the candidate
table is initialised once and restored by snapshot copy per rollout; with
``workers > 1`` contiguous chunks of the rollout schedule additionally
fan out over a process pool (:mod:`repro.parallel`) with per-rollout
seeds derived from one root, making parallel and serial decoding
bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import nn, obs
from ..core.instance import USMDWInstance
from ..core.perf import PerfCounters
from ..core.solution import Solution
from ..obs.profile import scope as profile_scope
from ..obs.slo import current_slo_tracker
from ..parallel import derive_seeds, parallel_map
from ..tsptw.base import RoutePlanner
from .batch import BatchFull, DeadlineExpired, MultiInstanceRunner
from .env import SelectionEnv
from .policy import FlatSelectionPolicy, TASNetPolicy
from .state import SelectionState

__all__ = ["SMORESolver", "SolveBatch", "GreedySelectionRule",
           "RatioSelectionRule", "run_episode"]


def run_episode(env: SelectionEnv, policy, greedy: bool = True,
                rng: np.random.Generator | None = None,
                record_actions: bool = False):
    """Roll one full episode; return (state, total_reward, action_records).

    The B=1, K=1 run of :class:`~repro.smore.batch.MultiInstanceRunner`.
    """
    [[episode]] = MultiInstanceRunner([env], policy).run(
        [[(greedy, rng)]], record_actions)
    return episode.state, episode.total_reward, episode.records


def _chunk(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous non-empty chunks.

    Contiguity preserves the rollout schedule's order, so concatenating
    chunk results reproduces the serial result list exactly.
    """
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def _best_candidate_pair(state: SelectionState, score):
    """Arg-best (worker, task) over the candidate table without sorting.

    ``score(task_id, entry)`` returns the primary key to *minimise* (e.g.
    negative coverage gain).  Ties break toward the lower incentive cost,
    then the lower task id within a worker's row; across workers the
    earlier worker in table order wins, mirroring the historical
    sorted-scan semantics at O(row) instead of O(row log row) per step.
    """
    best = None
    best_key = None
    for worker_id in state.candidates.workers_with_candidates():
        row_best = None
        row_key = None
        for task_id, entry in state.candidates.worker_candidates(
                worker_id).items():
            key = (score(task_id, entry), entry.delta_incentive, task_id)
            if row_key is None or key < row_key:
                row_key = key
                row_best = task_id
        if row_key is not None and (best_key is None
                                    or row_key[:2] < best_key[:2]):
            best_key = row_key
            best = (worker_id, row_best)
    return best


class GreedySelectionRule:
    """"w/o RL-AS" ablation: pick the pair with maximum coverage gain.

    Ties break toward the lower incentive cost, mirroring TVPG's rule but
    inside SMORE's exact-replanning framework.
    """

    def begin_episode(self, instance: USMDWInstance) -> None:
        """Stateless: candidate tasks are read off the state's pool."""

    def act(self, state: SelectionState, greedy: bool = True,
            rng: np.random.Generator | None = None):
        from .policy import ActionRecord

        def score(task_id, entry):
            return -state.coverage.gain(state.unselected[task_id])

        best = _best_candidate_pair(state, score)
        return ActionRecord(best[0], best[1], nn.Tensor(0.0))


class RatioSelectionRule:
    """Coverage-incentive-ratio greedy: pick the pair maximising
    ``delta_phi / delta_in`` (the paper's soft-mask heuristic, Section IV-E,
    applied as a hard rule).  Used as the imitation-pretraining teacher and
    as a strong deterministic reference policy."""

    def begin_episode(self, instance: USMDWInstance) -> None:
        """Stateless: candidate tasks are read off the state's pool."""

    def act(self, state: SelectionState, greedy: bool = True,
            rng: np.random.Generator | None = None):
        from .heuristics import SOFT_MASK_EPS
        from .policy import ActionRecord

        def score(task_id, entry):
            gain = state.coverage.gain(state.unselected[task_id])
            return -gain / max(entry.delta_incentive, SOFT_MASK_EPS)

        best = _best_candidate_pair(state, score)
        return ActionRecord(best[0], best[1], nn.Tensor(0.0))


class SMORESolver:
    """SMORE: candidate initialisation + policy-driven iterative selection.

    Parameters
    ----------
    planner:
        TSPTW backend (``f_TSPTW`` in Algorithm 1).
    policy:
        A :class:`TASNetPolicy`, :class:`FlatSelectionPolicy` ("w/o
        TASNet"), or :class:`GreedySelectionRule` ("w/o RL-AS").
    name:
        Label recorded on solutions (defaults by policy type).
    """

    def __init__(self, planner: RoutePlanner, policy, name: str | None = None):
        self.planner = planner
        self.policy = policy
        if name is None:
            name = {
                TASNetPolicy: "SMORE",
                FlatSelectionPolicy: "SMORE w/o TASNet",
                GreedySelectionRule: "SMORE w/o RL-AS",
            }.get(type(policy), "SMORE")
        self.name = name

    # ------------------------------------------------------------------ #
    def _rollout_plan(self, greedy: bool, rng: np.random.Generator | None,
                      num_samples: int) -> list:
        """The (use_greedy, seed) schedule for sample-and-select-best.

        Per-rollout seeds are derived from one root drawn off the caller's
        rng, so the schedule — and therefore the returned solution — is
        identical whether rollouts run serially or across a pool.  Raises
        ``ValueError`` when ``num_samples < 1``.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if num_samples > 1:
            rng = rng or np.random.default_rng()
            root = int(rng.integers(0, 2**63 - 1))
            return [(True, None)] + [
                (False, seed) for seed in derive_seeds(root, num_samples - 1)]
        if not greedy:
            return [(False, np.random.SeedSequence()
                     if rng is None else rng)]
        return [(True, None)]

    def _decode(self, envs, plans):
        """Decode ``plans[i]`` on ``envs[i]`` in one no-grad lock-step run.

        The decode core :meth:`solve` and :meth:`SolveBatch.execute`
        share.  Each env's perf counters restart so they report only
        this run (a warm env carries earlier batches' counts, a pool
        child's env is a fork copy).  A memoising planner's counters are
        lifetime totals, so their delta over the run is returned too —
        differencing inside the run is what ships a pool child's cache
        activity back.  Returns ``(per-env episode lists, delta or
        None)``.
        """
        for env in envs:
            env.perf = PerfCounters()
        stats_fn = getattr(self.planner, "stats", None)
        cache_before = stats_fn() if stats_fn is not None else None
        with obs.span("select", rollouts=sum(len(plan) for plan in plans)):
            with nn.no_grad():
                grouped = MultiInstanceRunner(envs, self.policy).run(plans)
        cache_delta = (stats_fn().diff(cache_before)
                       if cache_before is not None else None)
        return grouped, cache_delta

    def _fan_out(self, env, fn, items, workers: int,
                 perf: PerfCounters) -> list:
        """``[fn(item) for item in items]``, across a pool when
        ``workers > 1`` and there is more than one item.

        Before forking, the env's initial snapshot is warmed so every
        child inherits it instead of re-running the O(W x S) init sweep;
        the warm-up's env counters and planner-cache delta go to
        ``perf``.
        """
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        stats_fn = getattr(self.planner, "stats", None)
        cache_before = stats_fn() if stats_fn is not None else None
        env.reset()  # emits the env's "init" span on first compute
        env.perf.rollouts = 0  # the warm-up reset is not an episode
        perf.merge(env.perf)
        if cache_before is not None:
            perf.merge(stats_fn().diff(cache_before))
        return parallel_map(fn, items, workers=workers)

    def solve(self, instance: USMDWInstance, greedy: bool = True,
              rng: np.random.Generator | None = None,
              num_samples: int = 1, workers: int = 1,
              shards: int | None = None,
              shard_method: str = "grid",
              shard_pool=None) -> Solution:
        """Solve one instance.

        ``greedy=True`` decodes with argmax actions (the paper's test-time
        protocol).  ``num_samples > 1`` enables sample-and-select-best
        inference — a standard neural-CO extension beyond the paper: the
        policy is rolled out stochastically ``num_samples - 1`` times on
        top of one greedy rollout and the best-coverage solution is
        returned.  Candidate initialisation runs once regardless of
        ``num_samples`` (snapshot reuse).  All rollouts advance in
        lock-step, one batched policy forward per decoding step;
        ``workers > 1`` splits the rollout schedule into contiguous
        chunks decoded across a process pool.  Each rollout keeps its
        own derived seed and rng-draw order, so the returned solution is
        identical for every ``workers``.

        ``shards > 1`` routes the solve through the city-scale
        divide-and-conquer pipeline (:func:`repro.shard.solve_sharded`):
        spatial partition, independent per-shard solves (optionally over
        a ``shard_pool`` :class:`~repro.parallel.PersistentPool`), then
        boundary repair and merge.  ``shards=1``/``None`` is the plain
        unsharded path.
        """
        if shards is not None and shards > 1:
            from ..shard import solve_sharded

            return solve_sharded(self, instance, shards,
                                 method=shard_method, pool=shard_pool,
                                 greedy=greedy, rng=rng,
                                 num_samples=num_samples)
        start = time.perf_counter()
        solve_span = obs.span("solve", method=self.name,
                              num_samples=num_samples, workers=workers)
        with solve_span, profile_scope("solve"):
            env = SelectionEnv(instance, self.planner)
            chunks = _chunk(self._rollout_plan(greedy, rng, num_samples),
                            workers)
            perf = PerfCounters()

            def decode_chunk(chunk):
                [episodes], cache_delta = self._decode([env], [chunk])
                if cache_delta is not None:
                    env.perf.merge(cache_delta)
                return ([(ep.state.phi(), ep.state.assignments.routes(),
                          ep.state.assignments.incentives())
                         for ep in episodes], env.perf)

            best = None
            best_phi = -float("inf")
            for episodes, chunk_perf in self._fan_out(env, decode_chunk,
                                                      chunks, workers, perf):
                perf.merge(chunk_perf)
                for phi, routes, incentives in episodes:
                    if phi > best_phi:
                        best_phi = phi
                        best = (routes, incentives)

            elapsed = time.perf_counter() - start
            obs.count("solve.count")
            obs.record_perf(perf, prefix="solve.")
            obs.gauge("solve.best_phi", best_phi)
            obs.event("solve.done", method=self.name, phi=best_phi,
                      rollouts=sum(len(chunk) for chunk in chunks),
                      planner_calls=perf.planner_calls,
                      wall_time=round(elapsed, 6))
        return Solution(
            instance=instance,
            routes=best[0],
            incentives=best[1],
            solver_name=self.name,
            wall_time=elapsed,
            perf=perf,
        )

    def solve_dynamic(self, instance: USMDWInstance, schedule,
                      greedy: bool = True,
                      rng: np.random.Generator | None = None,
                      num_samples: int = 1, workers: int = 1,
                      repair: bool = True,
                      worker_arrivals: dict[int, float] | None = None):
        """Solve one instance under a streaming arrival schedule.

        Same sampling surface as :meth:`solve` — one greedy rollout plus
        ``num_samples - 1`` stochastic replays of the full dynamic
        episode, best coverage wins — but each rollout runs the
        epoch-by-epoch loop of
        :func:`~repro.smore.dynamic.run_dynamic_episode`: select until
        the candidate table drains, advance to the next arrival/expiry
        epoch (incremental table repair by default, per-epoch rebuild
        with ``repair=False``), repeat until nothing more can arrive.
        ``workers > 1`` fans sampled rollouts over a process pool with
        the same derived-seed schedule as :meth:`solve`, so parallel and
        serial decoding return identical results.  Returns a
        :class:`~repro.smore.dynamic.DynamicResult` with explicit
        rejection accounting alongside the usual routes/incentives.
        """
        from .dynamic import DynamicResult, DynamicSelectionEnv, \
            run_dynamic_episode

        start = time.perf_counter()
        with obs.span("solve_dynamic", method=self.name,
                      num_samples=num_samples, workers=workers,
                      repair=repair), profile_scope("solve"):
            env = DynamicSelectionEnv(
                instance, self.planner, schedule, repair=repair,
                worker_arrivals=worker_arrivals)
            rollouts = self._rollout_plan(greedy, rng, num_samples)
            stats_fn = getattr(self.planner, "stats", None)

            def roll(spec):
                use_greedy, seed = spec
                roll_rng = None
                if not use_greedy:
                    roll_rng = (seed if isinstance(seed, np.random.Generator)
                                else np.random.default_rng(seed))
                env.perf = PerfCounters()
                cache_before = stats_fn() if stats_fn is not None else None
                with obs.span("select", rollouts=1):
                    with nn.no_grad():
                        state, _ = run_dynamic_episode(
                            env, self.policy, greedy=use_greedy, rng=roll_rng)
                if cache_before is not None:
                    env.perf.merge(stats_fn().diff(cache_before))
                return (state.phi(), state.assignments.routes(),
                        state.assignments.incentives(),
                        tuple(t.task_id for t in state.selected),
                        tuple(state.rejected), state.arrived, state.events,
                        env.perf)

            perf = PerfCounters()
            results = self._fan_out(env, roll, rollouts, workers, perf)
            for result in results:
                perf.merge(result[-1])

            best = max(results, key=lambda r: r[0])
            elapsed = time.perf_counter() - start
            obs.count("solve_dynamic.count")
            obs.record_perf(perf, prefix="solve.")
            obs.gauge("solve.best_phi", best[0])
            obs.event("solve_dynamic.done", method=self.name, phi=best[0],
                      rejected=len(best[4]), events=best[6],
                      rollouts=len(rollouts), wall_time=round(elapsed, 6))
            # An installed SLO tracker saw every epoch (run_dynamic_episode
            # feeds it on simulation time; parallel rollouts merge their
            # window deltas back through capture_child/absorb).  Close the
            # run with one final objective check + a report event so the
            # trace file carries the end-state verdicts.
            slo_tracker = current_slo_tracker()
            if slo_tracker is not None:
                slo_tracker.check()
                report = slo_tracker.report()
                obs.event("solve_dynamic.slo", slo=report["name"],
                          requests=report["requests"],
                          error_rate=report["error_rate"],
                          budget_used=report["budget_used"],
                          alerts_fired=report["alerts_fired"])
        return DynamicResult(
            instance=instance, phi=best[0], routes=best[1],
            incentives=best[2], selected_ids=best[3], rejected_ids=best[4],
            arrived=best[5], events=best[6], solver_name=self.name,
            wall_time=elapsed, perf=perf)

    def open_batch(self, max_size: int | None = None, env_factory=None,
                   clock=time.monotonic) -> "SolveBatch":
        """Open an incrementally assembled cross-instance decode batch.

        The serving front-end admits requests one at a time
        (:meth:`SolveBatch.admit`, with admission control and deadline
        shedding) and fires :meth:`SolveBatch.execute` when the batch
        closes; :meth:`solve_many` is this surface with the whole request
        list admitted up front.
        """
        return SolveBatch(self, max_size=max_size, env_factory=env_factory,
                          clock=clock)

    def solve_many(self, instances, greedy: bool = True, rngs=None,
                   num_samples: int = 1) -> list[Solution]:
        """Solve B instances in one cross-instance batched decode.

        Each instance's rollout schedule comes from the same
        :meth:`_rollout_plan` (consuming its entry of ``rngs`` exactly as
        :meth:`solve` would), then all ``B x num_samples`` rollouts
        advance in lock-step through
        :class:`~repro.smore.batch.MultiInstanceRunner` — one batched
        two-stage forward per decoding step across the whole fleet.  The
        returned solutions therefore match B independent
        ``solve(instances[i], rng=rngs[i], ...)`` calls
        action-for-action.

        An empty instance list is an error: a batch with nothing to
        decode almost always signals a caller bug (an exhausted request
        queue, a filtered-away workload), so it raises ``ValueError``
        instead of silently returning ``[]``.

        Accounting: per-solution ``wall_time`` is the batch wall time
        amortised over the instances (the marginal time of one instance
        inside a shared batch is undefined), and a shared memoising
        planner's cache delta for the whole run is merged into the first
        solution's perf — summing perf over the returned list stays
        comparable with the sum over independent solves.
        """
        instances = list(instances)
        if not instances:
            raise ValueError(
                "solve_many needs at least one instance; an empty batch is "
                "almost always a caller bug (use solve() for one instance)")
        rng_list = [None] * len(instances) if rngs is None else list(rngs)
        if len(rng_list) != len(instances):
            raise ValueError(
                f"got {len(rng_list)} rngs for {len(instances)} instances")
        batch = self.open_batch()
        for instance, rng in zip(instances, rng_list):
            batch.admit(instance, greedy=greedy, rng=rng,
                        num_samples=num_samples)
        return batch.execute()


@dataclass
class _BatchRequest:
    """One admitted solve request inside a :class:`SolveBatch`."""

    instance: USMDWInstance
    greedy: bool
    rng: object
    num_samples: int
    deadline: float | None


class SolveBatch:
    """Incrementally assembled cross-instance decode batch.

    The admission surface under the online solver service: requests are
    admitted one at a time — each with its own instance, decode mode,
    rng, and optional deadline — and :meth:`execute` decodes every
    admitted rollout in one lock-step
    :class:`~repro.smore.batch.MultiInstanceRunner` pass.

    Admission control: ``max_size`` bounds the batch
    (:class:`~repro.smore.batch.BatchFull` past it) and a request whose
    ``deadline`` (a ``clock()`` timestamp, :func:`time.monotonic` by
    default) already passed is rejected with
    :class:`~repro.smore.batch.DeadlineExpired`.  Requests whose deadline
    expires *between* admission and execution are shed at execute time:
    their slot in the returned list is ``None`` and they never enter the
    decode batch.

    ``env_factory(instance)`` lets a warm engine supply resident
    :class:`~repro.smore.env.SelectionEnv` objects (candidate-table
    snapshots survive across batches); by default each request gets a
    fresh env over the solver's planner.  When the factory returns the
    same env object for duplicate instances inside one batch, decode
    correctness is unaffected (every rollout owns its state) and the
    env's perf counters are attributed to the first request on that env.

    Batching is an execution strategy, not a semantics change: a greedy
    request's solution is bit-identical to ``solver.solve(instance)``
    regardless of which other requests share the batch.
    """

    def __init__(self, solver: SMORESolver, max_size: int | None = None,
                 env_factory=None, clock=time.monotonic):
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self._solver = solver
        self._max_size = max_size
        self._env_factory = env_factory
        self._clock = clock
        self._requests: list[_BatchRequest] = []
        self._executed = False

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def is_full(self) -> bool:
        return self._max_size is not None \
            and len(self._requests) >= self._max_size

    # ------------------------------------------------------------------ #
    def admit(self, instance: USMDWInstance, greedy: bool = True,
              rng=None, num_samples: int = 1,
              deadline: float | None = None) -> int:
        """Admit one request into the batch; returns its ticket index.

        Tickets index the list :meth:`execute` returns.  Raises
        :class:`BatchFull` when the batch is at ``max_size`` and
        :class:`DeadlineExpired` when ``deadline`` already passed.
        """
        if self._executed:
            raise RuntimeError("batch already executed; open a new one")
        if self.is_full:
            raise BatchFull(
                f"batch already holds {self._max_size} requests")
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExpired(
                f"deadline passed {self._clock() - deadline:.6f}s before "
                "admission")
        self._requests.append(_BatchRequest(
            instance=instance, greedy=bool(greedy), rng=rng,
            num_samples=num_samples, deadline=deadline))
        return len(self._requests) - 1

    # ------------------------------------------------------------------ #
    def _make_env(self, instance: USMDWInstance) -> SelectionEnv:
        if self._env_factory is not None:
            return self._env_factory(instance)
        return SelectionEnv(instance, self._solver.planner)

    def execute(self) -> list[Solution | None]:
        """Decode every live admitted request in one lock-step batch.

        Returns one entry per ticket, in admission order: a
        :class:`~repro.core.solution.Solution`, or ``None`` for requests
        whose deadline expired while queued (shed without decoding).
        Raises ``ValueError`` on an empty batch.
        """
        if self._executed:
            raise RuntimeError("batch already executed; open a new one")
        self._executed = True
        solver = self._solver
        requests = self._requests
        if not requests:
            raise ValueError(
                "cannot execute an empty batch; admit at least one request")
        now = self._clock()
        live = [i for i, req in enumerate(requests)
                if req.deadline is None or now < req.deadline]
        results: list[Solution | None] = [None] * len(requests)
        if len(live) < len(requests):
            obs.count("solve_many.shed", len(requests) - len(live))
        if not live:
            return results

        start = time.perf_counter()
        plans = [solver._rollout_plan(requests[i].greedy, requests[i].rng,
                                      requests[i].num_samples)
                 for i in live]
        total_rollouts = sum(len(plan) for plan in plans)
        many_span = obs.span("solve_many", method=solver.name,
                             instances=len(live), rollouts=total_rollouts)
        with many_span, profile_scope("solve"):
            envs = [self._make_env(requests[i].instance) for i in live]
            grouped, cache_delta = solver._decode(envs, plans)
            elapsed = time.perf_counter() - start
            shared_time = elapsed / len(live)

            perf_seen: set[int] = set()
            for i, env, episodes in zip(live, envs, grouped):
                best_state = None
                best_phi = -float("inf")
                for episode in episodes:
                    phi = episode.state.phi()
                    if phi > best_phi:
                        best_phi = phi
                        best_state = episode.state
                if id(env) not in perf_seen:
                    perf_seen.add(id(env))
                    perf = env.perf
                else:
                    perf = PerfCounters()   # duplicate env: counted once
                if cache_delta is not None:
                    perf.merge(cache_delta)
                    cache_delta = None       # batch-wide delta, counted once
                obs.count("solve.count")
                obs.record_perf(perf, prefix="solve.")
                obs.gauge("solve.best_phi", best_phi)
                results[i] = Solution(
                    instance=requests[i].instance,
                    routes=best_state.assignments.routes(),
                    incentives=best_state.assignments.incentives(),
                    solver_name=solver.name,
                    wall_time=shared_time,
                    perf=perf,
                )
            obs.event("solve_many.done", method=solver.name,
                      instances=len(live), rollouts=total_rollouts,
                      wall_time=round(elapsed, 6))
        return results
