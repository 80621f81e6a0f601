"""SolverService: batching parity, coalescing, shedding, admission.

The service's one hard promise: batching is invisible in the answers.  A
greedy request routed through the asyncio front-end, coalesced with
arbitrary companions, and decoded on the warm engine returns a solution
bit-identical to ``SMORESolver.solve`` on the same instance.  Around
that, the operational contract: the micro-batcher respects
``max_batch_size``/``max_wait_us``, expired deadlines shed with
:class:`DeadlineExceeded` without touching their companions, a full
queue rejects with :class:`ServiceOverloaded`, and ``stop()`` drains
admitted work before shutting down.

No pytest-asyncio here: each test owns its loop via ``asyncio.run``.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.serve import (
    DeadlineExceeded,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    SolveRequest,
    SolverService,
    WarmEngine,
    drive_requests,
    run_workload,
)
from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
from repro.tsptw import InsertionSolver

CONFIG = TASNetConfig(d_model=16, num_heads=2, num_layers=1, conv_channels=4)


@pytest.fixture(scope="module")
def instances():
    """Shape-heterogeneous pool: varying densities and worker counts."""
    opts = [InstanceOptions(task_density=0.02, budget=100.0, num_workers=2),
            InstanceOptions(task_density=0.05, budget=120.0),
            InstanceOptions(task_density=0.03, budget=150.0, num_workers=4)]
    insts = [generate_instances("delivery", 1, seed=20 + i, options=opt)[0]
             for i, opt in enumerate(opts)]
    assert len({(len(i.workers), len(i.sensing_tasks)) for i in insts}) == 3
    return insts


def _solver(instances):
    grid = instances[0].coverage.grid
    net = TASNet(CONFIG, grid_nx=grid.nx, grid_ny=grid.ny,
                 rng=np.random.default_rng(0))
    return SMORESolver(InsertionSolver(), TASNetPolicy(net))


def _engine(instances):
    return WarmEngine(_solver(instances))


def _routes(solution):
    return sorted((wid, tuple(t.task_id for t in route.tasks))
                  for wid, route in solution.routes.items())


def _identical(a, b):
    return (_routes(a) == _routes(b) and a.incentives == b.incentives
            and a.objective == b.objective)


class _BlockingEngine(WarmEngine):
    """Engine whose execute() blocks until released (admission tests)."""

    def __init__(self, solver):
        super().__init__(solver)
        self.entered = threading.Event()
        self.release = threading.Event()

    def execute(self, batch):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return super().execute(batch)


class TestBatchingParity:
    def test_greedy_responses_bit_identical_to_direct_solve(self, instances):
        """32 concurrent greedy requests round-robin over a heterogeneous
        pool: every answer matches the direct single-instance solve, no
        matter which companions shared its decode batch."""
        direct = {id(inst): _solver(instances).solve(inst)
                  for inst in instances}
        engine = _engine(instances)
        requests = [SolveRequest(instance=instances[i % len(instances)])
                    for i in range(32)]
        result = drive_requests(
            engine, requests,
            config=ServeConfig(max_batch_size=8, max_wait_us=50_000.0))
        assert not result.errors
        for request, solution in zip(requests, result.outcomes):
            assert _identical(direct[id(request.instance)], solution)
        # The workload actually exercised multi-request batches.
        assert result.stats["batch_size"]["max"] > 1

    def test_sampled_request_matches_seeded_direct_solve(self, instances):
        """A seeded sampled request through the service equals
        ``solve(greedy=False, rng=default_rng(seed), num_samples=k)`` —
        even when batched with greedy companions."""
        want = _solver(instances).solve(
            instances[1], greedy=False, rng=np.random.default_rng(77),
            num_samples=3)
        requests = [SolveRequest(instance=instances[0]),
                    SolveRequest(instance=instances[1], greedy=False,
                                 seed=77, num_samples=3),
                    SolveRequest(instance=instances[2])]
        result = drive_requests(_engine(instances), requests,
                                config=ServeConfig(max_wait_us=50_000.0))
        assert not result.errors
        assert _identical(want, result.outcomes[1])

    def test_single_request_degenerate_service(self, instances):
        """One request, no companions: still bit-identical."""
        want = _solver(instances).solve(instances[0])
        result = drive_requests(_engine(instances),
                                [SolveRequest(instance=instances[0])])
        assert _identical(want, result.outcomes[0])
        assert result.stats["batch_size"] == \
            pytest.approx({"count": 1, "mean": 1.0, "min": 1.0, "max": 1.0,
                           "p50": 1.0, "p95": 1.0, "p99": 1.0})


class TestMicroBatcher:
    def test_max_batch_size_caps_every_batch(self, instances):
        result = drive_requests(
            _engine(instances),
            [SolveRequest(instance=instances[i % len(instances)])
             for i in range(9)],
            config=ServeConfig(max_batch_size=2, max_wait_us=50_000.0))
        assert not result.errors
        batch = result.stats["batch_size"]
        assert batch["max"] <= 2
        assert batch["count"] >= 5          # 9 requests in <=2-size batches

    def test_zero_wait_still_batches_backlog(self, instances):
        """max_wait_us=0 disables coalescing *waits*, not batching: a
        backlog that accumulated while the engine was busy still forms a
        multi-request batch."""
        engine = _BlockingEngine(_solver(instances))

        async def run():
            # dedupe off: this test pins the *request* batch width, and
            # the 4-request backlog revisits an instance.
            async with SolverService(
                    engine, ServeConfig(max_wait_us=0.0,
                                        dedupe_greedy=False)) as service:
                first = asyncio.ensure_future(
                    service.solve(instances[0]))
                # Wait until the engine is busy with the first batch...
                while not engine.entered.is_set():
                    await asyncio.sleep(0.001)
                # ...then pile up a backlog behind it.
                rest = [asyncio.ensure_future(
                            service.solve(instances[(1 + i) % len(instances)]))
                        for i in range(4)]
                await asyncio.sleep(0.01)
                engine.release.set()
                await asyncio.gather(first, *rest)
                return service.stats()

        stats = asyncio.run(run())
        assert stats["responses"] == 5
        # Batch 1 held only the first request; the backlog batch held 4.
        assert stats["batch_size"]["max"] == 4

    def test_responses_under_load_report_queue_and_batches(self, instances):
        result = drive_requests(
            _engine(instances),
            [SolveRequest(instance=instances[i % len(instances)])
             for i in range(12)],
            config=ServeConfig(max_batch_size=4, max_wait_us=50_000.0))
        stats = result.stats
        assert stats["requests"] == 12
        assert stats["responses"] == 12
        assert stats["queue_depth_peak"] >= 1
        lat = stats["latency_ms"]
        assert lat["count"] == 12
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert stats["sustained_req_per_s"] > 0


class TestGreedyDedup:
    def test_identical_greedy_requests_share_one_decode(self, instances):
        """Six concurrent greedy requests for the same instance collapse
        onto a single decode slot; every caller gets the identical
        solution."""
        want = _solver(instances).solve(instances[0])
        result = drive_requests(
            _engine(instances),
            [SolveRequest(instance=instances[0]) for _ in range(6)],
            config=ServeConfig(max_batch_size=8, max_wait_us=50_000.0))
        assert not result.errors
        for solution in result.outcomes:
            assert _identical(want, solution)
        stats = result.stats
        assert stats["responses"] == 6
        assert stats["dedup_hits"] == 5
        # One decode slot served the whole batch.
        assert stats["batch_size"]["max"] == 1.0
        assert stats["batch_size"]["count"] == 1
        # Latency was still observed per *request*, not per decode.
        assert stats["latency_ms"]["count"] == 6

    def test_sampled_requests_never_dedupe(self, instances):
        """Sampled requests own their rng draws: same instance, same
        seed, still two decode slots."""
        requests = [SolveRequest(instance=instances[0], greedy=False,
                                 seed=5) for _ in range(2)]
        result = drive_requests(
            _engine(instances), requests,
            config=ServeConfig(max_batch_size=4, max_wait_us=50_000.0))
        assert not result.errors
        assert result.stats["dedup_hits"] == 0
        assert result.stats["batch_size"]["max"] == 2.0

    def test_dedupe_can_be_disabled(self, instances):
        result = drive_requests(
            _engine(instances),
            [SolveRequest(instance=instances[0]) for _ in range(4)],
            config=ServeConfig(max_batch_size=4, max_wait_us=50_000.0,
                               dedupe_greedy=False))
        assert not result.errors
        assert result.stats["dedup_hits"] == 0
        assert result.stats["batch_size"]["max"] == 4.0


class TestDeadlinesAndAdmission:
    def test_expired_deadline_sheds_without_touching_companions(
            self, instances):
        """A request whose deadline lapses while queued fails with
        DeadlineExceeded; its batch companion is answered normally."""
        want = _solver(instances).solve(instances[1])
        requests = [SolveRequest(instance=instances[0], timeout=1e-9),
                    SolveRequest(instance=instances[1])]
        result = drive_requests(_engine(instances), requests,
                                config=ServeConfig(max_wait_us=20_000.0))
        doomed, live = result.outcomes
        assert isinstance(doomed, DeadlineExceeded)
        assert _identical(want, live)
        assert result.stats["shed_deadline"] == 1
        assert result.stats["responses"] == 1

    def test_overload_rejects_fast_and_recovers(self, instances):
        """Requests beyond max_queue_depth fail with ServiceOverloaded
        *without queuing*; everything admitted still completes."""
        engine = _BlockingEngine(_solver(instances))

        async def run():
            config = ServeConfig(max_wait_us=0.0, max_queue_depth=2)
            async with SolverService(engine, config) as service:
                first = asyncio.ensure_future(service.solve(instances[0]))
                while not engine.entered.is_set():
                    await asyncio.sleep(0.001)
                queued = [asyncio.ensure_future(service.solve(instances[1]))
                          for _ in range(2)]
                await asyncio.sleep(0.01)      # both sit in the queue
                with pytest.raises(ServiceOverloaded):
                    await service.solve(instances[2])
                engine.release.set()
                answers = await asyncio.gather(first, *queued)
            return answers, service.stats()

        answers, stats = asyncio.run(run())
        assert len(answers) == 3
        assert stats["rejected_overload"] == 1
        assert stats["responses"] == 3

    def test_solve_on_stopped_service_raises(self, instances):
        async def run():
            service = SolverService(_engine(instances))
            with pytest.raises(ServiceClosed):
                await service.solve(instances[0])
            async with service:
                pass
            with pytest.raises(ServiceClosed):
                await service.solve(instances[0])

        asyncio.run(run())

    def test_stop_drains_admitted_requests(self, instances):
        """stop() answers everything already queued before shutting down."""

        async def run():
            service = await SolverService(_engine(instances)).start()
            futures = [asyncio.ensure_future(
                           service.solve(instances[i % len(instances)]))
                       for i in range(6)]
            await asyncio.sleep(0)             # let them enqueue
            await service.stop()
            return await asyncio.gather(*futures)

        answers = asyncio.run(run())
        assert len(answers) == 6
        assert all(a.routes is not None for a in answers)

    def test_bad_num_samples_fails_alone(self, instances):
        """A num_samples=0 request fails before queuing; its concurrent
        companions are answered and the service keeps serving."""
        want = [_solver(instances).solve(inst) for inst in instances]
        requests = [SolveRequest(instance=instances[0]),
                    SolveRequest(instance=instances[1], num_samples=0),
                    SolveRequest(instance=instances[2])]
        result = drive_requests(_engine(instances), requests,
                                config=ServeConfig(max_wait_us=20_000.0))
        first, bad, last = result.outcomes
        assert isinstance(bad, ValueError)
        assert _identical(want[0], first) and _identical(want[2], last)

        async def run():
            async with SolverService(_engine(instances)) as service:
                with pytest.raises(ValueError, match="num_samples"):
                    await service.solve(instances[0], num_samples=0)
                return await service.solve(instances[1])

        assert _identical(want[1], asyncio.run(run()))


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServeConfig(max_batch_size=0)

    def test_bad_wait(self):
        with pytest.raises(ValueError, match="max_wait_us"):
            ServeConfig(max_wait_us=-1.0)

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServeConfig(max_queue_depth=0)


class TestClientAndTelemetry:
    def test_run_workload_preserves_request_order(self, instances):
        async def run():
            async with SolverService(_engine(instances)) as service:
                return await run_workload(service, [
                    SolveRequest(instance=instances[2]),
                    SolveRequest(instance=instances[0]),
                    SolveRequest(instance=instances[1])])

        outcomes = asyncio.run(run())
        assert [o.instance for o in outcomes] == \
            [instances[2], instances[0], instances[1]]

    def test_drive_requests_writes_metrics_jsonl(self, instances, tmp_path):
        path = tmp_path / "serve_metrics.jsonl"
        result = drive_requests(
            _engine(instances),
            [SolveRequest(instance=instances[i % len(instances)])
             for i in range(4)],
            metrics_path=path)
        assert len(result.solutions) == 4
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"serving_stats", "metrics"}
        stats_line = next(l for l in lines if l["type"] == "serving_stats")
        assert stats_line["responses"] == 4
        assert stats_line["latency_ms"]["count"] == 4
        metrics_line = next(l for l in lines if l["type"] == "metrics")
        assert metrics_line["counters"]["serve.responses"] == 4
        assert "serve.latency_ms" in metrics_line["histograms"]

    def test_serving_metrics_mirror_into_active_tracer(
            self, instances, tmp_path):
        """A live obs tracer sees the serving counters and histograms the
        service records into its own registry."""
        with obs.tracing(tmp_path / "trace.jsonl") as tracer:
            drive_requests(_engine(instances),
                           [SolveRequest(instance=instances[0]),
                            SolveRequest(instance=instances[1])])
        metrics = tracer.metrics
        assert metrics.counters["serve.requests"] == 2
        assert metrics.counters["serve.responses"] == 2
        assert metrics.histogram_summary("serve.latency_ms")["count"] == 2
        # The engine-side spans were captured too (decode ran under obs).
        assert any(name.startswith("span.solve_many")
                   for name in metrics.timings)
