"""The online solver service: asyncio front-end + cross-request batching.

Three moving parts on one event loop:

* **front-end** — :meth:`SolverService.solve` is the request surface:
  admission control (a bounded queue; :class:`ServiceOverloaded` past
  ``max_queue_depth``), an optional per-request ``timeout`` that becomes
  a monotonic-clock deadline, and a future the caller awaits.
* **micro-batcher** — the dispatch loop pops the first waiting request,
  then coalesces companions until the batch holds ``max_batch_size``
  requests or ``max_wait_us`` elapses — whichever first.  While a batch
  is decoding, new arrivals pile up in the queue, so under load the next
  batch forms instantly from the backlog (natural batching).
* **dispatcher** — each coalesced batch becomes one
  :class:`~repro.smore.solver.SolveBatch` executed on the
  :class:`~repro.serve.engine.WarmEngine` in a single worker thread
  (``run_in_executor``), so the event loop keeps admitting while the
  engine decodes and all engine state stays single-threaded.  Requests
  whose deadline expired while queued are shed — their future fails with
  :class:`DeadlineExceeded` and they never enter the decode batch.

Batching never changes an answer: a greedy request's solution is
bit-identical to ``SMORESolver.solve`` on the same instance no matter
which companions shared its batch (pinned by ``tests/serve``).  Because
greedy decoding is deterministic, the dispatcher additionally collapses
*identical* concurrent greedy requests (same instance object) onto one
decode slot (``ServeConfig.dedupe_greedy``) — every duplicate receives
the lone decode's solution, so hot instances cost one decode per batch
however many clients ask.

Serving telemetry lands in the service's own
:class:`~repro.obs.metrics.MetricsRegistry` (queue depth, batch-size and
latency histograms, shed/rejected counters) and is mirrored through the
module-level :mod:`repro.obs` API so an active tracer captures it too;
:meth:`SolverService.stats` summarises p50/p95/p99 latency and sustained
throughput.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.errors import ReproError
from ..obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from ..obs.recorder import solution_digest
from ..smore.batch import DeadlineExpired
from .engine import WarmEngine

__all__ = ["ServeConfig", "SolverService", "RequestTrace", "ServiceError",
           "ServiceClosed", "ServiceOverloaded", "DeadlineExceeded"]


class ServiceError(ReproError):
    """Base class for solver-service request failures."""


class ServiceClosed(ServiceError):
    """The service is not running (never started, or already stopped)."""


class ServiceOverloaded(ServiceError):
    """The request queue is full; the request was rejected unqueued."""


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before the engine could decode it."""


@dataclass(frozen=True)
class ServeConfig:
    """Micro-batching policy knobs.

    ``max_batch_size`` caps how many requests one engine batch may hold;
    ``max_wait_us`` bounds how long the batcher holds the *first* request
    of a forming batch waiting for companions (0 disables coalescing
    waits: each batch is whatever the backlog already holds); and
    ``max_queue_depth`` bounds the admission queue — requests beyond it
    fail fast with :class:`ServiceOverloaded` instead of queuing into a
    deadline they cannot meet.
    """

    max_batch_size: int = 8
    max_wait_us: float = 2_000.0
    max_queue_depth: int = 256
    #: Record a :class:`RequestTrace` per request (stage attribution:
    #: admission wait, coalesce wait, dedup outcome, batch width,
    #: encode/decode/planner time, cache hits).  Cheap enough to leave on
    #: (pinned <2% in ``BENCH_PR9``); ``False`` restores the bare path.
    request_traces: bool = True
    #: How many completed traces :attr:`SolverService.recent_traces`
    #: retains for postmortems (a bounded deque; 0 disables retention
    #: without disabling tracing).
    trace_history: int = 256
    #: Coalesce *identical* concurrent greedy requests (same instance
    #: object, single-rollout greedy decode) onto one decode slot.
    #: Greedy decoding is deterministic, so every duplicate receives the
    #: bit-identical solution the lone decode produced — the serving
    #: analogue of in-flight request collapsing.  Sampled requests never
    #: dedupe (each owns its seed).
    dedupe_greedy: bool = True

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_us < 0:
            raise ValueError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")


@dataclass
class RequestTrace:
    """Per-request stage attribution through the serving pipeline.

    One trace follows one request from admission to response and records
    where its latency went: ``admission_wait_ms`` is time spent in the
    admission queue (enqueue to dispatcher pop), ``coalesce_wait_ms`` the
    time the micro-batcher held it while the batch formed, ``execute_ms``
    the engine wall time of the batch it rode (shared, not per-request).
    ``dedup`` is ``"unique"`` (no dedup key), ``"primary"`` (owned the
    decode slot) or ``"duplicate"`` (piggybacked on a primary's ticket).
    ``encode_ms``/``decode_ms``/``planner_calls``/``cache_hits``/
    ``cache_misses`` come from the solution's own perf counters —
    duplicates report their primary's numbers, since they share its
    solution.  ``env_cache`` says whether this request's instance found a
    resident env (``"hit"``/``"miss"``; ``None`` when untraceable).
    """

    request_id: int
    greedy: bool = True
    num_samples: int = 1
    seed: int | None = None
    queue_depth_at_admit: int = 0
    admission_wait_ms: float = 0.0
    coalesce_wait_ms: float = 0.0
    dedup: str = "unique"
    batch_requests: int = 0
    batch_decoded: int = 0
    execute_ms: float = 0.0
    encode_ms: float = 0.0
    decode_ms: float = 0.0
    planner_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    env_cache: str | None = None
    outcome: str = "pending"
    latency_ms: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready view (the ``serve.request`` trace-event payload)."""
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class _PendingRequest:
    """One enqueued request awaiting dispatch."""

    instance: object
    greedy: bool
    seed: int | None
    num_samples: int
    deadline: float | None
    enqueued_at: float
    future: asyncio.Future
    request_id: int = 0
    popped_at: float = 0.0
    trace: RequestTrace | None = None


class SolverService:
    """Asyncio solve service over one :class:`WarmEngine`.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly::

        engine = WarmEngine(solver)
        async with SolverService(engine) as service:
            solution = await service.solve(instance)

    :meth:`solve` may be awaited from any number of concurrent tasks on
    the service's event loop; the engine itself runs on one dedicated
    worker thread, one batch at a time.
    """

    def __init__(self, engine: WarmEngine, config: ServeConfig | None = None,
                 slo=None, recorder=None):
        self.engine = engine
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        #: Optional :class:`~repro.obs.slo.SloTracker` fed every request
        #: outcome (ok / shed_deadline / overload / error) + latency.
        self.slo = slo
        #: Optional :class:`~repro.obs.recorder.FlightRecorder` journaling
        #: every admitted request; closed (footer written) by stop().
        self.recorder = recorder
        #: Bounded history of completed :class:`RequestTrace` objects.
        self.recent_traces: deque = deque(
            maxlen=max(self.config.trace_history, 0))
        self._queue: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._running = False
        self._inflight = 0
        self._next_request_id = 0
        self._started_at: float | None = None
        self._first_request_at: float | None = None
        self._last_response_at: float | None = None

    # -- lifecycle ------------------------------------------------------ #
    async def start(self) -> "SolverService":
        """Bind to the running loop and start the dispatch task."""
        if self._running:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine")
        self._dispatch_task = self._loop.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch")
        self._running = True
        self._started_at = time.monotonic()
        obs.event("serve.start", max_batch_size=self.config.max_batch_size,
                  max_wait_us=self.config.max_wait_us)
        return self

    async def stop(self) -> None:
        """Stop accepting requests, drain what is queued, then shut down.

        Every request admitted before ``stop`` was called still gets its
        answer (or its deadline error); only new :meth:`solve` calls fail
        with :class:`ServiceClosed`.
        """
        if not self._running:
            return
        self._running = False
        while self._inflight > 0:
            await asyncio.sleep(0.001)
        self._dispatch_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._dispatch_task
        self._executor.shutdown(wait=True)
        if self.recorder is not None:
            self.recorder.close()
        obs.event("serve.stop",
                  responses=int(self.metrics.counters.get(
                      "serve.responses", 0)))

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._running

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    # -- front-end ------------------------------------------------------ #
    async def solve(self, instance, greedy: bool = True,
                    seed: int | None = None, num_samples: int = 1,
                    timeout: float | None = None,
                    return_trace: bool = False):
        """Submit one solve request; await its solution.

        ``greedy=True`` requests the deterministic argmax decode (the
        answer is bit-identical to ``SMORESolver.solve(instance)``);
        ``greedy=False`` samples, with ``seed`` making the draw
        reproducible (the decode matches
        ``solve(instance, greedy=False, rng=default_rng(seed),
        num_samples=...)``).  ``timeout`` (seconds) sets a deadline:
        requests still undecoded when it passes fail with
        :class:`DeadlineExceeded`; requests that cannot even be queued
        fail immediately with :class:`ServiceOverloaded`.

        ``return_trace=True`` returns ``(solution, RequestTrace)``
        instead of the bare solution — the per-request stage attribution
        (requires ``ServeConfig.request_traces``; the trace is ``None``
        when tracing is off).

        A request with ``num_samples < 1`` fails with ``ValueError``
        before it is queued, so it never reaches a shared batch.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if not self._running:
            raise ServiceClosed("service is not running; use 'async with' "
                                "or call start() first")
        if self._queue.qsize() >= self.config.max_queue_depth:
            self._count("serve.rejected_overload")
            if self.slo is not None:
                self.slo.record("overload")
            raise ServiceOverloaded(
                f"queue depth {self._queue.qsize()} at configured maximum "
                f"{self.config.max_queue_depth}")
        now = time.monotonic()
        if self._first_request_at is None:
            self._first_request_at = now
        request_id = self._next_request_id
        self._next_request_id += 1
        trace = None
        if self.config.request_traces:
            trace = RequestTrace(
                request_id=request_id, greedy=bool(greedy),
                num_samples=num_samples, seed=seed,
                queue_depth_at_admit=self._queue.qsize())
        pending = _PendingRequest(
            instance=instance, greedy=bool(greedy), seed=seed,
            num_samples=num_samples,
            deadline=None if timeout is None else now + timeout,
            enqueued_at=now, future=self._loop.create_future(),
            request_id=request_id, trace=trace)
        if self.recorder is not None:
            self.recorder.record_request(
                request_id, instance, greedy=bool(greedy), seed=seed,
                num_samples=num_samples, timeout=timeout)
        self._inflight += 1
        self._queue.put_nowait(pending)
        self._count("serve.requests")
        self._gauge("serve.queue_depth", float(self._queue.qsize()))
        solution = await pending.future
        if return_trace:
            return solution, trace
        return solution

    # -- micro-batcher + dispatcher ------------------------------------- #
    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            first.popped_at = time.monotonic()
            batch = await self._coalesce([first])
            await self._dispatch(batch)

    async def _coalesce(self, batch: list) -> list:
        """Grow ``batch`` until full or ``max_wait_us`` elapses."""
        wait_deadline = time.monotonic() + self.config.max_wait_us / 1e6
        while len(batch) < self.config.max_batch_size:
            try:
                pending = self._queue.get_nowait()
                pending.popped_at = time.monotonic()
                batch.append(pending)
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = wait_deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                pending = await asyncio.wait_for(
                    self._queue.get(), remaining)
                pending.popped_at = time.monotonic()
                batch.append(pending)
            except asyncio.TimeoutError:
                break
        return batch

    def _fail(self, pending: _PendingRequest, exc: Exception) -> None:
        if not pending.future.done():
            pending.future.set_exception(exc)
        self._inflight -= 1

    def _settle(self, pending: _PendingRequest, outcome: str,
                now: float, latency_ms: float | None = None,
                digest: str | None = None) -> None:
        """Telemetry fan-out for one request reaching a terminal state.

        Completes the trace (history + ``serve.request`` trace event),
        feeds the SLO tracker, and journals the outcome.  ``cancelled``
        (the caller abandoned its future) is journaled but never charged
        against the error budget — the service did nothing wrong.
        """
        trace = pending.trace
        if trace is not None:
            trace.outcome = outcome
            if latency_ms is not None:
                trace.latency_ms = latency_ms
            self.recent_traces.append(trace)
            if obs.get_tracer().enabled:
                obs.event("serve.request", **trace.to_dict())
        if self.slo is not None and outcome != "cancelled":
            self.slo.record(outcome, latency_ms=latency_ms, now=now)
        if self.recorder is not None:
            self.recorder.record_outcome(pending.request_id, outcome,
                                         digest=digest,
                                         latency_ms=latency_ms)

    async def _dispatch(self, batch: list) -> None:
        dispatch_start = time.monotonic()
        tracing = self.config.request_traces
        if tracing:
            for pending in batch:
                trace = pending.trace
                if trace is None:
                    continue
                trace.admission_wait_ms = max(
                    pending.popped_at - pending.enqueued_at, 0.0) * 1e3
                trace.coalesce_wait_ms = max(
                    dispatch_start - pending.popped_at, 0.0) * 1e3
                self._observe("serve.admission_wait_ms",
                              trace.admission_wait_ms)
                self._observe("serve.coalesce_wait_ms",
                              trace.coalesce_wait_ms)
        solve_batch = self.engine.open_batch(max_size=len(batch))
        live = []
        decoded = 0
        primaries: dict[int, int] = {}   # id(instance) -> shared ticket
        for pending in batch:
            if pending.future.done():        # caller gave up while queued
                self._settle(pending, "cancelled", dispatch_start)
                self._inflight -= 1
                continue
            dedupe_key = (id(pending.instance)
                          if (self.config.dedupe_greedy and pending.greedy
                              and pending.num_samples == 1) else None)
            if dedupe_key is not None and dedupe_key in primaries:
                # Identical deterministic decode already admitted this
                # batch: piggyback on its ticket instead of burning a
                # decode slot.  The duplicate still honours its own
                # deadline, mirroring admit()'s shed-at-admission check.
                if pending.deadline is not None \
                        and time.monotonic() >= pending.deadline:
                    self._count("serve.shed_deadline")
                    self._settle(pending, "shed_deadline", dispatch_start)
                    self._fail(pending, DeadlineExceeded(
                        "deadline passed while queued"))
                    continue
                self._count("serve.dedup_hits")
                if pending.trace is not None:
                    pending.trace.dedup = "duplicate"
                live.append((pending, primaries[dedupe_key]))
                continue
            rng = (np.random.default_rng(pending.seed)
                   if pending.seed is not None else None)
            try:
                ticket = solve_batch.admit(
                    pending.instance, greedy=pending.greedy, rng=rng,
                    num_samples=pending.num_samples,
                    deadline=pending.deadline)
            except DeadlineExpired:
                self._count("serve.shed_deadline")
                self._settle(pending, "shed_deadline", dispatch_start)
                self._fail(pending, DeadlineExceeded(
                    "deadline passed while queued"))
                continue
            if dedupe_key is not None:
                primaries[dedupe_key] = ticket
                if pending.trace is not None:
                    pending.trace.dedup = "primary"
            decoded += 1
            live.append((pending, ticket))
        if not live:
            return

        # Histogram of *decoded* batch width — dedup duplicates share a
        # slot, so this is the size the engine actually saw.
        self._observe("serve.batch_size", float(decoded))
        try:
            if tracing:
                results, report = await self._loop.run_in_executor(
                    self._executor, self.engine.execute_traced, solve_batch)
            else:
                results = await self._loop.run_in_executor(
                    self._executor, self.engine.execute, solve_batch)
                report = None
        except Exception as exc:  # engine failure fails the whole batch
            self._count("serve.errors")
            now = time.monotonic()
            for pending, _ in live:
                self._settle(pending, "error", now,
                             latency_ms=(now - pending.enqueued_at) * 1e3)
                self._fail(pending, exc)
            return
        if report is not None:
            self._observe("serve.execute_ms", report.execute_s * 1e3)

        now = time.monotonic()
        for pending, ticket in live:
            solution = results[ticket]
            trace = pending.trace
            if trace is not None:
                trace.batch_requests = len(live)
                trace.batch_decoded = decoded
                if report is not None:
                    trace.execute_ms = report.execute_s * 1e3
                    trace.env_cache = report.env_events.get(
                        id(pending.instance))
                if solution is not None:
                    perf = solution.perf
                    trace.encode_ms = perf.init_time * 1e3
                    trace.decode_ms = perf.selection_time * 1e3
                    trace.planner_calls = perf.planner_calls
                    trace.cache_hits = perf.cache_hits
                    trace.cache_misses = perf.cache_misses
            if pending.future.done():
                self._settle(pending, "cancelled", now)
                self._inflight -= 1
                continue
            if solution is None:             # shed at execute time
                self._count("serve.shed_deadline")
                self._settle(pending, "shed_deadline", now)
                self._fail(pending, DeadlineExceeded(
                    "deadline passed before the batch executed"))
                continue
            latency_ms = (now - pending.enqueued_at) * 1e3
            self._observe("serve.latency_ms", latency_ms)
            self._count("serve.responses")
            self._last_response_at = now
            digest = (solution_digest(solution)
                      if self.recorder is not None else None)
            self._settle(pending, "ok", now, latency_ms=latency_ms,
                         digest=digest)
            pending.future.set_result(solution)
            self._inflight -= 1

    # -- telemetry ------------------------------------------------------ #
    def _count(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)
        obs.count(name, value)

    def _gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)
        obs.gauge(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        obs.observe(name, value)

    def stats(self) -> dict:
        """Serving summary: counters, percentiles, sustained throughput.

        ``sustained_req_per_s`` is responses over the first-request to
        last-response window — the rate the service actually held, not a
        burst figure.
        """
        counters = self.metrics.counters
        responses = int(counters.get("serve.responses", 0))
        window = None
        if self._first_request_at is not None \
                and self._last_response_at is not None:
            window = self._last_response_at - self._first_request_at
        sustained = (responses / window if window and window > 0 else 0.0)
        stats = {
            "requests": int(counters.get("serve.requests", 0)),
            "responses": responses,
            "shed_deadline": int(counters.get("serve.shed_deadline", 0)),
            "dedup_hits": int(counters.get("serve.dedup_hits", 0)),
            "rejected_overload": int(
                counters.get("serve.rejected_overload", 0)),
            "errors": int(counters.get("serve.errors", 0)),
            "queue_depth": self.queue_depth,
            "queue_depth_peak": int(
                self.metrics.gauges.get("serve.queue_depth", 0)),
            "latency_ms": self.metrics.histogram_summary("serve.latency_ms"),
            "batch_size": self.metrics.histogram_summary("serve.batch_size"),
            "sustained_req_per_s": sustained,
            "engine": self.engine.stats(),
        }
        if self.config.request_traces:
            stats["stages"] = {
                "admission_wait_ms": self.metrics.histogram_summary(
                    "serve.admission_wait_ms"),
                "coalesce_wait_ms": self.metrics.histogram_summary(
                    "serve.coalesce_wait_ms"),
                "execute_ms": self.metrics.histogram_summary(
                    "serve.execute_ms"),
                "traces_retained": len(self.recent_traces),
            }
        if self.slo is not None:
            stats["slo"] = self.slo.report()
        return stats

    def write_metrics_jsonl(self, path, append: bool = False) -> None:
        """Write the serving summary + full registry snapshot as JSONL.

        Every record is stamped with the metrics ``schema_version`` and a
        monotonic-clock timestamp, so consumers (the live dashboard, diff
        tooling) can order records and reject incompatible writers.
        ``append=True`` adds records to an existing file — the mode the
        dashboard tails.
        """
        stamp = {"schema_version": METRICS_SCHEMA_VERSION,
                 "ts_monotonic": time.monotonic()}
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"type": "serving_stats", **stamp, **self.stats()},
                sort_keys=True) + "\n")
            fh.write(json.dumps(
                {"type": "metrics", **stamp, **self.metrics.snapshot()},
                sort_keys=True) + "\n")
