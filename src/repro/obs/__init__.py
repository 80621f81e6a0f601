"""``repro.obs`` — run telemetry: timer spans, metrics, JSONL traces.

The observability layer the solver, trainer, cache and experiment runner
report into.  Three pieces:

* :class:`MetricsRegistry` — named counters (schedule-invariant sums),
  gauges (max-merged) and timings (wall clock); subsumes and extends
  :class:`~repro.core.perf.PerfCounters`.
* :class:`Tracer` / :func:`tracing` — hierarchical timer spans
  (``with obs.span("init"): ...``), point events, and a JSONL sink.
  The default tracer is a no-op; instrumentation costs nothing when off.
* :func:`capture_child` / :func:`absorb` — fork-pool propagation: worker
  telemetry is snapshotted per item, shipped back with the result, and
  merged deterministically in item order by
  :class:`repro.parallel.PersistentPool`.
* :class:`OpProfiler` / :func:`profiling` (:mod:`repro.obs.profile`) —
  op-level autograd profiling below the span layer: per-op call counts,
  wall time, estimated FLOPs/bytes, live-tensor peak memory, and
  collapsed-stack (flamegraph) export.  ``python -m repro.obs.profile``
  profiles a smoke workload from the command line.
* :class:`SloTracker` (:mod:`repro.obs.slo`) — rolling-window SLO
  accounting: time-bucketed p50/p95/p99, error budgets, and
  threshold-crossing ``slo.alert`` events into the trace stream.
* :class:`FlightRecorder` / :func:`replay_journal`
  (:mod:`repro.obs.recorder`) — deterministic request journaling with
  bit-identical replay (``python -m repro.serve replay journal.jsonl``).
* :func:`render_openmetrics` (:mod:`repro.obs.openmetrics`) — the
  registry as a Prometheus-scrapable text exposition; the companion
  live terminal dashboard is ``python -m repro.obs.dashboard``.

Typical use::

    from repro import obs

    with obs.tracing("run.jsonl") as tracer:
        solution = solver.solve(instance, num_samples=8, workers=4)
    print(tracer.metrics.counters["solve.planner_calls"])

See ``docs/architecture.md`` ("Observability") for the span tree, metric
names and the trace-file schema.
"""

from . import profile
from .history import TrainingHistory
from .metrics import (
    DEFAULT_HISTOGRAM_CAPACITY,
    METRICS_SCHEMA_VERSION,
    PERF_COUNTER_NAMES,
    PERF_GAUGE_NAMES,
    PERF_TIMING_NAMES,
    Histogram,
    MetricsRegistry,
)
from .openmetrics import render_openmetrics, write_openmetrics
from .profile import OpProfiler, OpStat, profiling, render_profile
from .recorder import (
    FlightRecorder,
    Journal,
    JournalError,
    ReplayReport,
    read_journal,
    replay_journal,
    solution_digest,
)
from .slo import SloConfig, SloTracker, current_slo_tracker
from .trace import (
    NULL_TRACER,
    JsonlSink,
    ListSink,
    NullSink,
    NullTracer,
    Tracer,
    absorb,
    add_time,
    capture_child,
    count,
    current_metrics,
    event,
    gauge,
    get_tracer,
    observe,
    record_perf,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "MetricsRegistry", "Histogram", "DEFAULT_HISTOGRAM_CAPACITY",
    "METRICS_SCHEMA_VERSION",
    "TrainingHistory",
    "SloConfig", "SloTracker", "current_slo_tracker",
    "FlightRecorder", "Journal", "JournalError", "ReplayReport",
    "read_journal", "replay_journal", "solution_digest",
    "render_openmetrics", "write_openmetrics",
    "OpProfiler", "OpStat", "profiling", "render_profile", "profile",
    "PERF_COUNTER_NAMES", "PERF_TIMING_NAMES", "PERF_GAUGE_NAMES",
    "Tracer", "NullTracer", "NULL_TRACER",
    "JsonlSink", "ListSink", "NullSink",
    "tracing", "get_tracer", "set_tracer", "current_metrics",
    "span", "count", "gauge", "add_time", "observe", "event", "record_perf",
    "capture_child", "absorb",
]
