"""Counter/gauge/timing registry behind the tracing layer.

A :class:`MetricsRegistry` is the numeric half of ``repro.obs``: named
**counters** (monotone sums), **gauges** (merged by maximum), **timings**
(wall-clock sums plus span call counts) and **histograms**
(bounded-reservoir value distributions with quantile queries).  The split
encodes the determinism contract the solver relies on:

* ``counters`` must be *schedule-invariant* — a traced run records the
  same counter values whether rollouts execute serially, batched, or
  across a fork pool, so regression tests can compare them bit-for-bit.
* ``gauges`` merge by ``max`` (commutative and associative), so they are
  also schedule-invariant for quantities like "largest cache observed".
* ``timings`` hold wall-clock measurements and per-schedule span counts;
  they are explicitly *excluded* from the bit-identity contract.
* ``histograms`` record observation streams (latencies, batch sizes) in
  a bounded *truncating* reservoir — the first ``capacity`` values are
  kept verbatim plus exact count/total/min/max.  Append-only storage is
  what makes :meth:`diff` as simple as a counter subtraction (ship the
  values observed since the baseline) and :meth:`merge_snapshot`
  deterministic when children are absorbed in item order; quantiles are
  exact until the reservoir fills and first-``capacity``-sample
  estimates after.

The registry subsumes :class:`~repro.core.perf.PerfCounters`: every solve's
final counters can be absorbed via :meth:`record_perf`, and a registry
carrying the ``perf.*`` names can be projected back with :meth:`to_perf` —
round-tripping is covered by tests.  Snapshots (:meth:`snapshot` /
:meth:`diff` / :meth:`merge_snapshot`) are plain picklable dicts, which is
what lets :mod:`repro.parallel` ship worker-side telemetry back to the
parent process with each result.
"""

from __future__ import annotations

import math
import threading

from ..core.perf import PerfCounters

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_HISTOGRAM_CAPACITY",
           "METRICS_SCHEMA_VERSION",
           "PERF_COUNTER_NAMES", "PERF_TIMING_NAMES", "PERF_GAUGE_NAMES"]

#: Reservoir size for histograms created through :meth:`MetricsRegistry.observe`.
DEFAULT_HISTOGRAM_CAPACITY = 4096

#: Version stamped into every metrics JSONL record (serving stats files,
#: trace-file headers).  Bump when a field is renamed/removed so offline
#: consumers (the dashboard, scrapers) can reject files they misread.
METRICS_SCHEMA_VERSION = 1


class Histogram:
    """Bounded-reservoir value distribution with quantile queries.

    Keeps exact ``count`` / ``total`` / ``min`` / ``max`` forever and the
    first ``capacity`` observed values verbatim.  Quantiles interpolate
    over the stored values, so they are exact while ``count <=
    capacity`` and first-sample estimates after — the serving smoke and
    bench workloads stay well inside the default reservoir.  Storage is
    append-only, which gives the same delta/merge algebra as counters:
    a delta is "the values appended since the baseline" and merging a
    delta is appending, so fork-pool children absorbed in item order
    reproduce the serial registry exactly while everything fits.

    When merged state *overflows* the reservoir, the histogram switches
    to a **weighted quantile sketch**: the sorted union is compacted to
    ``capacity`` equal-mass representatives (evenly spaced weighted
    order statistics).  Each compaction adds at most ``1/capacity`` of
    the represented mass in rank error, so quantiles stay bounded-error
    under arbitrarily many merges in any order — unlike the historical
    keep-the-first-values truncation, whose error was unbounded once the
    tail diverged from the head.  ``weights`` is ``None`` for a pure
    observe-side reservoir (the exact regime) and materialises only when
    a merge leaves the append-only world.
    """

    __slots__ = ("capacity", "count", "total", "min", "max", "values",
                 "weights", "compactions")

    def __init__(self, capacity: int = DEFAULT_HISTOGRAM_CAPACITY):
        if capacity < 1:
            raise ValueError(f"histogram capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.values: list[float] = []
        #: Per-value mass; ``None`` while the reservoir is exact.
        self.weights: list[float] | None = None
        #: How many times the reservoir was rewritten (sorted/compacted).
        #: The append-only delta algebra is valid only between states with
        #: the same compaction count.
        self.compactions = 0

    # ------------------------------------------------------------------ #
    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.values) < self.capacity:
            self.values.append(value)
            if self.weights is not None:
                self.weights.append(1.0)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the stored reservoir.

        Raises ``ValueError`` on an empty histogram or ``q`` outside
        ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            raise ValueError("quantile of an empty histogram")
        if self.weights is None:
            ordered = sorted(self.values)
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        # Weighted: interpolate between the mass midpoints of the sorted
        # representatives (reduces to the unweighted rule when all
        # weights are equal).
        pairs = sorted(zip(self.values, self.weights))
        target = q * sum(w for _, w in pairs)
        cum = 0.0
        prev_mid = prev_val = None
        for value, weight in pairs:
            mid = cum + weight / 2.0
            if target <= mid:
                if prev_mid is None or mid <= prev_mid:
                    return value
                frac = (target - prev_mid) / (mid - prev_mid)
                return prev_val + frac * (value - prev_val)
            prev_mid, prev_val = mid, value
            cum += weight
        return pairs[-1][0]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """count/mean/min/max plus the p50/p95/p99 the serving layer reports."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count, "mean": self.mean,
            "min": self.min, "max": self.max,
            "p50": self.quantile(0.50), "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """Picklable full state (the snapshot currency)."""
        state = {"capacity": self.capacity, "count": self.count,
                 "total": self.total, "min": self.min, "max": self.max,
                 "values": list(self.values)}
        if self.weights is not None:
            state["weights"] = list(self.weights)
        if self.compactions:
            state["compactions"] = self.compactions
        return state

    def delta_since(self, baseline: dict | None) -> dict | None:
        """Observations accumulated since ``baseline`` (a prior state).

        ``None`` baseline means the histogram is new — the whole state is
        the delta.  Returns ``None`` when nothing was observed since.
        The tail-slice delta is exact only while the reservoir stayed
        append-only since the baseline; across a compaction the delta
        degrades to count/total/min/max with no stored values (quantile
        mass stays at the last compaction — still bounded error).
        """
        if baseline is None:
            return self.state() if self.count else None
        new_count = self.count - baseline["count"]
        if not new_count:
            return None
        delta = {"capacity": self.capacity, "count": new_count,
                 "total": self.total - baseline["total"],
                 "min": self.min, "max": self.max}
        if (self.weights is None and "weights" not in baseline
                and self.compactions == baseline.get("compactions", 0)):
            delta["values"] = list(self.values[len(baseline["values"]):])
        else:
            delta["values"] = []
        return delta

    @staticmethod
    def _compact(pairs: list[tuple[float, float]],
                 capacity: int) -> tuple[list[float], list[float]]:
        """Evenly spaced weighted order statistics of ``pairs`` (sorted
        by value): ``capacity`` equal-mass representatives."""
        total = sum(weight for _, weight in pairs)
        step = total / capacity
        values, cum, j = [], 0.0, 0
        for i in range(capacity):
            target = (i + 0.5) * step
            while j < len(pairs) - 1 and cum + pairs[j][1] < target:
                cum += pairs[j][1]
                j += 1
            values.append(pairs[j][0])
        return values, [step] * capacity

    def merge_state(self, payload: dict) -> None:
        """Merge a state/delta: counts and totals sum, min/max widen.

        While both sides are exact reservoirs and the union fits, values
        simply extend (bit-exact, order preserved — the fork-pool
        item-order contract).  Past capacity the union is compacted to a
        weighted sketch (see the class docstring)."""
        self.count += payload["count"]
        self.total += payload["total"]
        if payload["min"] < self.min:
            self.min = payload["min"]
        if payload["max"] > self.max:
            self.max = payload["max"]
        their_values = payload["values"]
        their_weights = payload.get("weights")
        if (self.weights is None and their_weights is None
                and len(self.values) + len(their_values) <= self.capacity):
            self.values.extend(their_values)
            return
        if not their_values:
            return
        mine_w = (self.weights if self.weights is not None
                  else [1.0] * len(self.values))
        theirs_w = (list(their_weights) if their_weights is not None
                    else [1.0] * len(their_values))
        pairs = sorted(zip(self.values + list(their_values),
                           mine_w + theirs_w))
        if len(pairs) > self.capacity:
            self.values, self.weights = self._compact(pairs, self.capacity)
        else:
            self.values = [value for value, _ in pairs]
            self.weights = [weight for _, weight in pairs]
        self.compactions += 1

    @classmethod
    def from_state(cls, payload: dict) -> "Histogram":
        hist = cls(payload.get("capacity", DEFAULT_HISTOGRAM_CAPACITY))
        hist.merge_state(payload)
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, mean={self.mean:.4g}, "
                f"stored={len(self.values)}/{self.capacity})")

#: PerfCounters fields that are schedule-invariant -> ``counters``.
PERF_COUNTER_NAMES = ("planner_calls", "init_planner_calls", "backend_calls",
                      "cache_hits", "cache_misses", "rollouts")
#: PerfCounters wall-clock fields -> ``timings``.
PERF_TIMING_NAMES = ("init_time", "selection_time")
#: PerfCounters fields merged by maximum -> ``gauges``.
PERF_GAUGE_NAMES = ("cache_size",)


class MetricsRegistry:
    """Named counters, gauges, timings and histograms with deterministic
    merging.

    Mutation is **thread-safe**: one internal re-entrant lock serialises
    every write (``inc``/``gauge``/``add_time``/``observe``/
    ``merge_snapshot``) and every composite read (``snapshot``/``diff``/
    summaries), so the serving layer's event-loop thread and engine
    worker thread can share one registry without losing increments.
    The lock is re-entrant because ``merge_snapshot`` and
    ``record_perf`` compose the primitive writers.
    """

    __slots__ = ("counters", "gauges", "timings", "histograms", "_lock")

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timings: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (max-merge)."""
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock ``seconds`` under timing ``name``."""
        with self._lock:
            self.timings[name] = self.timings.get(name, 0.0) + seconds

    def observe(self, name: str, value: float,
                capacity: int = DEFAULT_HISTOGRAM_CAPACITY) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(capacity)
            hist.observe(value)

    def quantile(self, name: str, q: float) -> float:
        """Quantile ``q`` of histogram ``name``; KeyError when absent."""
        with self._lock:
            return self.histograms[name].quantile(q)

    def histogram_summary(self, name: str) -> dict:
        """count/mean/min/max/p50/p95/p99 of histogram ``name`` (or
        ``{"count": 0}`` when it was never observed)."""
        with self._lock:
            hist = self.histograms.get(name)
            return hist.summary() if hist is not None else {"count": 0}

    # ------------------------------------------------------------------ #
    def record_perf(self, perf: PerfCounters, prefix: str = "perf.") -> None:
        """Absorb a :class:`PerfCounters` under ``prefix``-qualified names."""
        for field in PERF_COUNTER_NAMES:
            value = getattr(perf, field)
            if value:
                self.inc(prefix + field, value)
        for field in PERF_TIMING_NAMES:
            value = getattr(perf, field)
            if value:
                self.add_time(prefix + field, value)
        for field in PERF_GAUGE_NAMES:
            value = getattr(perf, field)
            if value:
                self.gauge(prefix + field, value)

    def to_perf(self, prefix: str = "perf.") -> PerfCounters:
        """Project the ``prefix``-qualified names back to a PerfCounters."""
        payload: dict[str, float] = {}
        for field in PERF_COUNTER_NAMES:
            payload[field] = self.counters.get(prefix + field, 0)
        for field in PERF_TIMING_NAMES:
            payload[field] = self.timings.get(prefix + field, 0.0)
        for field in PERF_GAUGE_NAMES:
            payload[field] = self.gauges.get(prefix + field, 0)
        return PerfCounters.from_dict(payload)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Picklable copy of the full registry state."""
        with self._lock:
            state = {"counters": dict(self.counters),
                     "gauges": dict(self.gauges),
                     "timings": dict(self.timings)}
            if self.histograms:
                state["histograms"] = {
                    name: hist.state()
                    for name, hist in self.histograms.items()}
            return state

    def diff(self, baseline: dict) -> dict:
        """The delta accumulated since ``baseline`` (a prior snapshot).

        Counters and timings subtract (zero deltas are dropped); gauges
        keep their current value — max-merging the delta into the baseline
        then reproduces this registry exactly.
        """
        with self._lock:
            counters = {}
            for name, value in self.counters.items():
                delta = value - baseline["counters"].get(name, 0)
                if delta:
                    counters[name] = delta
            timings = {}
            for name, value in self.timings.items():
                delta = value - baseline["timings"].get(name, 0.0)
                if delta:
                    timings[name] = delta
            delta = {"counters": counters, "gauges": dict(self.gauges),
                     "timings": timings}
            baseline_hists = baseline.get("histograms", {})
            histograms = {}
            for name, hist in self.histograms.items():
                hist_delta = hist.delta_since(baseline_hists.get(name))
                if hist_delta is not None:
                    histograms[name] = hist_delta
            if histograms:
                delta["histograms"] = histograms
            return delta

    def merge_snapshot(self, payload: dict) -> None:
        """Merge a snapshot/delta: counters and timings sum, gauges max,
        histogram deltas append."""
        with self._lock:
            for name, value in payload.get("counters", {}).items():
                self.inc(name, value)
            for name, value in payload.get("gauges", {}).items():
                self.gauge(name, value)
            for name, value in payload.get("timings", {}).items():
                self.add_time(name, value)
            for name, state in payload.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    self.histograms[name] = Histogram.from_state(state)
                else:
                    hist.merge_state(state)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        self.merge_snapshot(other.snapshot())
        return self

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.timings.clear()
            self.histograms.clear()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return self.snapshot()

    def span_summary(self) -> list[tuple[str, int, float]]:
        """(span path, call count, total seconds) rows from the timings.

        Spans record ``span.<path>.time`` / ``span.<path>.count`` pairs;
        rows come back sorted by path for stable rendering.
        """
        rows = []
        for name, total in sorted(self.timings.items()):
            if not (name.startswith("span.") and name.endswith(".time")):
                continue
            path = name[len("span."):-len(".time")]
            count = int(self.timings.get(f"span.{path}.count", 0))
            rows.append((path, count, total))
        return rows

    def profile_summary(self) -> list[tuple[str, int, float, float]]:
        """(op name, calls, total seconds, total FLOPs) rows.

        An :class:`~repro.obs.profile.OpProfiler` publishes
        ``profile.<op>.time`` / ``.calls`` / ``.flops`` into ``timings``
        (wall-clock territory) plus a ``profile.peak_live_bytes`` gauge;
        this reads the per-op rows back, sorted by name.
        """
        rows = []
        for name, total in sorted(self.timings.items()):
            if not (name.startswith("profile.") and name.endswith(".time")):
                continue
            op = name[len("profile."):-len(".time")]
            calls = int(self.timings.get(f"profile.{op}.calls", 0))
            flops = self.timings.get(f"profile.{op}.flops", 0.0)
            rows.append((op, calls, total, flops))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, timings={len(self.timings)}, "
                f"histograms={len(self.histograms)})")
