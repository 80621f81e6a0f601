"""Performance counters shared by the solver, cache, and reporting layers.

One :class:`PerfCounters` instance travels with each solve: the selection
environment accounts planner calls and per-phase wall time (candidate
initialisation vs. iterative selection), a :class:`~repro.tsptw.cache.CachedPlanner`
contributes hit/miss/size statistics, and the experiment reporting layer
aggregates and prints them so regressions in the hot path are visible in
every benchmark run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Counters for one solve (or one aggregation of solves).

    ``planner_calls`` counts every TSPTW planning call issued;
    ``init_planner_calls`` is the subset spent on candidate-table
    initialisation (Algorithm 1 step 1).  With snapshot reuse the init
    portion is paid once per (instance, planner) no matter how many
    rollouts run.

    ``backend_calls`` counts true backend invocations, which can be far
    fewer than ``planner_calls``: a batched ``plan_many`` serves many
    logical plans with one backend call, and a cache hit serves one with
    none.  The distinction is exactly what the batched path optimises, so
    both are reported.
    """

    planner_calls: int = 0
    init_planner_calls: int = 0
    backend_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    init_time: float = 0.0
    selection_time: float = 0.0
    rollouts: int = 0

    # ------------------------------------------------------------------ #
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from memory (0 when unused)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def total_time(self) -> float:
        return self.init_time + self.selection_time

    # ------------------------------------------------------------------ #
    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into self (cache size keeps the maximum)."""
        self.planner_calls += other.planner_calls
        self.init_planner_calls += other.init_planner_calls
        self.backend_calls += other.backend_calls
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_size = max(self.cache_size, other.cache_size)
        self.init_time += other.init_time
        self.selection_time += other.selection_time
        self.rollouts += other.rollouts
        return self

    def diff(self, baseline: "PerfCounters") -> "PerfCounters":
        """The delta accumulated since ``baseline`` (an earlier snapshot).

        Additive fields subtract; ``cache_size`` keeps the current value
        (it merges by maximum, so merging the delta into the baseline
        reproduces this snapshot).  Used to scope a long-lived planner
        cache's accounting to one solve — and to ship per-chunk cache
        activity back from fork-pool workers instead of losing it.
        """
        return PerfCounters(
            planner_calls=self.planner_calls - baseline.planner_calls,
            init_planner_calls=(self.init_planner_calls
                                - baseline.init_planner_calls),
            backend_calls=self.backend_calls - baseline.backend_calls,
            cache_hits=self.cache_hits - baseline.cache_hits,
            cache_misses=self.cache_misses - baseline.cache_misses,
            cache_size=self.cache_size,
            init_time=self.init_time - baseline.init_time,
            selection_time=self.selection_time - baseline.selection_time,
            rollouts=self.rollouts - baseline.rollouts,
        )

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["cache_hit_rate"] = self.cache_hit_rate
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfCounters":
        """Inverse of :meth:`to_dict` (derived/unknown keys are ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in names})

    def summary(self) -> str:
        parts = [f"planner_calls={self.planner_calls}"
                 f" (init {self.init_planner_calls})"]
        if self.backend_calls:
            parts.append(f"backend_calls={self.backend_calls}")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache_hit_rate={self.cache_hit_rate:.0%}"
                         f" size={self.cache_size}")
        parts.append(f"init={self.init_time:.3f}s"
                     f" select={self.selection_time:.3f}s")
        if self.rollouts:
            parts.append(f"rollouts={self.rollouts}")
        return " ".join(parts)
