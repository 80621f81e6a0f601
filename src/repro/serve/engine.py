"""The warm engine: solver state kept resident across requests.

A cold ``SMORESolver.solve`` call pays two start-up costs on every
request: the planner starts with an empty memo, and the instance's
candidate table is rebuilt from scratch (the O(W x S) init sweep).
:class:`WarmEngine` keeps both hot:

* the **policy weights** and the **planner** live on the wrapped solver
  for the engine's whole lifetime — a memoising planner's cache keeps
  paying off across requests;
* a bounded LRU of :class:`~repro.smore.env.SelectionEnv` objects keyed
  by instance identity keeps **candidate-table snapshots** resident —
  a repeat request for a known instance restores its table by copy
  instead of re-running the init sweep — and, in the same entry, the
  policy's **static encodings** of the instance.

The planner's memo of an instance lives on the instance itself, so it
outlasts an env eviction for as long as the caller keeps the instance.

The engine is *not* thread-safe; the service drives it from a single
dispatcher thread (see :mod:`repro.serve.service`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..smore.env import SelectionEnv
from ..smore.solver import SMORESolver, SolveBatch

__all__ = ["WarmEngine", "BatchReport"]

DEFAULT_MAX_WARM_INSTANCES = 64


@dataclass
class BatchReport:
    """Engine-side attribution for one executed batch.

    ``env_events`` maps ``id(instance)`` to ``"hit"``/``"miss"`` for
    every env the batch touched — the per-request half of the engine's
    aggregate residency counters, which the service copies into each
    request's :class:`~repro.serve.service.RequestTrace`.
    """

    execute_s: float = 0.0
    env_events: dict[int, str] = field(default_factory=dict)
    statics_hits: int = 0
    statics_misses: int = 0


@dataclass
class _Resident:
    """One LRU entry: an instance's env and, once encoded, its statics."""

    env: SelectionEnv
    statics: object = None


class _ResidentStatics:
    """The policy's statics seam (``get``/``put``) over the engine's LRU:
    an instance's statics live in its entry and leave with its env.  The
    entry's env holds the instance, so its ``id()`` key stays valid."""

    def __init__(self, entries: OrderedDict):
        self._entries = entries
        self.hits = self.misses = 0

    def get(self, instance):
        entry = self._entries.get(id(instance))
        statics = None if entry is None else entry.statics
        self.hits += statics is not None
        self.misses += statics is None
        return statics

    def put(self, instance, statics) -> None:
        entry = self._entries.get(id(instance))
        if entry is not None:
            entry.statics = statics


class WarmEngine:
    """Resident solver state shared by every request the service handles.

    Parameters
    ----------
    solver:
        The :class:`~repro.smore.solver.SMORESolver` whose policy weights
        and planner stay resident.
    max_warm_instances:
        Capacity of the per-instance LRU.  Each entry holds one
        :class:`SelectionEnv` (and thereby one candidate-table snapshot)
        and the policy's statics of its instance; the least recently used
        entry is evicted past capacity.
    """

    def __init__(self, solver: SMORESolver,
                 max_warm_instances: int = DEFAULT_MAX_WARM_INSTANCES):
        if max_warm_instances < 1:
            raise ValueError(
                f"max_warm_instances must be >= 1, got {max_warm_instances}")
        self.solver = solver
        self.max_warm_instances = max_warm_instances
        # id(instance) -> _Resident; the entry's env holds the instance.
        self._envs: OrderedDict[int, _Resident] = OrderedDict()
        # Keep the static encoder pass resident too: serving weights are
        # frozen, so per-instance TASNet statics (travel-grid conv, task
        # encoder, pointer keys) stay valid across requests.  Policies
        # without the seam (selection rules, ablations) just skip it.
        self.statics_cache = None
        if hasattr(solver.policy, "statics_cache"):
            self.statics_cache = _ResidentStatics(self._envs)
            solver.policy.statics_cache = self.statics_cache
        self.env_hits = 0
        self.env_misses = 0
        self.env_evictions = 0
        # Per-batch env hit/miss attribution, active only inside
        # execute_traced (None otherwise, so the untraced path pays one
        # attribute test per env lookup).
        self._env_events: dict[int, str] | None = None

    # ------------------------------------------------------------------ #
    def env_for(self, instance) -> SelectionEnv:
        """The resident env for ``instance``, creating one on first use.

        Keyed by object identity: the serving fast path is repeat solves
        of the *same* instance object (re-pricing, incremental planning
        loops).  Equal-but-distinct instances get distinct envs.
        """
        key = id(instance)
        entry = self._envs.get(key)
        if entry is not None:
            self._envs.move_to_end(key)
            self.env_hits += 1
            if self._env_events is not None:
                self._env_events.setdefault(key, "hit")
            return entry.env
        self.env_misses += 1
        if self._env_events is not None:
            self._env_events.setdefault(key, "miss")
        env = SelectionEnv(instance, self.solver.planner)
        self._envs[key] = _Resident(env)
        if len(self._envs) > self.max_warm_instances:
            self._envs.popitem(last=False)
            self.env_evictions += 1
        return env

    @property
    def warm_instances(self) -> int:
        """Number of instances with a resident env."""
        return len(self._envs)

    # ------------------------------------------------------------------ #
    def open_batch(self, max_size: int | None = None,
                   clock=None) -> SolveBatch:
        """Open a :class:`SolveBatch` backed by the engine's warm envs."""
        kwargs = {} if clock is None else {"clock": clock}
        return self.solver.open_batch(max_size=max_size,
                                      env_factory=self.env_for, **kwargs)

    def execute(self, batch: SolveBatch):
        """Run ``batch`` on the resident solver state."""
        return batch.execute()

    def execute_traced(self, batch: SolveBatch):
        """Run ``batch`` and also return a :class:`BatchReport`.

        Delegates to :meth:`execute` (so subclasses that override the
        execution path keep working) while collecting per-batch
        attribution: wall time, per-instance env hit/miss, and the
        statics-cache delta.  Returns ``(results, report)``.
        """
        statics = self.statics_cache
        before = (statics.hits, statics.misses) if statics else (0, 0)
        self._env_events = {}
        start = time.perf_counter()
        try:
            results = self.execute(batch)
        finally:
            events, self._env_events = self._env_events, None
        report = BatchReport(execute_s=time.perf_counter() - start,
                             env_events=events)
        if statics is not None:
            report.statics_hits = statics.hits - before[0]
            report.statics_misses = statics.misses - before[1]
        return results, report

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Engine-side residency counters."""
        stats = {
            "warm_instances": self.warm_instances,
            "env_hits": self.env_hits,
            "env_misses": self.env_misses,
            "env_evictions": self.env_evictions,
        }
        if self.statics_cache is not None:
            stats["statics_hits"] = self.statics_cache.hits
            stats["statics_misses"] = self.statics_cache.misses
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WarmEngine(solver={self.solver.name!r}, "
                f"warm={self.warm_instances}/{self.max_warm_instances})")
