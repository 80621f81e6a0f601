"""Streaming task-arrival schedules for the dynamic sensing scenario.

The paper's pipeline is static: every sensing task is known before workers
depart.  Real sensing campaigns are not — tasks are posted while workers
are already en route.  This module describes *when* each task of an
instance enters and leaves the availability pool, keeping the instance
itself untouched: a schedule is a pure overlay of
``(task_id, arrival, expiry)`` records over ``instance.sensing_tasks``,
so every static component (planners, policies, coverage) keeps working on
the same immutable instance.

Two seeded generators cover the regimes used in the experiments:
:func:`poisson_arrivals` (memoryless posting at a uniform rate, the
classic mobile-crowdsensing arrival model) and :func:`burst_arrivals`
(tasks posted in clustered bursts, e.g. event-driven sensing demand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import USMDWInstance

__all__ = ["TaskArrival", "ArrivalSchedule", "poisson_arrivals",
           "burst_arrivals"]


@dataclass(frozen=True, slots=True)
class TaskArrival:
    """When one sensing task is available: ``[arrival, expiry)``.

    A task with ``arrival == 0`` is present before workers depart (the
    static core).  ``expiry`` is when an *unselected* task leaves the pool
    and counts as rejected; a selected task is committed and never
    expires.  Expiry never needs to exceed the task's window end — past
    it the task is unservable anyway — and generators clamp accordingly.
    """

    task_id: int
    arrival: float
    expiry: float

    def __post_init__(self):
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.expiry < self.arrival:
            raise ValueError(
                f"expiry {self.expiry} before arrival {self.arrival}")


@dataclass(frozen=True)
class ArrivalSchedule:
    """Arrival/expiry overlay for one instance's sensing-task set.

    ``arrivals`` holds one record per scheduled task, sorted by
    ``(arrival, task_id)`` — ties broken by id so replays are
    deterministic.  Tasks of the instance that have no record simply
    never appear (useful for truncated schedules); most generators cover
    the full set.
    """

    horizon: float
    arrivals: tuple[TaskArrival, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.arrivals,
                               key=lambda a: (a.arrival, a.task_id)))
        object.__setattr__(self, "arrivals", ordered)
        seen: set[int] = set()
        for record in ordered:
            if record.task_id in seen:
                raise ValueError(f"duplicate schedule entry for task "
                                 f"{record.task_id}")
            seen.add(record.task_id)

    # ------------------------------------------------------------------ #
    @property
    def initial(self) -> tuple[TaskArrival, ...]:
        """Records present at time zero (the static core)."""
        return tuple(a for a in self.arrivals if a.arrival <= 0.0)

    @property
    def streamed(self) -> tuple[TaskArrival, ...]:
        """Records that arrive strictly after departure, in event order."""
        return tuple(a for a in self.arrivals if a.arrival > 0.0)

    def validate(self, instance: USMDWInstance) -> None:
        """Check every record refers to a task of ``instance``."""
        known = {s.task_id for s in instance.sensing_tasks}
        for record in self.arrivals:
            if record.task_id not in known:
                raise ValueError(
                    f"schedule references unknown task {record.task_id}")


# ---------------------------------------------------------------------- #
def _split_pool(instance: USMDWInstance, rng: np.random.Generator,
                initial_fraction: float):
    """Partition the task set into the static core and the streamed tail."""
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError(
            f"initial_fraction must be in [0, 1], got {initial_fraction}")
    tasks = list(instance.sensing_tasks)
    order = rng.permutation(len(tasks))
    n_initial = int(round(initial_fraction * len(tasks)))
    initial = [tasks[i] for i in sorted(order[:n_initial])]
    streamed = [tasks[i] for i in sorted(order[n_initial:])]
    return initial, streamed


def _expiry_for(task, arrival: float, ttl: float | None) -> float:
    """Expiry clamped into ``[arrival, tw_end]`` — past the window end the
    task is unservable regardless of the schedule."""
    if ttl is None:
        return max(arrival, task.tw_end)
    return min(max(arrival, arrival + ttl), max(arrival, task.tw_end))


def poisson_arrivals(instance: USMDWInstance, rng: np.random.Generator,
                     initial_fraction: float = 0.5,
                     horizon: float | None = None,
                     ttl: float | None = None) -> ArrivalSchedule:
    """Memoryless streaming: the tail arrives as a Poisson process.

    Conditioned on the number of arrivals, Poisson event times are
    i.i.d. uniform over the span — so each streamed task draws a uniform
    arrival over ``(0, min(horizon, latest_start)]``, which guarantees it
    is at least momentarily servable when posted.  ``ttl`` bounds how
    long an unselected task stays in the pool (default: until its window
    closes).
    """
    horizon = float(horizon if horizon is not None
                    else instance.coverage.time_span)
    initial, streamed = _split_pool(instance, rng, initial_fraction)
    records = [TaskArrival(t.task_id, 0.0, _expiry_for(t, 0.0, ttl))
               for t in initial]
    for task in streamed:
        latest = min(horizon, max(task.latest_start, 0.0))
        arrival = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
        records.append(
            TaskArrival(task.task_id, arrival,
                        _expiry_for(task, arrival, ttl)))
    return ArrivalSchedule(horizon=horizon, arrivals=tuple(records))


def burst_arrivals(instance: USMDWInstance, rng: np.random.Generator,
                   num_bursts: int = 3, burst_width: float = 10.0,
                   initial_fraction: float = 0.5,
                   horizon: float | None = None,
                   ttl: float | None = None) -> ArrivalSchedule:
    """Clustered streaming: the tail arrives in Gaussian bursts.

    Burst centres are uniform over the horizon; each streamed task joins
    a random burst and arrives at ``centre + N(0, burst_width)``, clipped
    into ``[0, min(horizon, latest_start)]``.  Models event-driven demand
    spikes (incidents, flash campaigns) that stress the repair path with
    large same-epoch arrival batches.
    """
    if num_bursts < 1:
        raise ValueError(f"num_bursts must be >= 1, got {num_bursts}")
    horizon = float(horizon if horizon is not None
                    else instance.coverage.time_span)
    initial, streamed = _split_pool(instance, rng, initial_fraction)
    centres = rng.uniform(0.0, horizon, size=num_bursts)
    records = [TaskArrival(t.task_id, 0.0, _expiry_for(t, 0.0, ttl))
               for t in initial]
    for task in streamed:
        centre = centres[int(rng.integers(num_bursts))]
        jitter = float(rng.normal(0.0, burst_width))
        latest = min(horizon, max(task.latest_start, 0.0))
        arrival = float(np.clip(centre + jitter, 0.0, latest))
        records.append(
            TaskArrival(task.task_id, arrival,
                        _expiry_for(task, arrival, ttl)))
    return ArrivalSchedule(horizon=horizon, arrivals=tuple(records))
