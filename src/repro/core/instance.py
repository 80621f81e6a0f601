"""USMDW problem instances (paper Section II-B).

An instance bundles everything the problem statement fixes: the worker set,
the sensing-task set, the budget, the incentive rate, and the coverage
objective configuration.  :func:`make_sensing_grid_tasks` builds the
uniformly created sensing-task set of the paper's experiments (one task per
spatial cell and time slot, Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coverage import CoverageModel
from .entities import SensingTask, Worker
from .errors import InvalidInstanceError
from .geometry import DEFAULT_SPEED, Grid

__all__ = ["USMDWInstance", "make_sensing_grid_tasks"]


def make_sensing_grid_tasks(grid: Grid, time_span: float, window_minutes: float,
                            service_time: float = 1.0,
                            density: float = 1.0,
                            rng: np.random.Generator | None = None,
                            start_id: int = 0) -> list[SensingTask]:
    """Uniformly create sensing tasks over the spatio-temporal range.

    One candidate task exists per (cell, slot); ``density`` in (0, 1]
    subsamples them uniformly at random (used to scale experiments down to
    CPU size while keeping the uniform spatio-temporal spread).
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    num_slots = max(1, int(time_span // window_minutes))
    candidates = []
    for i in range(grid.nx):
        for j in range(grid.ny):
            center = grid.cell_center(i, j)
            for slot in range(num_slots):
                tw_start = slot * window_minutes
                tw_end = min(tw_start + window_minutes, time_span)
                if tw_end - tw_start < service_time:
                    continue
                candidates.append((center, tw_start, tw_end))
    if density < 1.0:
        if rng is None:
            rng = np.random.default_rng()
        keep = max(1, int(round(len(candidates) * density)))
        indices = sorted(rng.choice(len(candidates), size=keep, replace=False))
        candidates = [candidates[i] for i in indices]
    return [
        SensingTask(start_id + k, loc, tw_s, tw_e, service_time)
        for k, (loc, tw_s, tw_e) in enumerate(candidates)
    ]


@dataclass(frozen=True)
class USMDWInstance:
    """One Urban-Sensing-for-Multi-Destination-Workers problem.

    Attributes mirror the problem statement: sensing task set ``S``, budget
    ``B``, incentive rate ``mu``, worker set ``W``, plus the coverage model
    defining the objective ``phi``.
    """

    workers: tuple[Worker, ...]
    sensing_tasks: tuple[SensingTask, ...]
    budget: float
    mu: float
    coverage: CoverageModel
    speed: float = DEFAULT_SPEED
    name: str = "usmdw"
    _worker_index: dict[int, Worker] = field(init=False, repr=False, compare=False)
    _task_index: dict[int, SensingTask] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.workers, tuple):
            object.__setattr__(self, "workers", tuple(self.workers))
        if not isinstance(self.sensing_tasks, tuple):
            object.__setattr__(self, "sensing_tasks", tuple(self.sensing_tasks))
        self.validate()
        object.__setattr__(self, "_worker_index",
                           {w.worker_id: w for w in self.workers})
        object.__setattr__(self, "_task_index",
                           {s.task_id: s for s in self.sensing_tasks})

    def validate(self) -> None:
        """Raise :class:`InvalidInstanceError` on structural problems."""
        if self.budget < 0:
            raise InvalidInstanceError(f"budget must be >= 0, got {self.budget}")
        if self.mu <= 0:
            raise InvalidInstanceError(f"mu must be > 0, got {self.mu}")
        if self.speed <= 0:
            raise InvalidInstanceError(f"speed must be > 0, got {self.speed}")
        worker_ids = [w.worker_id for w in self.workers]
        if len(set(worker_ids)) != len(worker_ids):
            raise InvalidInstanceError("duplicate worker ids")
        task_ids = [s.task_id for s in self.sensing_tasks]
        if len(set(task_ids)) != len(task_ids):
            raise InvalidInstanceError("duplicate sensing task ids")
        region = self.coverage.grid.region
        for task in self.sensing_tasks:
            if not region.contains(task.location):
                raise InvalidInstanceError(
                    f"sensing task {task.task_id} at {task.location} lies "
                    f"outside the region {region}")
            if task.tw_end > self.coverage.time_span + 1e-9:
                raise InvalidInstanceError(
                    f"sensing task {task.task_id} window ends after the "
                    f"project time span {self.coverage.time_span}")

    def __getstate__(self):
        """The problem without what is derived from it: the packed arrays
        and planner bindings rebuild on first use, so they never travel
        to pool workers."""
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_packed", "_bindings")}

    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_sensing_tasks(self) -> int:
        return len(self.sensing_tasks)

    def worker(self, worker_id: int) -> Worker:
        return self._worker_index[worker_id]

    def sensing_task(self, task_id: int) -> SensingTask:
        return self._task_index[task_id]

    def describe(self) -> str:
        """One-line human-readable summary used by the experiment runner."""
        grid = self.coverage.grid
        return (f"{self.name}: |W|={self.num_workers} |S|={self.num_sensing_tasks} "
                f"B={self.budget:g} mu={self.mu:g} grid={grid.nx}x{grid.ny} "
                f"span={self.coverage.time_span:g}min alpha={self.coverage.alpha:g}")
