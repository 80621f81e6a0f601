"""Assignment state ``M`` and the MDP state of the selection process.

``M[w]`` tracks, per worker: the assigned sensing tasks, the current
working route, and the incentive currently owed (Algorithm 1 line 3).
:class:`SelectionState` bundles everything TASNet conditions on
(Section IV-A): candidates ``C`` — the dense worker x task planes of
:class:`~repro.smore.candidates.CandidateTable`, whose rows are the
instance's workers in instance order and whose columns are its sensing
tasks by ascending id — assignments ``M``, static worker info ``W``, and
the remaining budget ``B_t``, plus the coverage state that yields
rewards.  A selection applies one pair: the table builds that pair's
route, and :meth:`AssignmentState.apply` records it with its incentive
delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.coverage import CoverageState
from ..core.entities import SensingTask, Worker
from ..core.route import WorkingRoute
from .candidates import CandidateTable

__all__ = ["WorkerAssignment", "AssignmentState", "SelectionState"]


@dataclass
class WorkerAssignment:
    """One worker's slot in M: assigned tasks, route, incentive owed."""

    worker: Worker
    assigned: list[SensingTask] = field(default_factory=list)
    route: WorkingRoute | None = None
    incentive: float = 0.0

    @property
    def num_assigned(self) -> int:
        return len(self.assigned)


class AssignmentState:
    """The hashmap ``M`` of Algorithm 1."""

    def __init__(self, workers):
        self._slots: dict[int, WorkerAssignment] = {
            w.worker_id: WorkerAssignment(w) for w in workers
        }

    def __getitem__(self, worker_id: int) -> WorkerAssignment:
        return self._slots[worker_id]

    def __iter__(self):
        return iter(self._slots.values())

    def apply(self, worker_id: int, task: SensingTask, route: WorkingRoute,
              delta_incentive: float) -> None:
        """Record a selected assignment (Algorithm 1 line 13)."""
        slot = self._slots[worker_id]
        slot.assigned.append(task)
        slot.route = route
        slot.incentive += delta_incentive

    def routes(self) -> dict[int, WorkingRoute]:
        return {
            worker_id: slot.route
            for worker_id, slot in self._slots.items()
            if slot.route is not None
        }

    def incentives(self) -> dict[int, float]:
        return {
            worker_id: slot.incentive
            for worker_id, slot in self._slots.items()
            if slot.route is not None
        }

    def total_incentive(self) -> float:
        return sum(slot.incentive for slot in self._slots.values())


@dataclass
class SelectionState:
    """MDP state ``s_t = (C_t, M_t, W, B_t)`` plus coverage bookkeeping."""

    candidates: CandidateTable
    assignments: AssignmentState
    workers: tuple[Worker, ...]
    budget_rest: float
    coverage: CoverageState
    selected: list[SensingTask] = field(default_factory=list)
    step_count: int = 0
    # The availability pool, maintained incrementally: tasks in instance
    # order (arrivals appended at the end), minus everything selected or
    # expired.  Dict insertion order *is* the pool order.  The candidate
    # table keeps the same pool as a column mask, which step sweeps read.
    unselected: dict[int, SensingTask] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.candidates.empty

    def phi(self) -> float:
        return self.coverage.phi()

    def outcome(self) -> tuple:
        """A finished rollout's picklable result, phi first."""
        return (self.phi(), self.assignments.routes(),
                self.assignments.incentives())
