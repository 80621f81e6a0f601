"""The iterative-selection MDP (paper Section IV-A).

States are :class:`~repro.smore.state.SelectionState`; an action assigns
sensing task ``s_j`` to worker ``w_i``; the transition replays Algorithm 1
lines 12-23 (budget update, assignment update, candidate refresh); the
reward is the coverage gain ``r_t = phi(S'_{t+1}) - phi(S'_t)``.

Both SMORE inference (greedy policy) and TASNet training (sampled policy)
run episodes through this environment, which guarantees the learned policy
is optimised on exactly the dynamics the solver executes.

Repeated rollouts on the same environment are cheap: the initial candidate
table — the O(|W| x |S|) planner sweep of Algorithm 1 step 1 — is computed
once on the first :meth:`SelectionEnv.reset` and snapshotted; later resets
restore it via a structural copy instead of replanning every pair.  The
environment's :attr:`perf` counters record planner calls and per-phase wall
time (initialisation vs. selection) across all episodes it has run.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..obs.profile import scope as profile_scope
from ..core.incentive import IncentiveModel
from ..core.instance import USMDWInstance
from ..core.perf import PerfCounters
from ..tsptw.base import RoutePlanner, bind
from .candidates import CandidateTable
from .state import AssignmentState, SelectionState

__all__ = ["SelectionEnv"]


class SelectionEnv:
    """Environment wrapping one USMDW instance.

    Parameters
    ----------
    instance:
        The problem to solve.
    planner:
        TSPTW backend used for feasibility checks and route updates.

    The initial candidate table is computed once and restored by copy on
    later resets — sound because it depends only on the (immutable)
    instance and the planner.  :attr:`planner` is the planner bound to
    the instance (:func:`~repro.tsptw.base.bind`): the instance's packed
    arrays and memo tables, which live as long as the instance does.
    """

    def __init__(self, instance: USMDWInstance, planner: RoutePlanner):
        self.instance = instance
        self.planner = bind(planner, instance)
        self.incentives = IncentiveModel(mu=instance.mu)
        self.state: SelectionState | None = None
        self.perf = PerfCounters()
        self._snapshot: CandidateTable | None = None

    # ------------------------------------------------------------------ #
    def _initial_pool(self) -> tuple:
        """``(workers, tasks)`` the epoch-zero table is built over."""
        return self.instance.workers, self.instance.sensing_tasks

    def _initial_table(self) -> CandidateTable:
        """A copy of the post-initialisation candidate table (the first
        call computes it and keeps the pristine snapshot)."""
        if self._snapshot is not None:
            return self._snapshot.copy()
        workers, tasks = self._initial_pool()
        with obs.span("init", workers=len(workers), tasks=len(tasks)), \
                profile_scope("env.init"):
            table = CandidateTable(self.planner, self.incentives,
                                   self.instance.workers,
                                   self.instance.sensing_tasks,
                                   coverage=self.instance.coverage)
            table.initialize(workers, tasks, self.instance.budget)
        self.perf.planner_calls += table.planner_calls
        self.perf.init_planner_calls += table.planner_calls
        # The state gets a copy: handing it the snapshot itself would let
        # episode mutations corrupt the pristine table.
        self._snapshot = table
        return table.copy()

    def reset(self) -> SelectionState:
        """Step 1 of SMORE: candidate assignment initialisation."""
        start = time.perf_counter()
        self.state = SelectionState(
            candidates=self._initial_table(),
            assignments=AssignmentState(self.instance.workers),
            workers=self.instance.workers,
            budget_rest=self.instance.budget,
            coverage=self.instance.coverage.new_state(),
            unselected={s.task_id: s for s in self.instance.sensing_tasks},
        )
        self.perf.init_time += time.perf_counter() - start
        self.perf.rollouts += 1
        return self.state

    # ------------------------------------------------------------------ #
    def step(self, worker_id: int, task_id: int) -> tuple[SelectionState, float, bool]:
        """Apply action ``(w*, s*)``; return (state, reward, done).

        Raises ``KeyError`` when the pair is not a current candidate —
        actions must come from ``state.candidates``.
        """
        return self.step_state(self._require_state(), worker_id, task_id)

    def step_state(self, state: SelectionState, worker_id: int,
                   task_id: int) -> tuple[SelectionState, float, bool]:
        """Apply an action to an explicit state (batched rollouts).

        The batched decode engine holds K states from K :meth:`reset`
        calls and advances each independently; dynamics and perf
        accounting are identical to :meth:`step`.
        """
        if (worker_id, task_id) not in state.candidates:
            raise KeyError(
                f"(worker {worker_id}, task {task_id}) is not a feasible candidate")
        with profile_scope("env.step"):
            return self._apply_step(state, worker_id, task_id)

    def _apply_step(self, state: SelectionState, worker_id: int,
                    task_id: int) -> tuple[SelectionState, float, bool]:
        start = time.perf_counter()
        table = state.candidates
        calls_before = table.planner_calls
        task = self.instance.sensing_task(task_id)
        worker = self.instance.worker(worker_id)
        row, col = table.row_of[worker_id], table.col_of[task_id]
        delta = float(table.delta_incentive[row, col])

        phi_before = state.coverage.phi()

        # Lines 12-14: budget, M, S'.
        state.budget_rest -= delta
        state.assignments.apply(worker_id, task, table.route(row, col), delta)
        state.selected.append(task)
        state.coverage.add(task)
        state.step_count += 1

        # Lines 15-16: the task is no longer available to anyone.
        state.candidates.remove_task(task_id)
        # Spending budget may strand other workers' candidates.
        state.candidates.prune_over_budget(state.budget_rest)

        # Lines 17-23: refresh the selected worker's row over the pool's
        # columns (remove_task cleared the selected one).
        state.unselected.pop(task_id, None)
        slot = state.assignments[worker_id]
        state.candidates.recompute_worker(
            worker, slot.assigned, np.flatnonzero(table.pool), slot.incentive,
            state.budget_rest, current_route_tasks=slot.route.tasks,
            min_position=self._worker_min_position(state, worker_id))

        reward = state.coverage.phi() - phi_before
        self.perf.planner_calls += state.candidates.planner_calls - calls_before
        self.perf.selection_time += time.perf_counter() - start
        return state, reward, state.done

    def advance(self, state: SelectionState) -> bool:
        """Open the next event epoch; a static episode has none."""
        return False

    # ------------------------------------------------------------------ #
    def _worker_min_position(self, state: SelectionState,
                             worker_id: int) -> int:
        """Committed-route anchor for a worker's insertions.

        The static environment plans from departure, so every position is
        open; the dynamic environment overrides this with the worker's
        committed mid-route lock.
        """
        return 0

    # ------------------------------------------------------------------ #
    def _require_state(self) -> SelectionState:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        return self.state
