"""Planner oracle: the object-path insertion planner.

``InsertionSolver`` scores batched candidate checks with one vectorized
packed-array sweep and builds its results from the scan's own numbers.
``ObjectInsertionSolver`` is the path those kernels replaced: every
candidate check is a looped scalar scan, and every result is a full
re-simulation of its route.  The kernel planner must reproduce it
bitwise: same feasibility verdicts, positions, route travel times and
timings.
"""

from repro.tsptw.insertion import InsertionSolver


class ObjectInsertionSolver(InsertionSolver):
    """:class:`InsertionSolver` without the packed route kernels."""

    def _route_result(self, worker, tasks, known=None, covers=None,
                      pos=None):
        # Ignore the scan's (feasible, rtt): re-simulate the whole route.
        return super()._route_result(worker, tasks, pos=pos)

    def plan_insertions_many(self, worker, base_tasks, new_tasks,
                             min_position=0):
        return [self.plan_with_insertion(worker, base_tasks, task,
                                         min_position=min_position)
                for task in new_tasks]
