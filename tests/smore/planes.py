"""Reading the candidate table's planes by worker and task id (tests)."""

import numpy as np


def live_worker_ids(table) -> list[int]:
    """Ids of the workers holding a candidate, in table order."""
    return [table.workers[r].worker_id for r in table.live_rows().tolist()]


def row_task_ids(table, worker_id) -> list[int]:
    """A worker's candidate task ids, ascending."""
    row = table.row_of[worker_id]
    return table.task_ids[np.flatnonzero(table.mask[row])].tolist()


def pair_values(table, worker_id, task_id) -> tuple[float, float]:
    """``(delta_incentive, rtt)`` of one live pair."""
    r, c = table.row_of[worker_id], table.col_of[task_id]
    assert table.mask[r, c], (worker_id, task_id)
    return float(table.delta_incentive[r, c]), float(table.rtt[r, c])


def pair_route(table, worker_id, task_id):
    """The working route one live pair would commit."""
    r, c = table.row_of[worker_id], table.col_of[task_id]
    assert table.mask[r, c], (worker_id, task_id)
    return table.route(r, c)


def num_pairs(table) -> int:
    return int(table.mask.sum())
