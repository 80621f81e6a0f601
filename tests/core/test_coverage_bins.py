"""Array coverage scoring: the bin store and ``gain_many`` over bin rows.

``gain_many`` must equal the scalar ``gain`` bit for bit for every task
of a paper instance, at several coverage states — including counts past
the ``_LOG_TABLE`` lookup tables, where both paths fall back to
``math.log2`` — and the stored bins must equal per-task binning.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import coverage as coverage_mod
from repro.core.coverage import spatial_pyramid
from repro.datasets.instances import generate_instances


@pytest.fixture(scope="module")
def instance():
    return generate_instances("delivery", 1, seed=3)[0]


def _assert_gains_match(state, tasks, bins):
    many = state.gain_many(bins)
    scalar = np.array([state.gain(t) for t in tasks])
    assert many.tobytes() == scalar.tobytes()


def test_bins_equal_per_task_binning(instance):
    model = instance.coverage
    tasks = instance.sensing_tasks
    levels = spatial_pyramid(model.grid)
    want = [[g.cell_index(t.location) for g in levels] + [model.slot_of(t)]
            for t in tasks]
    assert model.bins(tasks).tolist() == want
    assert [model._bins(t) for t in tasks] == want


@pytest.mark.parametrize("weighting", ["mean", "capacity", "finest"])
def test_gain_many_equals_scalar_gain_for_every_task(instance, weighting):
    model = replace(instance.coverage, level_weighting=weighting)
    tasks = list(instance.sensing_tasks)
    bins = model.bins(tasks)
    state = model.new_state()
    rng = np.random.default_rng(0)
    _assert_gains_match(state, tasks, bins)  # empty state
    for k in rng.permutation(len(tasks))[:40].tolist():
        state.add(tasks[k])
        _assert_gains_match(state, tasks, bins)
    # Subsets and repeats in any order, as the decode loops pass them.
    cols = rng.integers(0, len(tasks), size=25)
    _assert_gains_match(state, [tasks[c] for c in cols], bins[cols])
    assert state.gain_many(bins[:0]).shape == (0,)


def test_gain_many_past_the_log_tables(instance):
    model = instance.coverage
    tasks = list(instance.sensing_tasks)
    bins = model.bins(tasks)
    state = model.new_state()
    # One bin and the total both reach the table bound: the vectorized
    # path must take the scalar fallback and still agree bitwise.
    for _ in range(coverage_mod._LOG_TABLE + 2):
        state.add(tasks[0])
    _assert_gains_match(state, tasks, bins)


def test_store_is_shared_and_grows(instance):
    model = instance.coverage
    tasks = list(instance.sensing_tasks)
    first = model.bins(tasks)
    rows = len(model._store.rows)
    again = model.bins(tasks[::-1])
    assert len(model._store.rows) == rows
    assert again.tolist() == first[::-1].tolist()
