"""The layered scatter-add of ``gather_rows`` / ``pointer_keys`` backward
against ``np.add.at``, bit for bit (NaN sign aside)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.ops import scatter_add_rows


def _reference(like, indices, grad):
    out = np.zeros_like(like)
    np.add.at(out, np.asarray(indices, dtype=np.intp), grad)
    return out


def _assert_bitwise(mine, want):
    """Equal bits, except that a NaN only needs to meet a NaN: where two
    NaNs are added, which operand's sign and payload survive depends on
    the numpy inner loop (``np.add.at`` differs from ``+=`` there)."""
    assert mine.shape == want.shape and mine.dtype == want.dtype
    nan = np.isnan(want)
    assert (np.isnan(mine) == nan).all()
    assert mine[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("seed", range(200))
def test_matches_add_at_with_repeats_zeros_and_specials(seed):
    rng = np.random.default_rng(seed)
    rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 5))
    like = np.empty((rows, width))
    idx = rng.integers(-rows, rows, size=(int(rng.integers(0, 6)),
                                         int(rng.integers(1, 30))))
    grad = rng.standard_normal(idx.shape + (width,))
    # All-zero rows (padding), -0.0 rows and mixed signed zeros.
    flat = grad.reshape(-1, width)
    flat[rng.random(len(flat)) < 0.3] = 0.0
    flat[rng.random(len(flat)) < 0.1] = -0.0
    zeros = rng.random(flat.shape) < 0.2
    flat[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    # Specials: NaN and both infinities, also cancelling each other.
    for value in (np.nan, np.inf, -np.inf):
        hit = rng.random(flat.shape) < 0.03
        flat[hit] = value
    with np.errstate(invalid="ignore"):  # inf - inf
        _assert_bitwise(scatter_add_rows(like, idx, grad),
                        _reference(like, idx, grad))


def test_one_row_repeated_keeps_summation_order():
    like = np.empty((3, 2))
    idx = np.array([1, 1, 1, 0, 1])
    grad = np.array([[1e16, 1.0], [1.0, -1.0], [-1e16, 1e-16],
                     [2.0, 2.0], [1.0, 3.0]])
    _assert_bitwise(scatter_add_rows(like, idx, grad),
                    _reference(like, idx, grad))


def test_negative_zero_row_never_reaches_output():
    like = np.empty((2, 2))
    idx = np.array([0, 0])
    grad = np.array([[-0.0, -0.0], [-0.0, -0.0]])
    out = scatter_add_rows(like, idx, grad)
    _assert_bitwise(out, _reference(like, idx, grad))
    assert not np.signbit(out).any()


def test_one_dimensional_table_and_empty_index():
    like = np.empty(5)
    idx = np.array([4, -1, 0, 4])
    grad = np.array([1.5, 2.5, -0.0, 0.1])
    _assert_bitwise(scatter_add_rows(like, idx, grad),
                    _reference(like, idx, grad))
    empty = np.zeros((0,), dtype=np.intp)
    _assert_bitwise(scatter_add_rows(np.empty((4, 3)), empty,
                                     np.empty((0, 3))),
                    np.zeros((4, 3)))


def test_backward_of_gather_ops_matches_add_at():
    rng = np.random.default_rng(3)
    table = nn.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    idx = np.array([[0, 5, 5, 2], [2, 2, 0, 0]])
    upstream = rng.standard_normal(idx.shape + (4,))
    upstream[1, 3] = 0.0  # a padding lane
    for op in (nn.ops.gather_rows, nn.ops.pointer_keys):
        table.grad = None
        out = op(table, idx)
        (out * nn.Tensor(upstream)).sum().backward()
        _assert_bitwise(table.grad, _reference(table.data, idx, upstream))
