"""``hypot_array`` against ``math.hypot``, bit for bit.

The packed route kernels compute every distance with ``hypot_array``
while the object path calls ``math.hypot``; the bit-identity contract
holds only while the two agree on every input.  Each case compares raw
bit patterns (so ``-0.0`` vs ``0.0`` and NaN payload-free equality are
checked exactly).  If an interpreter changes its ``math.hypot``
algorithm, this file is what fails.
"""

import math
import sys

import numpy as np
import pytest

from repro.core import packed_instance
from repro.core.geometry import hypot_array
from repro.datasets.instances import InstanceOptions, generate_instances
from repro.datasets.synthetic import make_city_instance
from repro.shard import partition_instance
from repro.shard.partition import sub_instance

INF = math.inf
NAN = math.nan
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max
DENORM_MIN = 5e-324


def reference(dx, dy) -> np.ndarray:
    dx = np.asarray(dx, dtype=np.float64).ravel()
    dy = np.asarray(dy, dtype=np.float64).ravel()
    return np.fromiter((math.hypot(a, b)
                        for a, b in zip(dx.tolist(), dy.tolist())),
                       dtype=np.float64, count=dx.size)


def assert_bitwise(dx, dy):
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    got = hypot_array(dx, dy).ravel()
    want = reference(dx, dy)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero((got.view(np.int64) != want.view(np.int64)) & ~nan)
    assert bad.size == 0, (
        f"{bad.size} mismatches, first: hypot({dx.ravel()[bad[0]]!r}, "
        f"{dy.ravel()[bad[0]]!r}) = {got[bad[0]]!r}, "
        f"math.hypot = {want[bad[0]]!r}")


class TestRandomPairs:
    """Over 10**6 random pairs in all."""

    def test_uniform(self):
        rng = np.random.default_rng(1)
        n = 400_000
        assert_bitwise(rng.uniform(-3000, 3000, n),
                       rng.uniform(-3000, 3000, n))

    def test_grid_snapped(self):
        # Cell centers minus cell centers or free points, as in the paper's
        # sensing grids (many legs exactly equal, zero or tied).
        rng = np.random.default_rng(2)
        n = 300_000
        cx = (rng.integers(0, 10, n) + 0.5) * 200.0
        cy = (rng.integers(0, 12, n) + 0.5) * 200.0
        px = np.where(rng.random(n) < 0.5,
                      (rng.integers(0, 10, n) + 0.5) * 200.0,
                      rng.uniform(0, 2000, n))
        py = np.where(rng.random(n) < 0.5,
                      (rng.integers(0, 12, n) + 0.5) * 200.0,
                      rng.uniform(0, 2400, n))
        assert_bitwise(cx - px, cy - py)

    def test_mixed_magnitudes(self):
        rng = np.random.default_rng(3)
        n = 300_000
        dx = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-6, 6, n)
        dy = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-6, 6, n)
        assert_bitwise(dx, dy)

    def test_np_hypot_is_not_exact(self):
        # Why the kernel exists: numpy's own hypot misses ~0.6% of these.
        rng = np.random.default_rng(1)
        dx = rng.uniform(-3000, 3000, 100_000)
        dy = rng.uniform(-3000, 3000, 100_000)
        assert (np.hypot(dx, dy) != reference(dx, dy)).sum() > 100


class TestEdgeLegs:
    def test_zero_and_signed_zero(self):
        legs = [0.0, -0.0, 1.0, -1.0, 3.5, -1234.25]
        dx, dy = np.meshgrid(legs, legs)
        assert_bitwise(dx, dy)
        assert hypot_array(np.array([-0.0]), np.array([-0.0]))[0] == 0.0

    def test_equal_legs(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-5000, 5000, 50_000)
        assert_bitwise(v, v)
        assert_bitwise(v, -v)

    def test_subnormal_legs(self):
        # Max leg below 2**-1024 takes CPython's DBL_MIN rescaling branch;
        # legs just above it do not.
        legs = [DENORM_MIN, 2 * DENORM_MIN, 1e-310, 3e-309, DBL_MIN / 3,
                DBL_MIN / 2, DBL_MIN / 4, DBL_MIN, 2 * DBL_MIN, 1e-300,
                0.0, 1.0]
        legs = legs + [-v for v in legs]
        dx, dy = np.meshgrid(legs, legs)
        assert_bitwise(dx, dy)
        rng = np.random.default_rng(5)
        assert_bitwise(rng.uniform(-1, 1, 20_000) * DBL_MIN,
                       rng.uniform(-1, 1, 20_000) * DBL_MIN * 4)

    def test_huge_legs(self):
        legs = [DBL_MAX, DBL_MAX / 2, 1e308, 1.5e308, 1e300, 1.0, 0.0,
                DENORM_MIN]
        legs = legs + [-v for v in legs]
        dx, dy = np.meshgrid(legs, legs)
        assert_bitwise(dx, dy)

    def test_inf_beats_nan(self):
        legs = [INF, -INF, NAN, 0.0, -0.0, 1.0, DBL_MAX, DENORM_MIN]
        dx, dy = np.meshgrid(legs, legs)
        assert_bitwise(dx, dy)
        got = hypot_array(np.array([NAN, INF, NAN]),
                          np.array([INF, NAN, 1.0]))
        assert got[0] == INF and got[1] == INF and math.isnan(got[2])

    def test_shapes_broadcast(self):
        rng = np.random.default_rng(6)
        px = rng.uniform(0, 2000, (7, 1))
        tx = rng.uniform(0, 2000, (1, 11))
        got = hypot_array(tx - px, tx.T.T - px.T.T)
        assert got.shape == (7, 11)
        assert hypot_array(np.empty(0), np.empty(0)).shape == (0,)


def all_pairs(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return xs[None, :] - xs[:, None], ys[None, :] - ys[:, None]


class TestInstanceLocations:
    """Every location pair the planners can ever ask for."""

    def test_paper_instance(self):
        instance = generate_instances(
            "delivery", 1, seed=11,
            options=InstanceOptions(task_density=0.15, num_workers=7))[0]
        packed = packed_instance(instance)
        assert_bitwise(*all_pairs(packed.xs, packed.ys))

    @pytest.fixture(scope="class")
    def city(self):
        return make_city_instance(num_tasks=1_000, num_workers=100, seed=1,
                                  budget=300.0)

    def test_city_shard_with_boundary(self, city):
        # One shard's packed view plus every boundary task, including the
        # ones other shards own (the repair sweeps' distance block).
        plan = partition_instance(city, 4)
        shard = next(s for s in plan.shards if s.num_tasks)
        packed = packed_instance(sub_instance(city, shard, city.budget))
        boundary = [city.sensing_task(tid)
                    for tid in plan.boundary_task_ids()]
        xs = np.concatenate([packed.xs, [t.location.x for t in boundary]])
        ys = np.concatenate([packed.ys, [t.location.y for t in boundary]])
        assert_bitwise(*all_pairs(xs, ys))
