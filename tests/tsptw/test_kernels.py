"""Randomized parity: vectorized route kernels vs the object path.

Each case draws hundreds of random configurations and asserts *exact*
(bit-level) float equality — the kernels replay the object path's
IEEE-754 operation sequence rather than approximating it, so `==` on the
resulting floats is the contract, not `pytest.approx`.

Half the configurations bind a :class:`PackedInstance` (matrix-backed
distances), half run unbound (one ``hypot_array`` block per sweep over
coordinates), so both kernel distance providers are exercised.
"""

from types import SimpleNamespace

import numpy as np

from repro.core import PackedInstance, Region
from repro.tsptw import (
    CachedPlanner,
    InsertionSolver,
    InsertionSweep,
    cheapest_insertion_position,
)
from repro.tsptw.kernels import (
    TaskBlock,
    nearest_neighbor_order_packed,
    pack_route,
    sweep_insertions,
)
from repro.tsptw.nearest import nearest_neighbor_order

from .conftest import SPEED, random_sensing, random_worker
from .oracle import ObjectInsertionSolver

N_CONFIGS = 200


def _scenario(seed, max_travel=4, max_sensing=8):
    """Random worker + sensing pool; even seeds get a packed instance."""
    rng = np.random.default_rng(seed)
    region = Region(2000, 2400)
    tight = rng.random() < 0.3
    budget = float(rng.uniform(50, 90) if tight else rng.uniform(150, 320))
    worker = random_worker(rng, region,
                           num_travel=int(rng.integers(0, max_travel + 1)),
                           time_budget=budget)
    sensing = random_sensing(rng, region,
                             count=int(rng.integers(1, max_sensing + 1)))
    packed = PackedInstance([worker], sensing) if seed % 2 == 0 else None
    return rng, worker, sensing, packed


def _route_order(rng, worker, sensing):
    """Random-length shuffled mix of travel and sensing tasks."""
    pool = list(worker.travel_tasks) + list(sensing)
    rng.shuffle(pool)
    return pool[:int(rng.integers(0, len(pool) + 1))]


def test_sweep_insertions_matches_per_task_scans():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, packed = _scenario(seed, max_sensing=12)
        split = int(rng.integers(1, len(sensing) + 1))
        new_tasks, rest = sensing[:split], sensing[split:]
        base = _route_order(rng, worker, rest)
        pos, rtt = sweep_insertions(pack_route(worker, base, SPEED, packed),
                                    TaskBlock.from_tasks(new_tasks))
        ref = [cheapest_insertion_position(worker, base, task, SPEED)
               for task in new_tasks]
        assert len(pos) == len(rtt) == len(ref)
        for p, r, theirs in zip(pos.tolist(), rtt.tolist(), ref):
            if theirs is None:
                assert p == -1 and r == float("inf")
            else:
                assert p == theirs[0]
                assert r == theirs[1]


def _bound_pair(worker, sensing, bind):
    """(kernel solver, object solver), optionally bound to one instance."""
    on = InsertionSolver(speed=SPEED)
    off = ObjectInsertionSolver(speed=SPEED)
    if bind:
        instance = SimpleNamespace(workers=(worker,),
                                   sensing_tasks=tuple(sensing))
        on, off = on.bind_instance(instance), off.bind_instance(instance)
    return on, off


def _assert_results_match(mine, theirs):
    assert mine.feasible == theirs.feasible
    if not theirs.feasible:
        # RouteResult.infeasible() carries no route; a kernel miss must too.
        assert (mine.route is None) == (theirs.route is None)
        return
    assert mine.route.tasks == theirs.route.tasks
    if theirs.feasible:
        assert mine.route_travel_time == theirs.route_travel_time
        # Forces _KernelResult's lazy timing — must equal the eager one.
        assert mine.timing.arrival_at_destination == \
            theirs.timing.arrival_at_destination
        assert mine.timing.feasible == theirs.timing.feasible


def test_insertion_solver_kernel_parity():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed)
        on, off = _bound_pair(worker, sensing, bind=seed % 2 == 0)

        plan_on = on.plan(worker, sensing)
        plan_off = off.plan(worker, sensing)
        _assert_results_match(plan_on, plan_off)

        # Infeasible plans carry no route; fall back to the raw travel
        # order so the sweep is still exercised on hopeless bases.
        base = (list(plan_off.route.tasks) if plan_off.route is not None
                else list(worker.travel_tasks))
        many_on = on.plan_insertions_many(worker, base, sensing)
        many_off = off.plan_insertions_many(worker, base, sensing)
        assert len(many_on) == len(many_off) == len(sensing)
        for task, mine, theirs in zip(sensing, many_on, many_off):
            _assert_results_match(mine, theirs)
            single = off.plan_with_insertion(worker, base, task)
            _assert_results_match(mine, single)


def test_nearest_neighbor_order_packed_parity():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed)
        packed = PackedInstance([worker], sensing)
        tasks = list(worker.travel_tasks) + list(sensing)
        rng.shuffle(tasks)
        got = nearest_neighbor_order_packed(worker, tasks, packed)
        assert got is not None
        assert got == nearest_neighbor_order(worker, tasks)


def test_nearest_neighbor_order_packed_unknown_location_returns_none(rng,
                                                                     region):
    worker = random_worker(rng, region)
    known = random_sensing(rng, region, 3)
    stranger = random_sensing(rng, region, 1, start_id=900)
    packed = PackedInstance([worker], known)
    assert nearest_neighbor_order_packed(
        worker, known + stranger, packed) is None


def _assert_same_arrays(mine, theirs):
    assert mine.pos.tolist() == theirs.pos.tolist()
    assert mine.rtt.tobytes() == theirs.rtt.tobytes()
    assert mine.feasible.tolist() == theirs.feasible.tolist()


def test_insertion_sweep_indexing_matches_object_oracle():
    """Swept arrays, and the per-task results indexing materialises, equal
    the object planner's per-task answers — small batches included."""
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed)
        on, off = _bound_pair(worker, sensing, bind=seed % 2 == 0)
        base = _route_order(rng, worker, [])
        sweep = on.plan_insertions_many(worker, base, sensing)
        oracle = off.plan_insertions_many(worker, base, sensing)
        assert isinstance(sweep, InsertionSweep)
        assert len(sweep) == len(oracle) == len(sensing)
        _assert_same_arrays(sweep, InsertionSweep.from_results(
            worker, base, sensing, oracle, SPEED))
        for i, (mine, theirs) in enumerate(zip(sweep, oracle)):
            _assert_results_match(mine, theirs)
            assert getattr(mine, "pos", None) == getattr(theirs, "pos", None)
            if theirs.route is not None:
                assert sweep.route(i).tasks == theirs.route.tasks


def test_cached_sweep_mixing_hits_and_misses_returns_identical_arrays():
    for seed in range(0, N_CONFIGS, 10):
        rng, worker, sensing, _ = _scenario(seed, max_sensing=12)
        direct = InsertionSolver(speed=SPEED)
        cached = CachedPlanner(InsertionSolver(speed=SPEED))
        memo = cached.bind_instance(
            SimpleNamespace(workers=(worker,), sensing_tasks=tuple(sensing)))
        base = _route_order(rng, worker, [])
        warm = sensing[::2]
        memo.plan_insertions_many(worker, base, warm)
        mixed = memo.plan_insertions_many(worker, base, sensing)
        assert cached.hits == len(warm)
        assert cached.misses == len(sensing)
        want = direct.plan_insertions_many(worker, base, sensing)
        _assert_same_arrays(mixed, want)
        for mine, theirs in zip(mixed, want):
            _assert_results_match(mine, theirs)


def _scan_arrays(worker, base, tasks, min_position=0):
    """(pos, rtt) of the scalar scan, task by task: the sweep's oracle."""
    pos = np.full(len(tasks), -1, dtype=np.intp)
    rtt = np.full(len(tasks), np.inf)
    for i, task in enumerate(tasks):
        found = cheapest_insertion_position(worker, base, task, SPEED,
                                            min_position=min_position)
        if found is not None:
            pos[i], rtt[i] = found
    return pos, rtt


def test_block_tasks_outside_the_packed_view():
    """A packed route swept against tasks its view does not hold (other
    shards' boundary tasks) computes those distances from coordinates,
    with the same floats as the scan; a fully packed block agrees too."""
    for seed in range(N_CONFIGS):
        rng, worker, sensing, _ = _scenario(seed, max_sensing=12)
        split = int(rng.integers(0, len(sensing) + 1))
        packed = PackedInstance([worker], sensing[:split])
        base = _route_order(rng, worker, [])
        strangers = random_sensing(rng, Region(2000, 2400),
                                   int(rng.integers(1, 9)), start_id=900)
        block = TaskBlock.from_tasks(sensing + strangers)
        pack = pack_route(worker, base, SPEED, packed)
        assert pack.dist_rows is not None
        assert packed.sensing_rows(block.ids) is None
        pos, rtt = sweep_insertions(pack, block)
        want_pos, want_rtt = _scan_arrays(worker, base, sensing + strangers)
        assert pos.tolist() == want_pos.tolist()
        assert rtt.tobytes() == want_rtt.tobytes()
        inside = TaskBlock.from_tasks(sensing[:split])
        pos, rtt = sweep_insertions(pack, inside)
        want_pos, want_rtt = _scan_arrays(worker, base, sensing[:split])
        assert pos.tolist() == want_pos.tolist()
        assert rtt.tobytes() == want_rtt.tobytes()


def test_block_sweeps_with_min_position():
    for seed in range(N_CONFIGS):
        rng, worker, sensing, packed = _scenario(seed, max_sensing=12)
        base = _route_order(rng, worker, sensing[len(sensing) // 2:])
        tasks = sensing[:len(sensing) // 2] or sensing[:1]
        block = TaskBlock.from_tasks(tasks)
        for anchor in range(1, len(base) + 2):
            pos, rtt = sweep_insertions(
                pack_route(worker, base, SPEED, packed), block,
                min_position=anchor)
            want_pos, want_rtt = _scan_arrays(worker, base, tasks, anchor)
            assert pos.tolist() == want_pos.tolist()
            assert rtt.tobytes() == want_rtt.tobytes()
            assert (pos[pos >= 0] >= anchor).all()


def test_precomputed_distances_match_the_sweep_own():
    """The shard repair passes route-point x block distances computed for
    many routes at once; the sweep must answer exactly as without them."""
    for seed in range(0, N_CONFIGS, 4):
        rng, worker, sensing, packed = _scenario(seed, max_sensing=12)
        base = _route_order(rng, worker, [])
        block = TaskBlock.from_tasks(sensing)
        pack = pack_route(worker, base, SPEED, packed)
        dist = block.distances(*pack.points())
        assert sweep_insertions(pack, block, dist=dist)[1].tobytes() \
            == sweep_insertions(pack, block)[1].tobytes()


def test_small_batches_stay_on_the_scalar_scan(monkeypatch):
    """Below ``_SWEEP_MIN_TASKS`` lanes no RoutePack is built, for task
    lists and blocks alike — including a block that crossed a process
    boundary as arrays and rebuilds its tasks on demand."""
    import pickle

    from repro.tsptw import insertion

    def no_sweep(*args, **kwargs):
        raise AssertionError("small batch reached the vectorized sweep")

    for seed in range(0, N_CONFIGS, 2):
        rng, worker, sensing, _ = _scenario(seed)
        on, off = _bound_pair(worker, sensing, bind=seed % 2 == 0)
        base = _route_order(rng, worker, [])
        tasks = sensing[:insertion._SWEEP_MIN_TASKS - 1]
        shipped = pickle.loads(pickle.dumps(TaskBlock.from_tasks(tasks)))
        want = InsertionSweep.from_results(
            worker, base, tasks, off.plan_insertions_many(worker, base, tasks),
            SPEED)
        with monkeypatch.context() as patch:
            patch.setattr(insertion.kernels, "pack_route", no_sweep)
            for new_tasks in (tasks, TaskBlock.from_tasks(tasks), shipped):
                got = on.plan_insertions_many(worker, base, new_tasks)
                _assert_same_arrays(got, want)
                for i in np.flatnonzero(got.feasible).tolist():
                    assert got.route(i).tasks == want.route(i).tasks


def test_task_block_round_trip():
    rng = np.random.default_rng(5)
    tasks = random_sensing(rng, Region(2000, 2400), 9)
    block = TaskBlock.from_tasks(tasks)
    assert block.latest_start.tolist() == [t.latest_start for t in tasks]
    sub = block.take([4, 0, 7])
    assert sub.ids.tolist() == [tasks[i].task_id for i in (4, 0, 7)]
    assert [sub[i] for i in range(3)] == [tasks[i] for i in (4, 0, 7)]
    assert sub[1] is tasks[0]
    import pickle

    shipped = pickle.loads(pickle.dumps(block))
    assert shipped.data.tobytes() == block.data.tobytes()
    assert list(shipped) == tasks
    assert shipped.take([2])[0] == tasks[2]
