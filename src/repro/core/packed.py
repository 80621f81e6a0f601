"""Packed-array view of a USMDW instance (the route-kernel substrate).

The object model (:mod:`repro.core.entities`) is convenient but slow to
traverse: every planner call re-reads ``Location`` attributes and recomputes
``math.hypot`` per hop.  :class:`PackedInstance` flattens an instance once
into contiguous float64 arrays — deduplicated location coordinates, sensing
task attributes (``tw_start``/``tw_end``/service/latest-start), sensing
flags — plus a lazily built per-instance travel-distance matrix that every
planner call shares.  The numpy route kernels in :mod:`repro.tsptw.kernels`
operate on these arrays.

Bit-identity contract: the distance matrix is built with ``math.hypot``
(never ``np.hypot``, which differs by 1 ulp on ~0.6% of inputs), with the
same argument orientation the object path uses, so kernel results and
object-path results see exactly the same floats.  ``math.hypot`` is
symmetric under argument order and sign, so one cached row serves both
travel directions.

The packed view is cached on the instance (:func:`packed_instance`) and the
lazily built rows live in plain numpy arrays, so fork-pool children inherit
the whole structure copy-on-write together with the candidate-table
snapshot.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .entities import SensingTask, Worker
from .geometry import Location

__all__ = ["PackedInstance", "RaggedRows", "packed_instance",
           "DEFAULT_ROW_CACHE_BYTES", "PACKED_ARRAY_NAMES"]

#: Cap on the lazily built travel-matrix row cache, in bytes per packed
#: instance (overridable via ``REPRO_PACKED_ROW_BYTES``).  At the paper's
#: scale every row fits far under the cap, so nothing ever evicts; at
#: city scale (10k tasks -> ~10k locations, ~80 KB/row) an unbounded
#: cache approaches a gigabyte per instance, so rows recycle LRU instead.
DEFAULT_ROW_CACHE_BYTES = int(os.environ.get("REPRO_PACKED_ROW_BYTES",
                                             256 * 1024 * 1024))

#: The base arrays a packed instance can export for zero-copy sharing
#: (:meth:`PackedInstance.export_arrays`), in a stable order.
PACKED_ARRAY_NAMES = ("xs", "ys", "sensing_ids", "sensing_loc", "tw_start",
                      "tw_end", "service", "latest_start")


class RaggedRows:
    """Offsets over B variable-length rows packed into one flat axis.

    The cross-instance decode path concatenates per-instance embedding
    matrices along axis 0 and addresses them as ``offsets[i] + local``;
    :meth:`padded` materialises the ``(B, max_len)`` global-index matrix
    and padding mask that turn the ragged structure into one rectangular
    gather.
    """

    __slots__ = ("lengths", "offsets", "total", "max_len")

    def __init__(self, lengths: Sequence[int]):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        if self.lengths.ndim != 1:
            raise ValueError("lengths must be one-dimensional")
        if self.lengths.size and int(self.lengths.min()) < 0:
            raise ValueError("lengths must be non-negative")
        self.offsets = np.zeros(self.lengths.size + 1, dtype=np.intp)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.total = int(self.offsets[-1])
        self.max_len = int(self.lengths.max()) if self.lengths.size else 0

    def __len__(self) -> int:
        return int(self.lengths.size)

    def padded(self, fill: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(B, max_len)`` global indices plus a True-on-padding mask.

        Row ``i`` holds ``offsets[i] + j`` for ``j < lengths[i]`` and
        ``fill`` elsewhere.  Callers mask every downstream use of the
        filled tail, so any valid flat row index works as ``fill``.
        """
        cols = np.arange(self.max_len, dtype=np.intp)
        pad = cols[None, :] >= self.lengths[:, None]
        idx = self.offsets[:-1, None] + cols[None, :]
        idx[pad] = fill
        return idx, pad


class PackedInstance:
    """Contiguous-array representation of an instance's geometry and tasks.

    Locations are deduplicated (sensing tasks share grid-cell centers, so
    the unique-location count is typically far below worker-count x
    task-count); distances are materialised row-by-row on first use via
    ``math.hypot`` and cached under an LRU row budget
    (:data:`DEFAULT_ROW_CACHE_BYTES`) — small instances never evict, and
    eviction can only cost a rebuild, never change a float.
    """

    __slots__ = ("xs", "ys", "_xl", "_yl", "_locs", "_loc_index", "_rows",
                 "sensing_ids", "sensing_loc", "tw_start", "tw_end",
                 "service", "latest_start", "is_sensing", "_sensing_row",
                 "worker_locs", "_row_budget", "_row_builds",
                 "_row_evictions")

    def __init__(self, workers: Sequence[Worker],
                 sensing_tasks: Sequence[SensingTask],
                 row_cache_bytes: int | None = None):
        locs: list[Location] = []
        index: dict[Location, int] = {}

        def intern(loc: Location) -> int:
            i = index.get(loc)
            if i is None:
                i = len(locs)
                index[loc] = i
                locs.append(loc)
            return i

        # worker_id -> (origin idx, travel-task idx tuple, destination idx)
        self.worker_locs: dict[int, tuple[int, tuple[int, ...], int]] = {}
        for w in workers:
            origin = intern(w.origin)
            travel = tuple(intern(t.location) for t in w.travel_tasks)
            self.worker_locs[w.worker_id] = (origin, travel,
                                             intern(w.destination))

        n = len(sensing_tasks)
        self.sensing_ids = np.fromiter((s.task_id for s in sensing_tasks),
                                       dtype=np.int64, count=n)
        self.sensing_loc = np.fromiter(
            (intern(s.location) for s in sensing_tasks),
            dtype=np.intp, count=n)
        self.tw_start = np.fromiter((s.tw_start for s in sensing_tasks),
                                    dtype=np.float64, count=n)
        self.tw_end = np.fromiter((s.tw_end for s in sensing_tasks),
                                  dtype=np.float64, count=n)
        self.service = np.fromiter((s.service_time for s in sensing_tasks),
                                   dtype=np.float64, count=n)
        # Same expression as SensingTask.latest_start (tw_end - service).
        self.latest_start = np.fromiter(
            (s.tw_end - s.service_time for s in sensing_tasks),
            dtype=np.float64, count=n)
        self.is_sensing = np.ones(n, dtype=bool)
        self._sensing_row = {int(s.task_id): k
                             for k, s in enumerate(sensing_tasks)}

        self._locs = locs
        self._loc_index = index
        self.xs = np.fromiter((l.x for l in locs), dtype=np.float64,
                              count=len(locs))
        self.ys = np.fromiter((l.y for l in locs), dtype=np.float64,
                              count=len(locs))
        self._init_row_cache(row_cache_bytes)

    def _init_row_cache(self, row_cache_bytes: int | None) -> None:
        """Bound the lazy row cache by an LRU row budget.

        Also caches the coordinates as Python-float lists: :meth:`row`
        runs ``math.hypot`` over them, the same doubles as ``xs``/``ys``
        without a numpy scalar per element.

        Eviction is free to be aggressive because no consumer retains a
        row as a live view — every caller copies out what it needs
        (fancy-indexing or ``fromiter``) — and a rebuilt row is the same
        ``math.hypot`` sequence over the same coordinates, so results
        stay bit-identical whatever the budget.
        """
        self._xl = self.xs.tolist()
        self._yl = self.ys.tolist()
        limit = (DEFAULT_ROW_CACHE_BYTES if row_cache_bytes is None
                 else row_cache_bytes)
        row_bytes = 8 * max(1, len(self._locs))
        self._row_budget = max(1, limit // row_bytes)
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._row_builds = 0
        self._row_evictions = 0

    # ------------------------------------------------------------------ #
    @property
    def num_locations(self) -> int:
        return len(self._locs)

    @property
    def num_cached_rows(self) -> int:
        return len(self._rows)

    @property
    def row_budget(self) -> int:
        """Maximum rows the LRU cache retains."""
        return self._row_budget

    @property
    def row_builds(self) -> int:
        """Rows materialised so far (rebuilds after eviction included)."""
        return self._row_builds

    @property
    def row_evictions(self) -> int:
        """Rows dropped by the LRU budget so far."""
        return self._row_evictions

    def nbytes(self) -> int:
        """Approximate memory of the packed arrays + cached matrix rows."""
        base = (self.xs.nbytes + self.ys.nbytes + self.tw_start.nbytes
                + self.tw_end.nbytes + self.service.nbytes
                + self.latest_start.nbytes + self.sensing_loc.nbytes)
        return base + sum(r.nbytes for r in self._rows.values())

    # ------------------------------------------------------------------ #
    def loc_id(self, location: Location) -> int:
        """Index of a known location, or -1 (callers fall back to hypot)."""
        return self._loc_index.get(location, -1)

    def sensing_row(self, task_id: int) -> int:
        """Packed array row of a sensing task id, or -1 when unknown."""
        return self._sensing_row.get(task_id, -1)

    def row(self, i: int) -> np.ndarray:
        """Distances (meters) from location ``i`` to every location.

        Built with ``math.hypot(x_j - x_i, y_j - y_i)`` — the exact
        expression and orientation of ``Location.distance_to`` and the
        insertion scan — so every consumer sees seed-identical floats.
        """
        rows = self._rows
        r = rows.get(i)
        if r is None:
            xs, ys = self._xl, self._yl
            xi, yi = xs[i], ys[i]
            hypot = math.hypot
            r = np.fromiter(
                (hypot(x - xi, y - yi) for x, y in zip(xs, ys)),
                dtype=np.float64, count=len(xs))
            rows[i] = r
            self._row_builds += 1
            if len(rows) > self._row_budget:
                rows.popitem(last=False)
                self._row_evictions += 1
        else:
            rows.move_to_end(i)
        return r

    def distance(self, i: int, j: int) -> float:
        return float(self.row(i)[j])

    def distance_between(self, a: Location, b: Location) -> float:
        """Matrix-backed ``Location`` distance with hypot fallback.

        The fallback keeps the provider total (a stale binding or an
        ad-hoc location is slower, never wrong).
        """
        ia = self._loc_index.get(a)
        if ia is not None:
            ib = self._loc_index.get(b)
            if ib is not None:
                return float(self.row(ia)[ib])
        return math.hypot(b.x - a.x, b.y - a.y)

    # ------------------------------------------------------------------ #
    def export_arrays(self) -> dict[str, np.ndarray]:
        """The base arrays, keyed by :data:`PACKED_ARRAY_NAMES`.

        The zero-copy currency of the sharding pipeline: publishing these
        through shared memory and rebuilding with :meth:`from_arrays` in
        another process reproduces this packed view without pickling the
        payload.  Lazily built matrix rows are deliberately excluded —
        each process materialises (and LRU-bounds) its own.
        """
        return {name: getattr(self, name) for name in PACKED_ARRAY_NAMES}

    @classmethod
    def from_arrays(cls, workers: Sequence[Worker],
                    arrays: dict[str, np.ndarray],
                    row_cache_bytes: int | None = None) -> "PackedInstance":
        """Rebuild a packed view around pre-existing base arrays.

        ``arrays`` is an :meth:`export_arrays` set, typically shared-
        memory views in a pool worker.  Location objects are re-interned
        from the exact coordinate floats, so distances — ``math.hypot``
        over identical inputs — are bit-identical to the originating
        process.  ``workers`` may be any subset whose locations appear in
        the arrays (e.g. one shard's workers against the full instance's
        export).
        """
        self = object.__new__(cls)
        for name in PACKED_ARRAY_NAMES:
            setattr(self, name, arrays[name])
        locs = [Location(float(x), float(y))
                for x, y in zip(self.xs, self.ys)]
        index = {loc: i for i, loc in enumerate(locs)}
        self._locs = locs
        self._loc_index = index
        n = len(self.sensing_ids)
        self.is_sensing = np.ones(n, dtype=bool)
        self._sensing_row = {int(task_id): k
                             for k, task_id in enumerate(self.sensing_ids)}
        self.worker_locs = {}
        for w in workers:
            try:
                origin = index[w.origin]
                travel = tuple(index[t.location] for t in w.travel_tasks)
                dest = index[w.destination]
            except KeyError as exc:
                raise ValueError(
                    f"worker {w.worker_id} has a location missing from the "
                    "exported arrays") from exc
            self.worker_locs[w.worker_id] = (origin, travel, dest)
        self._init_row_cache(row_cache_bytes)
        return self


def packed_instance(instance) -> PackedInstance:
    """The instance's cached :class:`PackedInstance` (built on first use).

    Cached via ``object.__setattr__`` on the frozen dataclass, so every
    planner bound to the same instance — and every fork-pool child — shares
    one matrix.
    """
    cached = instance.__dict__.get("_packed")
    if cached is None:
        cached = PackedInstance(instance.workers, instance.sensing_tasks)
        object.__setattr__(instance, "_packed", cached)
    return cached
