"""Hierarchical entropy-based data coverage (paper Definition 4, after [8]).

The sensing objective is ``phi(S') = alpha * E(S') + (1 - alpha) * log2|S'|``
where ``S'`` is the set of completed sensing tasks and ``E`` measures how
balanced the collected data is over the spatio-temporal landscape.

The paper does not restate the hierarchical entropy of Ji et al. [8]; we
reconstruct it as follows.  The region grid is repeatedly coarsened by a
factor of 2 (the 1x1 root, whose entropy is identically zero, is excluded);
at every spatial level the completed tasks are binned by cell and the
Shannon entropy (base 2) of that *spatial* histogram is computed.  A
separate temporal histogram over the sensing time slots yields the temporal
entropy.  ``E`` is the mean of the per-level spatial entropies and the
temporal entropy.

Binning space and time separately is essential: a collection that is
spatially clustered but temporally spread must still score low on balance
(this is precisely the skew the paper's case study, Figure 6, penalises),
which a joint (cell, slot) histogram would hide because distinct slots make
bins unique even in one cell.

:class:`CoverageState` maintains the histograms incrementally so that the
marginal gain ``delta_phi`` of a candidate task — needed by TASNet's
heuristic signals and by the greedy baselines at every step — costs
O(levels) instead of O(|S'|).  Each task's bins (its cell at every level
and its slot) are computed once, vectorized, into one array store on the
:class:`CoverageModel`; :meth:`CoverageState.gain_many` scores rows of it
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entities import SensingTask
from .geometry import Grid

__all__ = ["CoverageModel", "CoverageState", "spatial_pyramid"]


def spatial_pyramid(grid: Grid) -> list[Grid]:
    """Grids from finest down to (but excluding) the 1x1 root.

    The root level carries no information (entropy 0 for any collection),
    so it is dropped unless the input grid itself is 1x1.
    """
    levels = [grid]
    current = grid
    while current.nx > 1 or current.ny > 1:
        current = current.coarsen(2)
        if current.nx > 1 or current.ny > 1:
            levels.append(current)
    return levels


# Histogram counts stay below the instance's task total (a few hundred),
# so n*log2(n) and log2(n) come from precomputed tables on the hot paths —
# candidate scoring evaluates entropy_after_add for every (rollout,
# candidate) pair each step.  Entries are built with the exact expressions
# they replace, so table hits are bit-identical to direct evaluation.
_LOG_TABLE = 4096
_CLOG2 = [0.0] + [n * math.log2(n) for n in range(1, _LOG_TABLE)]
_LOG2 = [0.0, 0.0] + [math.log2(n) for n in range(2, _LOG_TABLE)]
# Array views of the same tables for the vectorized gain path; elementwise
# float64 arithmetic on these matches the scalar expressions bit for bit.
_CLOG2_ARR = np.asarray(_CLOG2)
_LOG2_ARR = np.asarray(_LOG2)


def _entropy_from_stats(count_total: int, sum_clog: float) -> float:
    """Shannon entropy (bits) from N and sum of c*log2(c) over bins."""
    if count_total <= 1:
        return 0.0
    log_n = _LOG2[count_total] if count_total < _LOG_TABLE \
        else math.log2(count_total)
    return log_n - sum_clog / count_total


class _BinStore:
    """Binned tasks as one array: ``table[rows[task]]`` is the task's cell
    at every spatial level, finest first, then its slot.

    Rows are appended as tasks are binned; the table grows by doubling,
    and only its first ``len(rows)`` rows are filled.
    """

    __slots__ = ("rows", "table", "width")

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[SensingTask, int] = {}
        self.table = np.empty((0, width), dtype=np.int64)

    def append(self, tasks: list, block: np.ndarray) -> None:
        start = len(self.rows)
        stop = start + len(tasks)
        if stop > len(self.table):
            grown = np.empty((max(stop, 2 * len(self.table)), self.width),
                             dtype=np.int64)
            grown[:start] = self.table[:start]
            self.table = grown
        self.table[start:stop] = block
        self.rows.update(zip(tasks, range(start, stop)))


@dataclass(frozen=True)
class CoverageModel:
    """Configuration of the coverage objective for one sensing project.

    Parameters
    ----------
    grid:
        Finest spatial partition of the region (e.g. 10x12 for Delivery).
    time_span:
        Length of the sensing project in minutes (e.g. 240).
    slot_minutes:
        Temporal resolution for binning completed tasks (defaults to the
        sensing-task time-window length).
    alpha:
        Trade-off between balance (entropy) and amount (log2 count);
        0.5 by default, matching the paper.
    level_weighting:
        How per-level entropies combine into E.  The paper does not
        restate [8]'s exact combination, so the reconstruction exposes
        the plausible choices — ``"mean"`` (default; uniform over spatial
        levels + temporal), ``"capacity"`` (each histogram weighted by its
        information capacity log2(bins), emphasising fine levels), or
        ``"finest"`` (finest spatial level and temporal only).  The
        robustness of the paper's method ordering under all three is
        checked in ``benchmarks/test_ablation_entropy_weighting.py``.
    """

    grid: Grid
    time_span: float
    slot_minutes: float
    alpha: float = 0.5
    level_weighting: str = "mean"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.slot_minutes <= 0:
            raise ValueError("slot_minutes must be positive")
        if self.time_span <= 0:
            raise ValueError("time_span must be positive")
        if self.level_weighting not in ("mean", "capacity", "finest"):
            raise ValueError(
                f"unknown level_weighting {self.level_weighting!r}")
        # The bin store: one row per binned task (its cell at every
        # pyramid level, then its slot).  Binning is a pure function of
        # the immutable task and grid, so one store on the model serves
        # every CoverageState across all rollouts.
        object.__setattr__(self, "_store", _BinStore(
            len(spatial_pyramid(self.grid)) + 1))

    @property
    def num_slots(self) -> int:
        return max(1, math.ceil(self.time_span / self.slot_minutes))

    def slot_of(self, task: SensingTask) -> int:
        """Temporal bin of a sensing task, from its window start."""
        slot = int(task.tw_start / self.slot_minutes)
        return min(max(slot, 0), self.num_slots - 1)

    def precompute_bins(self, tasks) -> None:
        """Bin ``tasks`` into the store with vectorized binning.

        One numpy pass per pyramid level bins every task not yet in the
        store.  The arithmetic mirrors :meth:`Grid.cell_of` /
        :meth:`slot_of` exactly (same division, truncation toward zero,
        same clamp order), so the stored bins equal ``grid.cell_index``
        and ``slot_of`` per task.
        """
        store = self._store
        todo = list(dict.fromkeys(t for t in tasks if t not in store.rows))
        if not todo:
            return
        count = len(todo)
        xs = np.fromiter((t.location.x for t in todo), dtype=np.float64,
                         count=count)
        ys = np.fromiter((t.location.y for t in todo), dtype=np.float64,
                         count=count)
        block = np.empty((count, store.width), dtype=np.int64)
        for li, grid in enumerate(spatial_pyramid(self.grid)):
            i = np.minimum((xs / grid.cell_width).astype(np.int64),
                           grid.nx - 1)
            np.maximum(i, 0, out=i)
            j = np.minimum((ys / grid.cell_height).astype(np.int64),
                           grid.ny - 1)
            np.maximum(j, 0, out=j)
            block[:, li] = i * grid.ny + j
        tw = np.fromiter((t.tw_start for t in todo), dtype=np.float64,
                         count=count)
        slots = np.maximum((tw / self.slot_minutes).astype(np.int64), 0)
        np.minimum(slots, self.num_slots - 1, out=slots)
        block[:, -1] = slots
        store.append(todo, block)

    def bins(self, tasks) -> np.ndarray:
        """``(len(tasks), levels + 1)`` bins of ``tasks``: the cell at every
        spatial level, finest first, then the slot (what
        :meth:`CoverageState.gain_many` scores)."""
        tasks = list(tasks)
        rows = self._store.rows
        try:
            idx = np.fromiter((rows[t] for t in tasks), dtype=np.intp,
                              count=len(tasks))
        except KeyError:
            self.precompute_bins(tasks)
            idx = np.fromiter((rows[t] for t in tasks), dtype=np.intp,
                              count=len(tasks))
        return self._store.table[idx]

    def _bins(self, task: SensingTask) -> list[int]:
        """One task's bins as a list (the scalar paths' form)."""
        row = self._store.rows.get(task)
        if row is None:
            self.precompute_bins([task])
            row = self._store.rows[task]
        return self._store.table[row].tolist()

    def new_state(self) -> "CoverageState":
        return CoverageState(self)

    def phi(self, tasks) -> float:
        """Coverage of a completed-task collection (batch evaluation)."""
        state = self.new_state()
        for task in tasks:
            state.add(task)
        return state.phi()


class _Histogram:
    """A counting histogram over a fixed key range with O(1) entropy.

    Counts live in a dense integer array (bin spaces here — grid cells,
    time slots — are small and known up front), which lets the candidate
    scorers evaluate whole batches of hypothetical adds with one fancy
    index instead of per-key dictionary probes.
    """

    __slots__ = ("counts", "sum_clog", "total")

    def __init__(self, size: int):
        self.counts = np.zeros(size, dtype=np.int64)
        self.sum_clog = 0.0
        self.total = 0

    def add(self, key: int) -> None:
        old = int(self.counts[key])
        new = old + 1
        self.counts[key] = new
        if new < _LOG_TABLE:
            self.sum_clog += _CLOG2[new] - _CLOG2[old]
        else:
            self.sum_clog += new * math.log2(new) - old * math.log2(old)
        self.total += 1

    def remove(self, key: int) -> None:
        old = int(self.counts[key])
        if old <= 0:
            raise KeyError(f"bin {key} is empty")
        new = old - 1
        self.counts[key] = new
        if old < _LOG_TABLE:
            self.sum_clog -= _CLOG2[old] - _CLOG2[new]
        else:
            self.sum_clog -= old * math.log2(old) - new * math.log2(new)
        self.total -= 1

    def entropy(self) -> float:
        return _entropy_from_stats(self.total, self.sum_clog)

    def entropy_after_add(self, key: int) -> float:
        """Entropy the histogram would have after ``add(key)`` — without
        mutating, and bitwise identical to the add/entropy/remove
        round-trip (same update expression, no float residue)."""
        old = int(self.counts[key])
        new = old + 1
        if new < _LOG_TABLE:
            sum_clog = self.sum_clog + _CLOG2[new] - _CLOG2[old]
        else:
            sum_clog = self.sum_clog + new * math.log2(new) \
                - old * math.log2(old)
        return _entropy_from_stats(self.total + 1, sum_clog)

    def entropy_after_add_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`entropy_after_add` over a batch of keys.

        Elementwise table lookups and float64 arithmetic replay the
        scalar expressions exactly, so ``out[i]`` is bit-identical to
        ``entropy_after_add(keys[i])``.
        """
        old = self.counts[keys]
        new = old + 1
        if int(new.max(initial=0)) >= _LOG_TABLE:
            return np.array([self.entropy_after_add(int(k)) for k in keys])
        sum_clog = self.sum_clog + _CLOG2_ARR[new] - _CLOG2_ARR[old]
        total = self.total + 1
        if total <= 1:
            return np.zeros(len(keys))
        log_n = _LOG2[total] if total < _LOG_TABLE else math.log2(total)
        return log_n - sum_clog / total

    def copy(self) -> "_Histogram":
        twin = _Histogram(len(self.counts))
        twin.counts = self.counts.copy()
        twin.sum_clog = self.sum_clog
        twin.total = self.total
        return twin


class CoverageState:
    """Incrementally maintained coverage of a growing completed-task set.

    Supports ``add``, ``remove``, ``phi`` and the O(levels) marginal
    ``gain`` used as the reward signal ``r_t = phi(S'_{t+1}) - phi(S'_t)``
    of the selection MDP (Section IV-A).
    """

    def __init__(self, model: CoverageModel):
        self.model = model
        self._levels = spatial_pyramid(model.grid)
        # One histogram per bin column: the spatial levels, then time.
        self._hists = [_Histogram(grid.num_cells) for grid in self._levels]
        self._hists.append(_Histogram(model.num_slots))
        self._total = 0
        self._weights = self._level_weights()
        self._phi_cache: float | None = None

    def _level_weights(self) -> list[float]:
        """Weights over [spatial levels..., temporal], normalised to 1."""
        scheme = self.model.level_weighting
        if scheme == "mean":
            raw = [1.0] * (len(self._levels) + 1)
        elif scheme == "capacity":
            raw = [math.log2(max(grid.num_cells, 2)) for grid in self._levels]
            raw.append(math.log2(max(self.model.num_slots, 2)))
        else:  # "finest"
            raw = [0.0] * (len(self._levels) + 1)
            raw[0] = 1.0
            raw[-1] = 1.0
        total = sum(raw)
        return [w / total for w in raw]

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Number of completed sensing tasks tracked."""
        return self._total

    def add(self, task: SensingTask) -> None:
        for hist, key in zip(self._hists, self.model._bins(task)):
            hist.add(key)
        self._total += 1
        self._phi_cache = None

    def remove(self, task: SensingTask) -> None:
        for hist, key in zip(self._hists, self.model._bins(task)):
            hist.remove(key)
        self._total -= 1
        self._phi_cache = None

    # ------------------------------------------------------------------ #
    def entropy(self) -> float:
        """Hierarchical entropy E: weighted spatial levels + temporal."""
        terms = [hist.entropy() for hist in self._hists]
        return sum(w * t for w, t in zip(self._weights, terms))

    def spatial_entropies(self) -> list[float]:
        """Per-level spatial entropies, finest first (for diagnostics)."""
        return [hist.entropy() for hist in self._hists[:-1]]

    def temporal_entropy(self) -> float:
        return self._hists[-1].entropy()

    def phi(self) -> float:
        """Current coverage; phi(empty set) is defined as 0.

        Cached between mutations: candidate-scoring loops evaluate the
        marginal gain of every feasible task against one fixed state, so
        the "before" value is computed once per state, not per candidate.
        """
        if self._phi_cache is not None:
            return self._phi_cache
        if self._total == 0:
            value = 0.0
        else:
            alpha = self.model.alpha
            value = alpha * self.entropy() \
                + (1.0 - alpha) * math.log2(self._total)
        self._phi_cache = value
        return value

    def gain(self, task: SensingTask) -> float:
        """Marginal coverage gain of adding ``task`` (does not mutate).

        Computed analytically per histogram — the entropy each would have
        after the hypothetical add — instead of an add/phi/remove
        round-trip, so the hot candidate-scoring loops of the baselines
        pay O(levels) lookups, no mutation, and no floating-point residue
        in the running ``sum_clog`` terms.
        """
        terms = [hist.entropy_after_add(key)
                 for hist, key in zip(self._hists, self.model._bins(task))]
        entropy_after = sum(w * t for w, t in zip(self._weights, terms))
        alpha = self.model.alpha
        n = self._total + 1
        log_n = _LOG2[n] if n < _LOG_TABLE else math.log2(n)
        phi_after = alpha * entropy_after + (1.0 - alpha) * log_n
        return phi_after - self.phi()

    def gain_many(self, bins: np.ndarray) -> np.ndarray:
        """Marginal gains of many candidate tasks at once (no mutation).

        ``bins`` holds one row per candidate, as
        :meth:`CoverageModel.bins` returns them (the candidate table keeps
        its columns' rows, so the decode loops gather instead of binning).
        One fancy-indexed :meth:`_Histogram.entropy_after_add_many` per
        level replaces the per-task scalar probes of :meth:`gain`.  The
        weighted accumulation runs in the same level order as the scalar
        path, so ``out[i]`` is bit-identical to ``gain`` of row ``i``'s
        task.
        """
        if not len(bins):
            return np.empty(0)
        entropy_after = None
        for li, (weight, hist) in enumerate(zip(self._weights, self._hists)):
            term = weight * hist.entropy_after_add_many(bins[:, li])
            entropy_after = term if entropy_after is None \
                else entropy_after + term
        alpha = self.model.alpha
        n = self._total + 1
        log_n = _LOG2[n] if n < _LOG_TABLE else math.log2(n)
        return alpha * entropy_after + (1.0 - alpha) * log_n - self.phi()

    def copy(self) -> "CoverageState":
        clone = CoverageState(self.model)
        clone._hists = [hist.copy() for hist in self._hists]
        clone._total = self._total
        clone._phi_cache = self._phi_cache
        return clone
