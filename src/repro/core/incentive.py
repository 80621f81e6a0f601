"""Worker incentives (paper Definition 6).

The incentive paid to a worker is proportional to the *additional* time cost
sensing imposes on them::

    in_R = mu * (rtt_R - rtt_TSP(l_s, l_e, D))

where ``rtt_TSP`` is the travel time of the worker's original route — the
optimal tour through only their mandatory travel tasks.  The base route per
worker is computed once (by any :mod:`repro.tsptw` planner) and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .entities import Worker

__all__ = ["IncentiveModel"]


@dataclass
class IncentiveModel:
    """Computes incentives given the per-time-unit rate ``mu``.

    Parameters
    ----------
    mu:
        Incentive per minute of extra time (paper default: 1).
    base_rtt_fn:
        Callable returning the worker's original (sensing-free) route
        travel time; results are cached per worker id.
    """

    mu: float = 1.0
    base_rtt_fn: Callable[[Worker], float] | None = None
    _base_cache: dict[int, float] = field(default_factory=dict)

    def set_base_rtt(self, worker: Worker, rtt: float) -> None:
        """Pre-seed the cached original route travel time for ``worker``."""
        self._base_cache[worker.worker_id] = rtt

    def base_rtt(self, worker: Worker) -> float:
        """Original route travel time ``rtt_TSP(l_s, l_e, D)`` for ``worker``."""
        cached = self._base_cache.get(worker.worker_id)
        if cached is not None:
            return cached
        if self.base_rtt_fn is None:
            raise ValueError(
                f"no base route travel time for worker {worker.worker_id} and "
                "no base_rtt_fn configured")
        rtt = self.base_rtt_fn(worker)
        self._base_cache[worker.worker_id] = rtt
        return rtt

    def incentive(self, worker: Worker, route_travel_time: float) -> float:
        """Incentive owed for a working route with the given ``rtt``.

        Never negative: a route faster than the worker's own optimum (which
        can only happen through approximation error in the base solver) is
        clamped to zero pay rather than charging the worker.
        """
        return max(0.0, self.mu * (route_travel_time - self.base_rtt(worker)))

    def incentives(self, worker: Worker, rtts: np.ndarray) -> np.ndarray:
        """:meth:`incentive` over an array of finite route travel times
        (the same IEEE ops per element, so the same floats)."""
        return np.maximum(0.0, self.mu * (rtts - self.base_rtt(worker)))
