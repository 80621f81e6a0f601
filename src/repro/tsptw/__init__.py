"""``repro.tsptw`` — working-route planning (TSP with Time Windows).

SMORE calls a route planner for every feasibility check (Algorithm 1).
All backends share the :class:`~repro.tsptw.base.RoutePlanner` protocol:

* :class:`ExactDPSolver` — optimal, exponential; ground truth on small n.
* :class:`InsertionSolver` — cheapest feasible insertion + or-opt; the
  fast polynomial default used by the experiment harness.
* :class:`NearestNeighborSolver` — the construction the RN/TVPG/TCPG
  baselines start from.
* :class:`GPNSolver` — pre-trained graph pointer network with hierarchical
  RL (lower: window satisfaction; upper: + length penalty), the solver the
  paper uses.
* :class:`CachedPlanner` — memoisation wrapper for any backend.

Per-instance state (packed arrays, memo tables) lives in a planner's
binding to the instance, :func:`bind`, which the instance keeps.
"""

from .base import PlannerBase, RoutePlanner, RouteResult, bind, combined_tasks
from .cache import CachedPlanner
from .exact import ExactDPSolver
from .gpn import DecodeResult, GPNModel, GPNScale, GPNSolver, HierarchicalGPN
from .hrl import (
    TSPTWTrainer,
    TSPTWTrainingConfig,
    make_default_gpn,
    sample_training_worker,
)
from .insertion import (
    InsertionSolver,
    InsertionSweep,
    cheapest_insertion_position,
)
from .kernels import RoutePack, pack_route, sweep_insertions
from .nearest import NearestNeighborSolver, nearest_neighbor_order

__all__ = [
    "RoutePlanner", "PlannerBase", "RouteResult", "combined_tasks", "bind",
    "ExactDPSolver", "InsertionSolver", "InsertionSweep",
    "cheapest_insertion_position",
    "NearestNeighborSolver", "nearest_neighbor_order", "CachedPlanner",
    "GPNScale", "GPNModel", "HierarchicalGPN", "GPNSolver", "DecodeResult",
    "TSPTWTrainer", "TSPTWTrainingConfig", "sample_training_worker",
    "make_default_gpn",
    "RoutePack", "pack_route", "sweep_insertions",
]
