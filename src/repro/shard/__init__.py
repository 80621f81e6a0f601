"""City-scale sharding: spatial partition -> per-shard solve -> merge.

See :mod:`repro.shard.partition` for the grid / k-d partitioners and
:mod:`repro.shard.solve` for the solve-and-merge pipeline with
boundary repair.  Entry points: :func:`partition_instance` and
:func:`solve_sharded` (also reachable as
``python -m repro.experiments shard``).
"""

from .partition import (
    Shard,
    ShardPlan,
    default_margin,
    partition_instance,
    sub_instance,
)
from .solve import ShardReport, solve_sharded

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardReport",
    "default_margin",
    "partition_instance",
    "solve_sharded",
    "sub_instance",
]
