"""``repro.serve`` — the online solver service.

An asyncio front-end over a warm :class:`~repro.smore.solver.SMORESolver`:
requests (instance + decode mode + optional deadline) are coalesced by a
micro-batcher into heterogeneous cross-instance decode batches
(:meth:`SMORESolver.open_batch` / :class:`SolveBatch`) and executed on a
:class:`WarmEngine` that keeps TASNet weights, the (memoising) planner,
and per-instance candidate-table snapshots resident across requests.

Batching is an execution strategy only: a greedy request answered
through the service is bit-identical to ``SMORESolver.solve`` on the
same instance, regardless of which requests shared its batch.

Typical use::

    from repro.serve import ServeConfig, SolverService, WarmEngine

    engine = WarmEngine(solver)
    async with SolverService(engine, ServeConfig(max_batch_size=8)) as svc:
        solution = await svc.solve(instance, timeout=2.0)

``python -m repro.serve`` runs a self-contained smoke workload (see
``--help``); :func:`drive_requests` drives the same path synchronously
for tests and benchmarks.
"""

from .client import SolveRequest, drive_requests, run_workload
from .engine import BatchReport, WarmEngine
from .service import (
    DeadlineExceeded,
    RequestTrace,
    ServeConfig,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    SolverService,
)

__all__ = [
    "WarmEngine", "BatchReport",
    "ServeConfig", "SolverService", "RequestTrace",
    "ServiceError", "ServiceClosed", "ServiceOverloaded", "DeadlineExceeded",
    "SolveRequest", "drive_requests", "run_workload",
]
