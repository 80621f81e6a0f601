"""Op-level profiler for the ``repro.nn`` autograd engine.

Where :mod:`repro.obs.trace` sees the solver at *span* granularity
(solve / select / init), this module instruments the tensor layer itself:
every differentiable op in :mod:`repro.nn.ops` is wrapped (see
``instrument_op`` in ``nn/tensor.py``), the backward walk in
``Tensor.backward`` times each closure it fires, and tensor construction
reports live-byte allocation.  All of it funnels through the
:class:`~repro.nn.tensor.TensorHook` protocol — when no profiler is
installed the shared null hook makes each instrumentation point one
global read plus one attribute check, with zero allocation (the
``BENCH_PR4`` artefact pins this below 2% of a solver smoke run).

An installed :class:`OpProfiler` records, per named op:

* forward / backward call counts and wall seconds (*inclusive* per op,
  *self* time per stack path — composite ops like ``masked_mean`` nest
  their constituent ``where``/``sum``/``div`` frames);
* estimated FLOPs and bytes moved, from the cost models in
  :mod:`repro.nn.flops` (matmul exact up to the 2·M·N·K convention,
  elementwise/softmax per-element, backward charged at 2x forward);
* a live-tensor-bytes watermark (``peak_live_bytes``) tracked across
  graph retention and release via weakref finalizers.

Three surfaces:

* :func:`profiling` — ``with profiling("out.jsonl") as prof:`` installs
  the hook for a block, optionally writes the JSONL profile, and
  publishes ``profile.*`` aggregates into the current tracer's
  :class:`~repro.obs.metrics.MetricsRegistry` (timings + a peak-bytes
  gauge — wall-clock data, outside the bit-identity contract).
* :meth:`OpProfiler.collapsed` — collapsed-stack (flamegraph.pl) export:
  one ``path;to;op <self-microseconds>`` line per observed stack.
* ``python -m repro.obs.profile`` — profiles a smoke solve and/or
  training workload and prints the per-op summary table.

Fork-pool propagation mirrors PR 3's telemetry: ``obs.capture_child``
snapshots the profiler around each worker item, the payload travels back
with the result, and the parent merges deltas in item order (counts,
seconds, FLOPs and bytes sum; ``peak_live_bytes`` max-merges — each
child's watermark is its own address space).

Named regions (``profile.scope("epoch")``) wrap non-tensor work — env
stepping, planner calls — so a profiled run can attribute wall time it
would otherwise lose; the ``BENCH_PR4`` regression asserts the residual
unaccounted bucket of a paper-scale TASNet epoch stays under 5%.

Profile-file schema (one JSON object per line, ``sort_keys``):

* ``{"type": "op", "name", "kind", "fwd_calls", "fwd_seconds",
  "bwd_calls", "bwd_seconds", "flops", "bwd_flops", "nbytes",
  "bwd_bytes"}`` — one per recorded op / scope / custom region.
* ``{"type": "stack", "path", "count", "self_seconds"}`` — one per
  observed call stack (the collapsed-stack rows).
* ``{"type": "memory", "peak_live_bytes", "live_bytes"}``.
* ``{"type": "summary", "total_seconds", "total_flops", "total_bytes"}``.
"""

from __future__ import annotations

import json
import time

from ..nn import flops as flops_mod
from ..nn.tensor import TensorHook, get_tensor_hook, set_tensor_hook
from .trace import get_tracer

__all__ = ["OpStat", "OpProfiler", "profiling", "scope",
           "render_profile", "render_stacks"]


class OpStat:
    """Accumulated per-op totals (one per op name in ``OpProfiler.ops``)."""

    __slots__ = ("kind", "fwd_calls", "fwd_seconds", "bwd_calls",
                 "bwd_seconds", "flops", "bwd_flops", "nbytes", "bwd_bytes")

    def __init__(self, kind: str = "op"):
        self.kind = kind          # "op" | "scope" | "custom"
        self.fwd_calls = 0
        self.fwd_seconds = 0.0
        self.bwd_calls = 0
        self.bwd_seconds = 0.0
        self.flops = 0
        self.bwd_flops = 0
        self.nbytes = 0
        self.bwd_bytes = 0

    # -- derived ------------------------------------------------------- #
    @property
    def calls(self) -> int:
        return self.fwd_calls + self.bwd_calls

    @property
    def seconds(self) -> float:
        return self.fwd_seconds + self.bwd_seconds

    @property
    def total_flops(self) -> int:
        return self.flops + self.bwd_flops

    @property
    def total_bytes(self) -> int:
        return self.nbytes + self.bwd_bytes

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "fwd_calls": self.fwd_calls, "fwd_seconds": self.fwd_seconds,
                "bwd_calls": self.bwd_calls, "bwd_seconds": self.bwd_seconds,
                "flops": self.flops, "bwd_flops": self.bwd_flops,
                "nbytes": self.nbytes, "bwd_bytes": self.bwd_bytes}

    def _merge_row(self, row: list) -> None:
        (self.fwd_calls, self.fwd_seconds, self.bwd_calls, self.bwd_seconds,
         self.flops, self.bwd_flops, self.nbytes, self.bwd_bytes) = (
            self.fwd_calls + row[1], self.fwd_seconds + row[2],
            self.bwd_calls + row[3], self.bwd_seconds + row[4],
            self.flops + row[5], self.bwd_flops + row[6],
            self.nbytes + row[7], self.bwd_bytes + row[8])

    def _row(self) -> list:
        """Picklable snapshot row (kind first, then the 8 accumulators)."""
        return [self.kind, self.fwd_calls, self.fwd_seconds, self.bwd_calls,
                self.bwd_seconds, self.flops, self.bwd_flops, self.nbytes,
                self.bwd_bytes]


class OpProfiler(TensorHook):
    """A live :class:`TensorHook` accumulating op stats and stack samples."""

    enabled = True
    __slots__ = ("ops", "stacks", "_frames", "live_bytes", "peak_live_bytes")

    def __init__(self):
        self.ops: dict[str, OpStat] = {}
        #: ``";"``-joined stack path -> [sample count, self seconds].
        self.stacks: dict[str, list] = {}
        # Open frames: [name, child seconds, full path].
        self._frames: list[list] = []
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- internals ----------------------------------------------------- #
    def _stat(self, name: str, kind: str) -> OpStat:
        stat = self.ops.get(name)
        if stat is None:
            stat = self.ops[name] = OpStat(kind)
        return stat

    def _close_frame(self, name: str, seconds: float) -> str:
        """Pop ``name``'s frame, charge its self time, return its path."""
        frames = self._frames
        if frames and frames[-1][0] == name:
            _, child_seconds, path = frames.pop()
        else:  # unmatched (hook installed mid-op); degrade gracefully
            child_seconds, path = 0.0, name
        if frames:
            frames[-1][1] += seconds
        self._add_sample(path, seconds - child_seconds)
        return path

    def _add_sample(self, path: str, self_seconds: float) -> None:
        entry = self.stacks.get(path)
        if entry is None:
            entry = self.stacks[path] = [0, 0.0]
        entry[0] += 1
        if self_seconds > 0.0:  # timer jitter can push self time negative
            entry[1] += self_seconds

    def _leaf_sample(self, name: str, seconds: float) -> None:
        """Record a closed leaf (backward closure / custom region)."""
        frames = self._frames
        if frames:
            frames[-1][1] += seconds
            path = frames[-1][2] + ";" + name
        else:
            path = name
        self._add_sample(path, seconds)

    # -- TensorHook protocol ------------------------------------------- #
    def begin(self, name: str) -> None:
        frames = self._frames
        path = frames[-1][2] + ";" + name if frames else name
        frames.append([name, 0.0, path])

    def forward(self, name: str, seconds: float, args, out) -> None:
        self._close_frame(name, seconds)
        stat = self._stat(name, "op")
        stat.fwd_calls += 1
        stat.fwd_seconds += seconds
        op_flops, op_bytes = flops_mod.estimate(name, args, out)
        stat.flops += op_flops
        stat.nbytes += op_bytes

    def end(self, name: str, seconds: float) -> None:
        self._close_frame(name, seconds)
        stat = self._stat(name, "scope")
        stat.fwd_calls += 1
        stat.fwd_seconds += seconds

    def backward(self, name: str, seconds: float, node) -> None:
        self._leaf_sample(name, seconds)
        stat = self._stat(name, "op")
        stat.bwd_calls += 1
        stat.bwd_seconds += seconds
        op_flops, op_bytes = flops_mod.estimate_backward(name, node)
        stat.bwd_flops += op_flops
        stat.bwd_bytes += op_bytes

    def custom(self, name: str, seconds: float, flops: int = 0,
               nbytes: int = 0) -> None:
        self._leaf_sample(name, seconds)
        stat = self._stat(name, "custom")
        stat.fwd_calls += 1
        stat.fwd_seconds += seconds
        stat.flops += flops
        stat.nbytes += nbytes

    def alloc(self, nbytes: int) -> None:
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes

    def release(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    # -- aggregate views ----------------------------------------------- #
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.ops.values()
                   if stat.kind != "scope")

    def total_flops(self) -> int:
        return sum(stat.total_flops for stat in self.ops.values())

    def total_bytes(self) -> int:
        return sum(stat.total_bytes for stat in self.ops.values())

    def self_seconds(self, path: str) -> float:
        """Self time accumulated at exactly stack path ``path``."""
        entry = self.stacks.get(path)
        return entry[1] if entry else 0.0

    def collapsed(self) -> str:
        """Collapsed-stack export: ``a;b;c <self-microseconds>`` lines.

        Feed straight to ``flamegraph.pl`` (or any FlameGraph-format
        viewer); sample values are integer microseconds of self time.
        """
        lines = []
        for path in sorted(self.stacks):
            micros = int(round(self.stacks[path][1] * 1e6))
            if micros > 0:
                lines.append(f"{path} {micros}")
        return "\n".join(lines)

    # -- fork-pool propagation ----------------------------------------- #
    def snapshot(self) -> dict:
        """Picklable copy of the accumulated state."""
        return {"ops": {name: stat._row()
                        for name, stat in self.ops.items()},
                "stacks": {path: list(entry)
                           for path, entry in self.stacks.items()},
                "peak_live_bytes": self.peak_live_bytes}

    def diff(self, baseline: dict) -> dict:
        """Delta accumulated since ``baseline`` (a prior snapshot).

        Counts/seconds/FLOPs/bytes subtract; ``peak_live_bytes`` keeps
        the current watermark (max-merging reproduces this profiler).
        """
        base_ops = baseline["ops"]
        ops = {}
        for name, stat in self.ops.items():
            row = stat._row()
            base = base_ops.get(name)
            if base is not None:
                row = [row[0]] + [current - prior
                                  for current, prior in zip(row[1:], base[1:])]
            if any(row[1:]):
                ops[name] = row
        base_stacks = baseline["stacks"]
        stacks = {}
        for path, entry in self.stacks.items():
            base = base_stacks.get(path, (0, 0.0))
            count, seconds = entry[0] - base[0], entry[1] - base[1]
            if count or seconds:
                stacks[path] = [count, seconds]
        return {"ops": ops, "stacks": stacks,
                "peak_live_bytes": self.peak_live_bytes}

    def merge(self, payload: dict) -> None:
        """Merge a snapshot/delta: accumulators sum, the watermark maxes."""
        for name, row in payload.get("ops", {}).items():
            stat = self.ops.get(name)
            if stat is None:
                stat = self.ops[name] = OpStat(row[0])
            stat._merge_row(row)
        for path, (count, seconds) in payload.get("stacks", {}).items():
            entry = self.stacks.get(path)
            if entry is None:
                entry = self.stacks[path] = [0, 0.0]
            entry[0] += count
            entry[1] += seconds
        peak = payload.get("peak_live_bytes", 0)
        if peak > self.peak_live_bytes:
            self.peak_live_bytes = peak

    # -- metrics / file output ----------------------------------------- #
    def publish(self, metrics) -> None:
        """Fold aggregates into a :class:`MetricsRegistry`.

        Everything lands in ``timings`` (wall-clock territory, outside
        the schedule-invariance contract — batched decode changes op
        call counts and padded FLOP totals) except the peak-bytes
        watermark, which is a max-merged gauge.
        """
        for name, stat in self.ops.items():
            metrics.add_time(f"profile.{name}.time", stat.seconds)
            metrics.add_time(f"profile.{name}.calls", stat.calls)
            if stat.total_flops:
                metrics.add_time(f"profile.{name}.flops", stat.total_flops)
        if self.peak_live_bytes:
            metrics.gauge("profile.peak_live_bytes", self.peak_live_bytes)

    def records(self):
        """The profile-file records (see the module docstring schema)."""
        for name in sorted(self.ops):
            record = {"type": "op", "name": name}
            record.update(self.ops[name].to_dict())
            yield record
        for path in sorted(self.stacks):
            count, seconds = self.stacks[path]
            yield {"type": "stack", "path": path, "count": count,
                   "self_seconds": round(seconds, 9)}
        yield {"type": "memory", "peak_live_bytes": self.peak_live_bytes,
               "live_bytes": self.live_bytes}
        yield {"type": "summary", "total_seconds": round(self.total_seconds(), 9),
               "total_flops": self.total_flops(),
               "total_bytes": self.total_bytes()}

    def write(self, path) -> None:
        """Write the JSONL profile to ``path``."""
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# --------------------------------------------------------------------- #
# Named regions
# --------------------------------------------------------------------- #
class _Scope:
    """Times one named region through the active hook."""

    __slots__ = ("name", "_hook", "_start")

    def __init__(self, name: str, hook: TensorHook):
        self.name = name
        self._hook = hook

    def __enter__(self) -> "_Scope":
        self._hook.begin(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._hook.end(self.name, time.perf_counter() - self._start)


class _NullScope:
    """Shared reusable no-op scope."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SCOPE = _NullScope()


def scope(name: str):
    """``with profile.scope("epoch"): ...`` — a named profiler region.

    Nests in the op stack like any frame, so tensor ops executed inside
    attribute their inclusive time to it; the region's *self* time is
    whatever its body spent outside recorded ops (planner calls, env
    bookkeeping, numpy glue).  Returns a shared no-op when no profiler
    hook is installed — the disabled path allocates nothing.
    """
    hook = get_tensor_hook()
    if not hook.enabled:
        return _NULL_SCOPE
    return _Scope(name, hook)


# --------------------------------------------------------------------- #
# Scoped installation
# --------------------------------------------------------------------- #
class profiling:
    """``with profiling("out.jsonl") as prof:`` — scoped op profiling.

    Installs ``profiler`` (a fresh :class:`OpProfiler` by default) as the
    process-wide tensor hook for the block.  On exit the previous hook is
    restored, aggregates are published into the current tracer's metrics
    registry (when tracing is live), and — if ``path`` was given — the
    JSONL profile is written.  ``collapsed_path`` additionally writes the
    collapsed-stack file for flamegraph tooling.
    """

    def __init__(self, path=None, profiler: OpProfiler | None = None,
                 collapsed_path=None):
        self.profiler = profiler if profiler is not None else OpProfiler()
        self.path = path
        self.collapsed_path = collapsed_path
        self._previous: TensorHook | None = None

    def __enter__(self) -> OpProfiler:
        self._previous = set_tensor_hook(self.profiler)
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tensor_hook(self._previous)
        tracer = get_tracer()
        if tracer.enabled:
            self.profiler.publish(tracer.metrics)
        if self.path is not None:
            self.profiler.write(self.path)
        if self.collapsed_path is not None:
            with open(self.collapsed_path, "w") as handle:
                collapsed = self.profiler.collapsed()
                if collapsed:
                    handle.write(collapsed + "\n")


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #
def _format_count(value: float) -> str:
    """Human scale: 1234 -> '1.2k', 2.5e9 -> '2.5G'."""
    for threshold, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"),
                              (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return f"{value:g}"


def render_profile(profiler: OpProfiler, limit: int = 20) -> str:
    """Per-op summary table, ops sorted by total wall seconds."""
    rows = sorted(profiler.ops.items(),
                  key=lambda item: item[1].seconds, reverse=True)
    total = profiler.total_seconds()
    lines = ["Op profile (top by wall time)", "=" * 78,
             f"{'op':<24} {'kind':<6} {'calls':>9} {'fwd s':>9} "
             f"{'bwd s':>9} {'flops':>8} {'bytes':>8}"]
    for name, stat in rows[:limit]:
        lines.append(f"{name:<24} {stat.kind:<6} {stat.calls:>9} "
                     f"{stat.fwd_seconds:>9.4f} {stat.bwd_seconds:>9.4f} "
                     f"{_format_count(stat.total_flops):>8} "
                     f"{_format_count(stat.total_bytes):>8}")
    if len(rows) > limit:
        rest = sum(stat.seconds for _, stat in rows[limit:]
                   if stat.kind != "scope")
        lines.append(f"{'(other)':<24} {'':<6} {'':>9} {rest:>9.4f}")
    lines.append("-" * 78)
    lines.append(f"total op time {total:.4f}s   "
                 f"flops {_format_count(profiler.total_flops())}   "
                 f"bytes {_format_count(profiler.total_bytes())}   "
                 f"peak live {_format_count(profiler.peak_live_bytes)}B")
    return "\n".join(lines)


def render_stacks(profiler: OpProfiler, limit: int = 15) -> str:
    """Top stack paths by self time (the flamegraph's widest boxes)."""
    rows = sorted(profiler.stacks.items(),
                  key=lambda item: item[1][1], reverse=True)
    lines = ["Hot stacks (self time)", "=" * 78]
    for path, (count, seconds) in rows[:limit]:
        lines.append(f"{seconds:>9.4f}s {count:>8}x  {path}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _make_policy(args):
    import numpy as np

    from ..smore.policy import TASNetPolicy
    from ..smore.tasnet import TASNet, TASNetConfig

    config = TASNetConfig(d_model=args.d_model, num_heads=args.num_heads)
    net = TASNet(config, grid_nx=10, grid_ny=12,
                 rng=np.random.default_rng(args.seed))
    return TASNetPolicy(net)


def _solve_workload(args, profiler: OpProfiler) -> None:
    """Profile a batched TASNet solve on one generated instance."""
    import numpy as np

    from ..datasets import generate_instances
    from ..smore.solver import SMORESolver
    from ..tsptw import InsertionSolver

    instance = generate_instances(args.dataset, 1, seed=args.seed)[0]
    solver = SMORESolver(InsertionSolver(), _make_policy(args))
    with profiling(profiler=profiler):
        with scope("workload.solve"):
            solver.solve(instance, greedy=False,
                         rng=np.random.default_rng(args.seed),
                         num_samples=args.samples)


def _train_workload(args, profiler: OpProfiler) -> None:
    """Profile REINFORCE training iterations on generated instances."""
    from ..datasets import generate_instances
    from ..smore.train import TASNetTrainer, TrainingConfig
    from ..tsptw import InsertionSolver

    instances = generate_instances(args.dataset, 2, seed=args.seed)
    trainer = TASNetTrainer(
        _make_policy(args), InsertionSolver(),
        TrainingConfig(iterations=args.epochs, batch_size=1,
                       seed=args.seed))
    with profiling(profiler=profiler):
        with scope("workload.train"):
            trainer.train(instances)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.profile",
        description="Profile a smoke solve/training run at op granularity.")
    parser.add_argument("workload", choices=["solve", "train"],
                        help="what to profile")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSONL profile to PATH")
    parser.add_argument("--collapsed", default=None, metavar="PATH",
                        help="write collapsed stacks (flamegraph.pl "
                             "format) to PATH")
    parser.add_argument("--dataset", default="delivery")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--samples", type=int, default=4,
                        help="solve: rollouts per solve")
    parser.add_argument("--epochs", type=int, default=2,
                        help="train: REINFORCE epochs")
    parser.add_argument("--d-model", type=int, default=32)
    parser.add_argument("--num-heads", type=int, default=4)
    parser.add_argument("--top", type=int, default=20,
                        help="rows in the summary table")
    args = parser.parse_args(argv)

    profiler = OpProfiler()
    if args.workload == "solve":
        _solve_workload(args, profiler)
    else:
        _train_workload(args, profiler)

    print(render_profile(profiler, limit=args.top))
    print()
    print(render_stacks(profiler))
    if args.out:
        profiler.write(args.out)
        print(f"\nProfile written to {args.out}")
    if args.collapsed:
        with open(args.collapsed, "w") as handle:
            collapsed = profiler.collapsed()
            if collapsed:
                handle.write(collapsed + "\n")
        print(f"Collapsed stacks written to {args.collapsed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
