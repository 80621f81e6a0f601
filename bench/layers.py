"""Which public callables the traced run wraps, and the per-layer metrics.

Layers are named by module.  Every wrapped callable has a *role*; the
per-layer metrics are sums over the spans of a role.  Times are seconds
per operation of the workload (one solve, one training iteration, one
request, one sharded solve) unless the name says otherwise; ``_s`` is
self time except where noted as inclusive.
"""

from __future__ import annotations

from collections import defaultdict

from .trace import Target

NN_KERNELS = ("linear", "layernorm", "ffn", "attention", "pointer_tail",
              "masked_mean", "chain")

#: Roles whose spans are decode loops (their self time is loop overhead).
DECODE_LOOP = "decode.loop"


def module_of(target: Target) -> str:
    """The module defining a target's owner: the layer it belongs to."""
    owner = target.owner
    return owner.__module__ if isinstance(owner, type) else owner.__name__


def _target(owner, attr: str, units=None) -> Target:
    if isinstance(owner, type):
        prefix = f"{owner.__module__}.{owner.__qualname__}"
    else:
        prefix = owner.__name__
    return Target(owner, attr, f"{prefix}.{attr}", units)


def layer_targets() -> list[tuple[str, Target]]:
    """(role, target) for every callable the traced run wraps."""
    import repro.datasets
    import repro.datasets.synthetic
    import repro.nn
    import repro.shard.solve
    import repro.smore.solver
    import repro.smore.train
    from repro.core.coverage import CoverageState
    from repro.nn import backend as nn_backend
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.parallel import PersistentPool
    from repro.serve.engine import WarmEngine
    from repro.smore.batch import BatchedEpisodeRunner, MultiInstanceRunner
    from repro.smore.candidates import CandidateTable
    from repro.smore.critic import CriticNetwork
    from repro.smore.env import SelectionEnv
    from repro.smore.policy import TASNetPolicy
    from repro.smore.solver import SMORESolver, SolveBatch
    from repro.smore.train import TASNetTrainer
    from repro.tsptw.insertion import InsertionSolver

    backend_cls = type(nn_backend.get_backend())
    pairs = [
        ("datasets.generate", _target(repro.datasets, "generate_instances")),
        ("datasets.generate",
         _target(repro.datasets.synthetic, "make_city_instance")),
        ("candidates.init", _target(CandidateTable, "initialize")),
        ("candidates.recompute", _target(CandidateTable, "recompute_worker")),
        ("planner.sweep", _target(InsertionSolver, "plan_insertions_many")),
        ("planner.plan", _target(InsertionSolver, "plan")),
        ("planner.plan", _target(InsertionSolver, "plan_with_insertion")),
        ("policy.encode", _target(TASNetPolicy, "begin_episode")),
        ("policy.encode", _target(TASNetPolicy, "begin_episodes")),
        ("policy.forward", _target(TASNetPolicy, "act",
                                   units=lambda args, kwargs: 1)),
        ("policy.forward", _target(TASNetPolicy, "act_batch",
                                   units=lambda args, kwargs: len(args[1]))),
        ("nn.backward", _target(Tensor, "backward")),
        ("nn.optim", _target(Adam, "step")),
        ("nn.optim", _target(repro.nn, "clip_grad_norm")),
        ("env.reset", _target(SelectionEnv, "reset")),
        ("env.step", _target(SelectionEnv, "step")),
        ("env.step_state", _target(SelectionEnv, "step_state")),
        ("coverage.gain", _target(CoverageState, "gain")),
        ("coverage.gain", _target(CoverageState, "gain_many")),
        (DECODE_LOOP, _target(repro.smore.solver, "run_episode")),
        (DECODE_LOOP, _target(repro.smore.train, "run_episode")),
        (DECODE_LOOP, _target(BatchedEpisodeRunner, "run")),
        (DECODE_LOOP, _target(MultiInstanceRunner, "run")),
        ("solve", _target(SMORESolver, "solve")),
        ("solve", _target(SolveBatch, "execute")),
        ("train.iteration", _target(TASNetTrainer, "train_iteration")),
        ("train.critic", _target(CriticNetwork, "values")),
        ("serve.execute", _target(WarmEngine, "execute")),
        ("shard.partition",
         _target(repro.shard.solve, "partition_instance")),
        ("shard.carve", _target(repro.shard.solve, "sub_instance")),
        ("parallel.share", _target(PersistentPool, "share_arrays")),
        ("parallel.map", _target(PersistentPool, "map")),
    ]
    pairs += [(f"nn.{kernel}", _target(backend_cls, kernel))
              for kernel in NN_KERNELS]
    return pairs


def layer_table(totals: dict, modules: dict) -> dict:
    """Per layer (module): span count, inclusive and self seconds."""
    table: dict[str, dict] = {}
    for name, (count, total, self_s, _) in sorted(totals.items()):
        row = table.setdefault(modules[name], {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "spans": {}})
        row["count"] += count
        row["total_s"] += total
        row["self_s"] += self_s
        row["spans"][name] = {"count": count, "total_s": total,
                              "self_s": self_s}
    return table


def span_metrics(totals: dict, roles: dict, ops: int) -> dict:
    """The per-layer metrics derived from span totals, per operation."""
    by_role: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for name, row in totals.items():
        acc = by_role[roles.get(name, "?")]
        for i, value in enumerate(row):
            acc[i] += value

    def count(role):
        return by_role[role][0] / ops

    def incl(role):
        return by_role[role][1] / ops

    def self_s(role):
        return by_role[role][2] / ops

    forwards = by_role["policy.forward"]
    metrics = {
        "candidates.init_s": self_s("candidates.init"),
        "candidates.init_calls": count("candidates.init"),
        "candidates.recompute_s": self_s("candidates.recompute"),
        "candidates.recompute_calls": count("candidates.recompute"),
        "planner.sweep_s": self_s("planner.sweep"),
        "planner.sweep_calls": count("planner.sweep"),
        "planner.plan_s": self_s("planner.plan"),
        "planner.plan_calls": count("planner.plan"),
        "policy.encode_s": self_s("policy.encode"),
        "policy.encode_calls": count("policy.encode"),
        "policy.forward_s": self_s("policy.forward"),
        "policy.forward_calls": count("policy.forward"),
        "policy.rows_per_forward": (forwards[3] / forwards[0]
                                    if forwards[0] else 0.0),
        "nn.kernel_calls": sum(count(f"nn.{k}") for k in NN_KERNELS),
        "nn.backward_s": incl("nn.backward"),
        "nn.optim_s": incl("nn.optim"),
        "env.reset_s": self_s("env.reset"),
        "env.resets": count("env.reset"),
        "env.step_s": self_s("env.step") + self_s("env.step_state"),
        "env.steps": count("env.step_state"),
        "coverage.gain_s": self_s("coverage.gain"),
        "coverage.gain_calls": count("coverage.gain"),
        "decode.loop_s": incl(DECODE_LOOP),
        "decode.self_s": self_s(DECODE_LOOP),
        "solve.self_s": self_s("solve"),
        # Decode loops run only inside train_iteration when it runs at all.
        "train.rollouts_s": (incl(DECODE_LOOP)
                             if by_role["train.iteration"][0] else 0.0),
        "train.critic_s": incl("train.critic"),
        "train.self_s": self_s("train.iteration"),
        "serve.execute_s": incl("serve.execute"),
        "serve.batches": count("serve.execute"),
        "shard.partition_s": self_s("shard.partition"),
        "shard.carve_s": self_s("shard.carve"),
        "parallel.share_s": self_s("parallel.share"),
        "parallel.map_s": incl("parallel.map"),
        "parallel.map_calls": count("parallel.map"),
    }
    for kernel in NN_KERNELS:
        metrics[f"nn.{kernel}_s"] = self_s(f"nn.{kernel}")
    return metrics


def self_time_total(totals: dict) -> float:
    """Sum of self seconds over every span (all threads)."""
    return sum(row[2] for row in totals.values())
