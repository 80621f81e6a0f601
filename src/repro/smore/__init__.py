"""``repro.smore`` — the paper's primary contribution.

SMORE (Urban Sensing for Multi-destination Workers via Deep REinforcement
learning) solves USMDW in two steps: candidate assignment initialisation
with a pre-trained TSPTW solver, then reinforcement-learning-based
iterative selection with TASNet, the Two-stage Assignment Selection
Network.

Typical use::

    from repro.smore import SMORESolver, TASNet, TASNetConfig, TASNetPolicy
    from repro.tsptw import InsertionSolver

    net = TASNet(TASNetConfig(), grid_nx=10, grid_ny=12)
    solver = SMORESolver(InsertionSolver(), TASNetPolicy(net))
    solution = solver.solve(instance)
"""

from .batch import (
    BatchAdmissionError,
    BatchedEpisodeRunner,
    BatchFull,
    DeadlineExpired,
    EpisodeResult,
    MultiInstanceRunner,
)
from .candidates import CandidateTable
from .critic import CriticNetwork, critic_features
from .dynamic import (
    DynamicResult,
    DynamicSelectionEnv,
    DynamicSelectionState,
)
from .env import SelectionEnv
from .heuristics import coverage_incentive_ratio, soft_mask
from .policy import (
    ActionRecord,
    FlatSelectionNet,
    FlatSelectionPolicy,
    TASNetPolicy,
    sensing_task_features,
    worker_travel_grid,
)
from .solver import (
    GreedySelectionRule,
    RatioSelectionRule,
    SMORESolver,
    SolveBatch,
    run_episode,
)
from .state import AssignmentState, SelectionState, WorkerAssignment
from .tasnet import (
    SensingTaskEncoder,
    TASNet,
    TASNetConfig,
    TaskSelection,
    WorkerEncoder,
    WorkerSelection,
)
from .train import TASNetTrainer, TrainingConfig, imitation_pretrain

__all__ = [
    "BatchedEpisodeRunner", "EpisodeResult", "MultiInstanceRunner",
    "BatchAdmissionError", "BatchFull", "DeadlineExpired",
    "CandidateTable",
    "SelectionEnv",
    "DynamicSelectionEnv", "DynamicSelectionState", "DynamicResult",
    "AssignmentState", "SelectionState", "WorkerAssignment",
    "coverage_incentive_ratio", "soft_mask",
    "TASNet", "TASNetConfig", "WorkerEncoder", "SensingTaskEncoder",
    "WorkerSelection", "TaskSelection",
    "TASNetPolicy", "FlatSelectionNet", "FlatSelectionPolicy", "ActionRecord",
    "worker_travel_grid", "sensing_task_features",
    "CriticNetwork", "critic_features",
    "SMORESolver", "SolveBatch", "GreedySelectionRule", "RatioSelectionRule",
    "run_episode",
    "TASNetTrainer", "TrainingConfig", "imitation_pretrain",
]
