"""Mixed-supervision human-object interaction detection, desk scale.

A two-branch score factorization over candidate human-object pairs, trained
from any mixture of region-level, image-level, and unlabeled data:
supervision-keyed momentum buffers, cross-image hard-negative synthesis,
a mixed region/image-level BCE loss, pseudo-labeling, and IoU-matched mAP
evaluation, all driven by a reproducible synthetic detection world.
"""

from .batching import (
    MiniBatch,
    PairGrid,
    Schedule,
    ScheduleEntry,
    batch_schedule,
    element_swap,
    make_fs_targets,
    make_ws_targets,
    pair_grids,
)
from .evaluation import (
    EvalReport,
    EvalSet,
    Predictions,
    evaluate,
    prepare_eval_set,
)
from .experiment import (
    ExperimentConfig,
    FitSpec,
    fit,
    run_class_split,
    run_experiment,
    run_many,
    run_ratio_sweep,
    train,
)
from .geometry import BoxPairs, iou, pair_iou
from .loss import LossReport, fs_loss, ws_loss
from .model import ModelParams, ScoreMatrix, backward, forward, infer_pairs
from .optimizer import MomentumPolicy, MomentumState, OptimizerConfig, schedule_filter, step
from .pseudo_label import iterate_cycles, us_to_pseudo_fs, ws_to_pseudo_fs
from .supervision import SupervisionTag
from .synth_world import (
    DetectionArrays,
    SynthImage,
    TripletArrays,
    WorldConfig,
    generate_eval_images,
    generate_world,
    rare_classes,
    split_supervision,
)

__version__ = "0.1.0"

__all__ = [
    "BoxPairs",
    "DetectionArrays",
    "EvalReport",
    "EvalSet",
    "ExperimentConfig",
    "FitSpec",
    "LossReport",
    "MiniBatch",
    "ModelParams",
    "MomentumPolicy",
    "MomentumState",
    "OptimizerConfig",
    "PairGrid",
    "Predictions",
    "Schedule",
    "ScheduleEntry",
    "ScoreMatrix",
    "SupervisionTag",
    "SynthImage",
    "TripletArrays",
    "WorldConfig",
    "backward",
    "batch_schedule",
    "element_swap",
    "evaluate",
    "fit",
    "forward",
    "fs_loss",
    "generate_eval_images",
    "generate_world",
    "infer_pairs",
    "iou",
    "iterate_cycles",
    "make_fs_targets",
    "make_ws_targets",
    "pair_grids",
    "pair_iou",
    "prepare_eval_set",
    "rare_classes",
    "run_class_split",
    "run_experiment",
    "run_many",
    "run_ratio_sweep",
    "schedule_filter",
    "split_supervision",
    "step",
    "train",
    "us_to_pseudo_fs",
    "ws_loss",
    "ws_to_pseudo_fs",
]
