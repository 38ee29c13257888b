"""Mixed-supervision human-object interaction detection, desk scale.

A two-branch score factorization over candidate human-object pairs, trained
from any mixture of region-level, image-level, and unlabeled data:
supervision-keyed momentum buffers, cross-image hard-negative synthesis,
a mixed region/image-level BCE loss, pseudo-labeling, and IoU-matched mAP
evaluation, all driven by a reproducible synthetic detection world.
"""

from .batching import (
    HumanObjectPair,
    MiniBatch,
    Schedule,
    ScheduleEntry,
    batch_schedule,
    build_pairs,
    element_swap,
    make_fs_targets,
    make_ws_targets,
)
from .evaluation import BoxPairs, EvalReport, Predictions, evaluate, match_and_ap
from .experiment import (
    ExperimentConfig,
    fit,
    run_class_split,
    run_experiment,
    run_ratio_sweep,
    train,
)
from .geometry import Box, iou, pair_iou, pair_iou_matrix
from .loss import LossReport, fs_loss, ws_loss
from .model import ModelParams, ScoreMatrix, aggregate_image_level, backward, forward, infer_pairs
from .optimizer import MomentumPolicy, MomentumState, OptimizerConfig, schedule_filter, step
from .pseudo_label import iterate_cycles, us_to_pseudo_fs, ws_to_pseudo_fs
from .supervision import SupervisionTag
from .synth_world import (
    Detection,
    GroundTruthTriplet,
    SynthImage,
    WorldConfig,
    generate_eval_images,
    generate_world,
    pair_features,
    rare_classes,
    split_supervision,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxPairs",
    "Detection",
    "EvalReport",
    "ExperimentConfig",
    "GroundTruthTriplet",
    "HumanObjectPair",
    "LossReport",
    "MiniBatch",
    "ModelParams",
    "MomentumPolicy",
    "MomentumState",
    "OptimizerConfig",
    "Predictions",
    "Schedule",
    "ScheduleEntry",
    "ScoreMatrix",
    "SupervisionTag",
    "SynthImage",
    "WorldConfig",
    "aggregate_image_level",
    "backward",
    "batch_schedule",
    "build_pairs",
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
    "match_and_ap",
    "pair_features",
    "pair_iou",
    "pair_iou_matrix",
    "rare_classes",
    "run_class_split",
    "run_experiment",
    "run_ratio_sweep",
    "schedule_filter",
    "split_supervision",
    "step",
    "train",
    "us_to_pseudo_fs",
    "ws_loss",
    "ws_to_pseudo_fs",
]
