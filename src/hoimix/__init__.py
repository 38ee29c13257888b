"""Mixed-supervision human-object interaction detection, desk scale.

A two-branch score factorization over candidate human-object pairs, trained
from any mixture of region-level, image-level, and unlabeled data:
supervision-keyed momentum buffers, cross-image hard-negative synthesis,
a mixed region/image-level BCE loss, pseudo-labeling, and IoU-matched mAP
evaluation, all driven by a reproducible synthetic detection world.
"""

from .experiment import (
    ExperimentConfig,
    load_config,
    run_class_split,
    run_experiment,
    run_ratio_sweep,
)
from .pseudo_label import iterate_cycles

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "iterate_cycles",
    "load_config",
    "run_class_split",
    "run_experiment",
    "run_ratio_sweep",
]
