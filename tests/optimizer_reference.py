"""Per-tensor reference for the momentum update of hoimix.optimizer.

The reference is the original implementation: each buffer is a dict of
arrays, one per parameter tensor, and every step refreshes each of them as
z = beta * z + alpha * g before subtracting it from the weights. The flat
fused step must reproduce its weights and buffers bit for bit.
"""

from __future__ import annotations

import numpy as np

from hoimix.optimizer import MomentumPolicy, OptimizerConfig
from hoimix.supervision import SupervisionTag


class ReferenceOptimizer:
    """Weights and momentum buffers as dicts of separately stored arrays."""

    def __init__(self, params, cfg: OptimizerConfig) -> None:
        self.cfg = cfg
        self.weights = {name: arr.copy() for name, arr in params.items()}
        self.z_ws = {name: np.zeros_like(arr) for name, arr in params.items()}
        if cfg.policy == MomentumPolicy.INDEPENDENT:
            self.z_fs = {name: np.zeros_like(arr) for name, arr in params.items()}
        else:
            self.z_fs = self.z_ws

    def step(self, grads, tag: SupervisionTag) -> None:
        cfg = self.cfg
        alpha, z = (cfg.alpha_fs, self.z_fs) if tag.region_level else (cfg.alpha_ws, self.z_ws)
        for name, w in self.weights.items():
            z[name] = cfg.beta * z[name] + alpha * getattr(grads, name)
            w -= z[name]
