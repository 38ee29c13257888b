"""Momentum SGD with pluggable momentum policy.

The update rule is classical heavy-ball momentum: the buffer is refreshed
from the gradient first, then subtracted from the weights,

    z = beta * z + alpha * grad
    w = w - z

Policies differ in how gradient history is recorded:

* Shared: one buffer receives updates from every batch (baseline).
* Independent: two buffers keyed by supervision type; a WS step never
  touches the FS buffer and vice versa. Weights stay shared.
* SequenceFSFirst / SequenceWSFirst: shared buffer, but one supervision
  type is withheld until a switch iteration (see schedule_filter).

In every policy, region-level batches (FS, and pseudo-labeled US) step with
alpha_fs into z_fs, and WS batches with alpha_ws into z_ws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ModelParams
from .supervision import SupervisionTag


class MomentumPolicy(str, Enum):
    SHARED = "Shared"
    INDEPENDENT = "Independent"
    SEQUENCE_FS_FIRST = "SequenceFSFirst"
    SEQUENCE_WS_FIRST = "SequenceWSFirst"

    def __str__(self) -> str:
        return self.value


_SEQUENCE_POLICIES = (MomentumPolicy.SEQUENCE_FS_FIRST, MomentumPolicy.SEQUENCE_WS_FIRST)


@dataclass(frozen=True)
class OptimizerConfig:
    alpha_ws: float = 1e-3
    alpha_fs: float = 1e-4
    beta: float = 0.9
    policy: MomentumPolicy = MomentumPolicy.INDEPENDENT
    sequence_switch_iteration: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.alpha_ws <= 0.0 or self.alpha_fs <= 0.0:
            raise ValueError("step sizes must be positive")
        if self.policy in _SEQUENCE_POLICIES and self.sequence_switch_iteration < 0:
            raise ValueError("sequence_switch_iteration must be nonnegative")


@dataclass(eq=False)
class MomentumState:
    """Per-supervision gradient-history buffers plus a step counter.

    Under non-Independent policies z_ws and z_fs are the same dict object,
    so both names address one logical buffer.
    """

    z_ws: dict = field(default_factory=dict)
    z_fs: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams, policy: MomentumPolicy) -> "MomentumState":
        z = {name: np.zeros_like(arr) for name, arr in params.items()}
        if policy == MomentumPolicy.INDEPENDENT:
            return cls(z_ws=z, z_fs={name: np.zeros_like(arr) for name, arr in params.items()})
        return cls(z_ws=z, z_fs=z)

    @property
    def shared_buffer(self) -> bool:
        return self.z_ws is self.z_fs


def step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    tag: SupervisionTag,
    state: MomentumState,
    cfg: OptimizerConfig,
) -> tuple[ModelParams, MomentumState]:
    """Apply one momentum update in place; returns the mutated pair.

    Single-writer contract: exactly one training loop may own (params, state).
    """
    alpha, z = (cfg.alpha_fs, state.z_fs) if tag.region_level else (cfg.alpha_ws, state.z_ws)
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name} {w.shape}")
        z_new = cfg.beta * z[name] + alpha * g
        z[name] = z_new
        w -= z_new
    state.t += 1
    return params, state


def schedule_filter(tag: SupervisionTag, iteration: int, cfg: OptimizerConfig) -> bool:
    """Accept or skip a batch under sequence-training schedules.

    SequenceFSFirst withholds WS batches until the switch iteration;
    SequenceWSFirst mirrors. Other policies accept everything.
    """
    if cfg.policy == MomentumPolicy.SEQUENCE_FS_FIRST:
        return not (tag == SupervisionTag.WS and iteration < cfg.sequence_switch_iteration)
    if cfg.policy == MomentumPolicy.SEQUENCE_WS_FIRST:
        return not (tag == SupervisionTag.FS and iteration < cfg.sequence_switch_iteration)
    return True


def state_to_arrays(state: MomentumState) -> dict[str, np.ndarray]:
    """Flatten momentum buffers for checkpointing."""
    arrays = {f"momentum/ws/{name}": arr for name, arr in state.z_ws.items()}
    if not state.shared_buffer:
        arrays.update({f"momentum/fs/{name}": arr for name, arr in state.z_fs.items()})
    return arrays


def arrays_to_state(arrays: dict[str, np.ndarray], t: int, policy: MomentumPolicy) -> MomentumState:
    """Rebuild a MomentumState, restoring buffer aliasing for shared policies."""
    z_ws = {
        key.split("/", 2)[2]: arr.copy()
        for key, arr in arrays.items()
        if key.startswith("momentum/ws/")
    }
    if policy == MomentumPolicy.INDEPENDENT:
        z_fs = {
            key.split("/", 2)[2]: arr.copy()
            for key, arr in arrays.items()
            if key.startswith("momentum/fs/")
        }
    else:
        z_fs = z_ws
    return MomentumState(z_ws=z_ws, z_fs=z_fs, t=t)
