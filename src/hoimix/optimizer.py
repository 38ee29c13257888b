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
alpha_fs into z_fs, and WS batches with alpha_ws into z_ws. The buffers are
the rows of one (k, n) array over the flat parameter vector: two rows under
Independent, one row that both names view under every other policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config_fields import check_fields, ranged
from .model import ModelParams
from .supervision import SupervisionTag


class MomentumPolicy(str, Enum):
    SHARED = "Shared"
    INDEPENDENT = "Independent"
    SEQUENCE_FS_FIRST = "SequenceFSFirst"
    SEQUENCE_WS_FIRST = "SequenceWSFirst"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OptimizerConfig:
    alpha_ws: float = ranged(0.012, lambda x: x > 0.0, "positive")
    alpha_fs: float = ranged(0.05, lambda x: x > 0.0, "positive")
    beta: float = ranged(0.9, lambda x: 0.0 <= x < 1.0, "in [0, 1)")
    policy: MomentumPolicy = MomentumPolicy.INDEPENDENT
    sequence_switch_iteration: int = ranged(0, lambda x: x >= 0, ">= 0")

    def __post_init__(self) -> None:
        check_fields(self)


class MomentumState:
    """Per-supervision gradient-history buffers plus a step counter.

    `buffers` is one (k, n) float64 array over the flat parameter vector:
    under Independent row 0 takes WS steps and row 1 region-level ones
    (k = 2); under every other policy every step goes into the one row
    (k = 1). z_ws and z_fs are ModelParams views of their rows, so with one
    row they are the same view.
    """

    def __init__(self, buffers: np.ndarray, dims: tuple[int, int, int], t: int = 0) -> None:
        self.buffers = buffers
        rows = [ModelParams.over(row, dims) for row in buffers]
        self.z_ws, self.z_fs = rows[0], rows[-1]
        self.t = t

    def __reduce__(self):
        # rebuild z_ws and z_fs as views of the unpickled buffers
        return (MomentumState, (self.buffers, self.z_ws.dims, self.t))

    @classmethod
    def zeros(cls, params: ModelParams, policy: MomentumPolicy) -> "MomentumState":
        rows = 2 if policy == MomentumPolicy.INDEPENDENT else 1
        return cls(np.zeros((rows, params.flat.size)), params.dims)

    @property
    def shared_buffer(self) -> bool:
        return len(self.buffers) == 1


def step(
    params: ModelParams,
    grads: ModelParams,
    tag: SupervisionTag,
    state: MomentumState,
    cfg: OptimizerConfig,
) -> tuple[ModelParams, MomentumState]:
    """Apply one momentum update in place; returns the mutated pair.

    `grads` has the dims of `params`. The update runs once over the flat
    vectors, z *= beta; z += alpha * g; w -= z, which rounds exactly like
    z = beta * z + alpha * g per tensor.

    Single-writer contract: exactly one training loop may own (params, state).
    """
    if grads.dims != params.dims:
        raise ValueError(f"gradient dims {grads.dims} do not match parameter dims {params.dims}")
    alpha, z = (cfg.alpha_fs, state.z_fs.flat) if tag.region_level else (cfg.alpha_ws, state.z_ws.flat)
    z *= cfg.beta
    z += alpha * grads.flat
    params.flat -= z
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
    """Rebuild a MomentumState: rows ws and fs under Independent, ws alone
    under every other policy."""
    keys = ("ws", "fs") if policy == MomentumPolicy.INDEPENDENT else ("ws",)
    rows = [
        ModelParams(**{name: arrays[f"momentum/{key}/{name}"] for name in ModelParams.FIELDS})
        for key in keys
    ]
    if rows[-1].dims != rows[0].dims:
        raise ValueError(f"momentum buffer dims differ: ws {rows[0].dims}, fs {rows[-1].dims}")
    return MomentumState(np.stack([row.flat for row in rows]), rows[0].dims, t)
