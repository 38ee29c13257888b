"""Reference for the training step, as it ran before batches were checked
once when built.

Each iteration runs forward, then aggregate_image_level on the WS path,
then the losses as they were first written (targets checked on every call,
np.clip, one temporary per operation) on raw target arrays, then backward
with a WS upstream broadcast to the shape of P, then the momentum step.
`experiment.train` must reproduce its parameters, momentum buffers, step
count and logged losses byte for byte.

reference_forward and reference_backward are the model's two passes as
they were before both heads ran as one stack: a softmax and a product per
head, and no finiteness check. model.forward and model.backward must
return their bytes.
"""

from __future__ import annotations

import numpy as np

from hoimix.batching import BLOCK_ENTRIES, Batch, Schedule
from hoimix.experiment import ExperimentConfig, _batches, _blocks, _train_seeds
from hoimix.loss import PROB_CLAMP
from hoimix.model import ModelParams, backward, forward
from hoimix.optimizer import MomentumState, schedule_filter, step
from hoimix.supervision import TAGS
from hoimix.synth_world import World


def schedule_batches(world: World, schedule: Schedule, cfg: ExperimentConfig) -> list[Batch]:
    """Every batch of the schedule, in order, built a block at a time as
    train builds them."""
    firsts = range(0, len(schedule.images), BLOCK_ENTRIES)
    return [batch for block in _blocks(world, firsts, schedule, cfg) for batch in _batches(block)]


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def reference_forward(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, ...]:
    """(hidden, sigma_c, sigma_s, P) of an (..., N, D) stack, one head at a
    time; P may be non-finite."""
    hidden = features @ params.w_enc
    hidden += params.b_enc
    np.maximum(hidden, 0.0, out=hidden)
    raw_c = hidden @ params.w_cls
    raw_c += params.b_cls
    raw_s = hidden @ params.w_sel
    raw_s += params.b_sel
    sigma_c = _softmax(raw_c, axis=-1)
    sigma_s = _softmax(raw_s, axis=-2)
    return hidden, sigma_c, sigma_s, sigma_c * sigma_s


def reference_backward(
    params: ModelParams, features: np.ndarray, upstream: np.ndarray
) -> ModelParams:
    """The gradients of one (N, D) matrix, given dL/dP (N, C) or dL/dp (C,)."""
    hidden, sigma_c, sigma_s, _ = reference_forward(params, features)
    d_score_c = upstream * sigma_s
    d_score_c -= (d_score_c * sigma_c).sum(axis=1, keepdims=True)
    d_score_c *= sigma_c
    d_score_s = upstream * sigma_c
    d_score_s -= (d_score_s * sigma_s).sum(axis=0, keepdims=True)
    d_score_s *= sigma_s
    d_pre = d_score_c @ params.w_cls.T
    d_pre += d_score_s @ params.w_sel.T
    d_pre *= hidden > 0.0
    grads = params.zeros_like()
    np.matmul(features.T, d_pre, out=grads.w_enc)
    d_pre.sum(axis=0, out=grads.b_enc)
    np.matmul(hidden.T, d_score_c, out=grads.w_cls)
    d_score_c.sum(axis=0, out=grads.b_cls)
    np.matmul(hidden.T, d_score_s, out=grads.w_sel)
    d_score_s.sum(axis=0, out=grads.b_sel)
    return grads


def aggregate_image_level(P: np.ndarray) -> np.ndarray:
    """Sum P over the pair axis to get per-class image probabilities.

    Each column of sigma_s sums to 1 and sigma_c <= 1, so the sum is bounded
    by 1; the clip only removes float dust at the boundary.
    """
    return np.clip(P.sum(axis=0), 0.0, 1.0)


def _check_binary(y: np.ndarray, name: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{name} must be binary (entries in {{0, 1}})")
    return y


def _bce(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def reference_fs_loss(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    P = np.asarray(P, dtype=np.float64)
    Y = _check_binary(Y, "Y")
    if P.shape != Y.shape or P.ndim != 2:
        raise ValueError(f"shape mismatch: P {P.shape} vs Y {Y.shape}")
    n = P.shape[0]
    p = np.clip(P, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = float(_bce(Y, p).sum() / n)
    grad = (p - Y) / (n * p * (1.0 - p))
    return value, grad


def reference_ws_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    y = _check_binary(y, "y")
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: p {p.shape} vs y {y.shape}")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = float(_bce(y, pc).sum())
    grad = (pc - y) / (pc * (1.0 - pc))
    return value, grad


def reference_train(
    world: World,
    cfg: ExperimentConfig,
    schedule: Schedule,
) -> tuple[ModelParams, MomentumState, list[tuple[int, str, float]]]:
    """Train from a fresh init over the schedule `train` chose for the same
    world and config; returns the params, the momentum state and the
    logged (iteration, tag, loss) of every iteration that stepped."""
    batches = schedule_batches(world, schedule, cfg)
    init_seed, _, _ = _train_seeds(cfg.train_seed)
    params = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes, init_seed)
    state = MomentumState.zeros(params, cfg.optimizer.policy)
    losses = []
    for t in range(cfg.iterations):
        tag = TAGS[world.supervision[schedule.images[t % len(schedule.images), 0]]]
        if not schedule_filter(tag, t, cfg.optimizer):
            continue
        batch = batches[t % len(batches)]
        scores = forward(params, batch.features)
        if tag.region_level:
            value, upstream = reference_fs_loss(scores.P, np.array(batch.targets))
        else:
            value, upstream = reference_ws_loss(
                aggregate_image_level(scores.P), np.array(batch.targets)
            )
            upstream = np.broadcast_to(upstream, scores.P.shape)
        step(params, backward(params, scores, upstream), tag, state, cfg.optimizer)
        losses.append((t, tag.value, value))
    return params, state, losses
