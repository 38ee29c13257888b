"""Mini-batch losses: region-level BCE for FS data, image-level BCE for WS data.

Both losses sum over classes. The region-level loss additionally averages
over the pairs in the batch. Probabilities are clamped away from {0, 1}
before any logarithm; gradients are evaluated on the clamped values.

The losses are array functions: their targets must be binary (entries in
{0, 1}), which is not checked here. Training passes the targets of the
batches that batching.prepare_block builds, binary by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossReport:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"loss value must be finite and nonnegative, got {self.value}")


def _clamp(p: np.ndarray) -> np.ndarray:
    """p clamped to [PROB_CLAMP, 1 - PROB_CLAMP] in a new array: the bits of
    np.clip, NaN included, without its Python-level dispatch."""
    out = np.maximum(p, PROB_CLAMP)
    return np.minimum(out, 1.0 - PROB_CLAMP, out=out)


def _bce_sum(y: np.ndarray, p: np.ndarray) -> float:
    """Sum of -(y log p + (1 - y) log1p(-p)) over all entries.

    y is binary and p is clamped inside (0, 1), so each term is log p or
    log1p(-p), both strictly negative, and picking it is bit-equal to
    weighting both by y and 1 - y; negating the sum rounds exactly like
    summing the negated terms.
    """
    return -np.where(y, np.log(p), np.log1p(-p)).sum()


def fs_loss(P: np.ndarray, Y: np.ndarray) -> tuple[LossReport, np.ndarray]:
    """Region-level loss: sum over classes of the pair-averaged BCE.

    Y is the binary (N, C) target matrix; a shape mismatch raises
    ValueError. Returns the report and dL/dP, with entries
    (p_ij - y_ij) / (N * p_ij * (1 - p_ij)) evaluated on clamped p.
    """
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if P.shape != Y.shape or P.ndim != 2:
        raise ValueError(f"shape mismatch: P {P.shape} vs Y {Y.shape}")
    n = P.shape[0]
    p = _clamp(P)
    value = float(_bce_sum(Y, p) / n)
    denominator = n * p
    denominator *= 1.0 - p
    grad = p - Y
    grad /= denominator
    return LossReport(value=value), grad


def ws_loss(p: np.ndarray, y: np.ndarray) -> tuple[LossReport, np.ndarray]:
    """Image-level loss: sum over classes of BCE against the label vector.

    y is the binary (C,) label vector; a shape mismatch raises ValueError.
    p is clamped here, so it may be the unclipped sum of P over pairs.
    Returns the report and dL/dp, with entries
    (p_j - y_j) / (p_j (1 - p_j)) evaluated on clamped p.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: p {p.shape} vs y {y.shape}")
    pc = _clamp(p)
    value = float(_bce_sum(y, pc))
    denominator = 1.0 - pc
    denominator *= pc
    grad = pc - y
    grad /= denominator
    return LossReport(value=value), grad
