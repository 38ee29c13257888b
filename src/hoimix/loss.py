"""Mini-batch losses: region-level BCE for FS data, image-level BCE for WS data.

Both losses sum over classes. The region-level loss additionally averages
over the pairs in the batch. Probabilities are clamped away from {0, 1}
before any logarithm; gradients are evaluated on the clamped values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supervision import SupervisionTag

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossReport:
    value: float
    supervision: SupervisionTag

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"loss value must be finite and nonnegative, got {self.value}")


def _check_binary(y: np.ndarray, name: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"{name} must be binary (entries in {{0, 1}})")
    return y


def _bce(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def fs_loss(P: np.ndarray, Y: np.ndarray) -> tuple[LossReport, np.ndarray]:
    """Region-level loss: sum over classes of the pair-averaged BCE.

    Returns the report and dL/dP, with entries
    (p_ij - y_ij) / (N * p_ij * (1 - p_ij)) evaluated on clamped p.
    """
    P = np.asarray(P, dtype=np.float64)
    Y = _check_binary(Y, "Y")
    if P.shape != Y.shape or P.ndim != 2:
        raise ValueError(f"shape mismatch: P {P.shape} vs Y {Y.shape}")
    n = P.shape[0]
    p = np.clip(P, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = float(_bce(Y, p).sum() / n)
    grad = (p - Y) / (n * p * (1.0 - p))
    return LossReport(value=value, supervision=SupervisionTag.FS), grad


def ws_loss(p: np.ndarray, y: np.ndarray) -> tuple[LossReport, np.ndarray]:
    """Image-level loss: sum over classes of BCE against the label vector.

    Returns the report and dL/dp, with entries (p_j - y_j) / (p_j (1 - p_j))
    evaluated on clamped p.
    """
    p = np.asarray(p, dtype=np.float64)
    y = _check_binary(y, "y")
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: p {p.shape} vs y {y.shape}")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = float(_bce(y, pc).sum())
    grad = (pc - y) / (pc * (1.0 - pc))
    return LossReport(value=value, supervision=SupervisionTag.WS), grad
