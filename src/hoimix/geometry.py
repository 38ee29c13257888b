"""Axis-aligned box arithmetic shared by target construction and evaluation.

Coordinates are continuous reals on the synthetic canvas; boxes are in
(x_min, y_min, x_max, y_max) format and must have strictly positive area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max}) has no positive area"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    @classmethod
    def from_list(cls, coords) -> "Box":
        x0, y0, x1, y1 = coords
        return cls(float(x0), float(y0), float(x1), float(y1))


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; symmetric, in [0, 1]."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    intersection = ix * iy
    union = a.area + b.area - intersection
    return intersection / union


def pair_iou(pair_pred: tuple[Box, Box], pair_gt: tuple[Box, Box]) -> float:
    """Joint overlap of a (human, object) box pair against a ground-truth pair.

    Both boxes must clear a threshold simultaneously, so the binding score is
    the minimum of the two component IoUs: pair_iou >= t iff both IoUs >= t.
    """
    human_pred, object_pred = pair_pred
    human_gt, object_gt = pair_gt
    return min(iou(human_pred, human_gt), iou(object_pred, object_gt))


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """(n, 4) float64 array of (x_min, y_min, x_max, y_max) rows."""
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """iou of the boxes in matching rows of a and b, which broadcast.

    Uses iou's operations in iou's order, so each entry equals iou of the
    two boxes bit for bit; disjoint or touching boxes give 0.0, never -0.0.
    """
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    intersection = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return intersection / (area_a + area_b - intersection)


def pair_iou_matrix(
    human_a: np.ndarray, object_a: np.ndarray, human_b: np.ndarray, object_b: np.ndarray
) -> np.ndarray:
    """pair_iou of every pair in a against every pair in b.

    Box arguments are (n, 4) and (m, 4) arrays as box_array builds them; the
    result is (n, m), and each entry equals pair_iou of the two pairs bit
    for bit.
    """
    return np.minimum(
        iou_rows(human_a[:, None, :], human_b[None, :, :]),
        iou_rows(object_a[:, None, :], object_b[None, :, :]),
    )
