"""Axis-aligned box arithmetic shared by target construction and evaluation.

Coordinates are continuous reals on the synthetic canvas; a box is a row
(x_min, y_min, x_max, y_max) with strictly positive area, which the arrays
that hold boxes check when they are built. `pair_hits` is the HICO-DET rule
that matches pairs to the ground truth of their own image, for the training
targets and for mAP alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MATCH_IOU = 0.5
MATCH_CHUNK = 64  # ground-truth rows pair_hits matches at a time, to bound its temporaries


@dataclass(eq=False)
class BoxPairs:
    """n (human, object) box pairs and the image each belongs to."""

    image_ids: np.ndarray     # (n,) int
    human_boxes: np.ndarray   # (n, 4) rows of (x_min, y_min, x_max, y_max)
    object_boxes: np.ndarray  # (n, 4)

    def __len__(self) -> int:
        return len(self.image_ids)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two box rows; symmetric, in [0, 1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    intersection = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - intersection
    return intersection / union


def pair_iou(
    pair_pred: tuple[Sequence[float], Sequence[float]],
    pair_gt: tuple[Sequence[float], Sequence[float]],
) -> float:
    """Joint overlap of a (human, object) box pair against a ground-truth pair.

    Both boxes must clear a threshold simultaneously, so the binding score is
    the minimum of the two component IoUs: pair_iou >= t iff both IoUs >= t.
    """
    human_pred, object_pred = pair_pred
    human_gt, object_gt = pair_gt
    return min(iou(human_pred, human_gt), iou(object_pred, object_gt))


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


def pair_hits(pairs: BoxPairs, gt: BoxPairs, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs row, gt index, pair IoU) of every same-image pair and
    ground-truth pair whose pair IoU (see pair_iou) reaches the threshold,
    by gt index, then by pairs row. Either side's image ids may be unsorted.
    """
    order = np.argsort(pairs.image_ids, kind="stable")
    sorted_ids = pairs.image_ids[order]
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for start in range(0, len(gt), MATCH_CHUNK):
        # every (pair row, gt row) of one image, for this chunk's gt rows
        cols = np.arange(start, min(start + MATCH_CHUNK, len(gt)))
        first = np.searchsorted(sorted_ids, gt.image_ids[cols], side="left")
        n = np.searchsorted(sorted_ids, gt.image_ids[cols], side="right") - first
        col = np.repeat(cols, n)
        row = order[np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)]
        overlap = np.minimum(
            iou_rows(pairs.human_boxes[row], gt.human_boxes[col]),
            iou_rows(pairs.object_boxes[row], gt.object_boxes[col]),
        )
        hit = overlap >= threshold
        found.append((row[hit], col[hit], overlap[hit]))
    return tuple(np.concatenate(parts) for parts in zip(*found))
