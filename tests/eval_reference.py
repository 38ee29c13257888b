"""Object-based reference for the evaluation protocol, and adapters from it
to the array API of hoimix.evaluation.

The reference is the original implementation: one Python object per
prediction, a sort keyed on (-score, insertion index) and a scalar pair_iou
per prediction and ground-truth pair. The array path must reproduce its APs
exactly. reference_hits is the per-image loop that geometry.pair_hits
replaced; pair_hits must find the same hits. dense_greedy_ap is the AP
that evaluation._greedy_ap replaced, with a precision and a recall at every
rank; _greedy_ap must return its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from hoimix.evaluation import Predictions, _greedy_ap
from hoimix.geometry import MATCH_IOU, BoxPairs, pair_hits
from hoimix.geometry import pair_iou

from box_reference import Box, box_array
from pair_reference import pair_iou_matrix


@dataclass(frozen=True)
class HOIPrediction:
    image_id: int
    human_box: Box
    object_box: Box
    hoi_class: int
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError("prediction score must be finite")


def reference_match_and_ap(
    predictions: list[HOIPrediction],
    gt_pairs: list[tuple[int, Box, Box]],
) -> float | None:
    """Single-class AP by the object-based greedy matcher."""
    if not gt_pairs:
        return None
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i].score, i))
    gt_by_image: dict[int, list[int]] = {}
    for idx, (image_id, _, _) in enumerate(gt_pairs):
        gt_by_image.setdefault(image_id, []).append(idx)
    matched = [False] * len(gt_pairs)

    tp = np.zeros(len(predictions))
    fp = np.zeros(len(predictions))
    for rank, idx in enumerate(order):
        pred = predictions[idx]
        best_iou, best_gt = 0.0, -1
        for gt_idx in gt_by_image.get(pred.image_id, ()):
            if matched[gt_idx]:
                continue
            overlap = pair_iou(
                (pred.human_box, pred.object_box), (gt_pairs[gt_idx][1], gt_pairs[gt_idx][2])
            )
            if overlap > best_iou:
                best_iou, best_gt = overlap, gt_idx
        if best_gt >= 0 and best_iou >= MATCH_IOU:
            matched[best_gt] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / len(gt_pairs)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)

    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[1.0], precision])
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def dense_greedy_ap(
    scores: np.ndarray, rows: np.ndarray, gt_index: np.ndarray, overlap: np.ndarray, n_gt: int
) -> float:
    """_greedy_ap as it was: the same ranks and greedy matching, then the
    true positives, recall and interpolated precision at every rank."""
    n = len(scores)
    ordered, hit_scores = np.sort(scores), scores[rows]
    not_above = np.searchsorted(ordered, hit_scores, side="right")
    rank = n - not_above
    tied = not_above - np.searchsorted(ordered, hit_scores, side="left") > 1
    for value in set(hit_scores[tied].tolist()):
        at = hit_scores == value
        rank[at] += np.searchsorted(np.flatnonzero(scores == value), rows[at])

    tp = np.zeros(n)
    matched: set[int] = set()
    hits = sorted(zip(rank.tolist(), gt_index.tolist(), overlap.tolist()))
    for r, candidates in groupby(hits, key=lambda hit: hit[0]):
        best_iou, best_gt = 0.0, -1
        for _, gt_idx, iou in candidates:
            if gt_idx not in matched and iou > best_iou:
                best_iou, best_gt = iou, gt_idx
        if best_gt >= 0:
            matched.add(best_gt)
            tp[r] = 1.0

    cum_tp = np.cumsum(tp)
    recall = np.concatenate([[0.0], cum_tp / n_gt])
    precision = np.concatenate([[1.0], cum_tp / np.arange(1, n + 1)])
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def reference_hits(pairs: BoxPairs, gt: BoxPairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pair_hits at MATCH_IOU by one pair IoU matrix per image of the ground truth."""
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for image_id in np.unique(gt.image_ids):
        rows = np.flatnonzero(pairs.image_ids == image_id)
        cols = np.flatnonzero(gt.image_ids == image_id)
        overlap = pair_iou_matrix(
            pairs.human_boxes[rows], pairs.object_boxes[rows],
            gt.human_boxes[cols], gt.object_boxes[cols],
        )
        r, c = np.nonzero(overlap >= MATCH_IOU)
        found.append((rows[r], cols[c], overlap[r, c]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def match_and_ap(scores: np.ndarray, pairs: BoxPairs, gt: BoxPairs) -> float | None:
    """Average precision for a single class, by the array path that
    evaluate_predictions runs per class.

    scores[i] is the class score of pairs row i. Predictions are ranked by
    descending score, ties broken by row order; each is greedily matched to
    the highest-IoU unmatched ground-truth pair of the same image (the first
    such pair on IoU ties). Returns None when there is no ground truth for
    the class.
    """
    if not len(gt):
        return None
    return _greedy_ap(scores, *pair_hits(pairs, gt, MATCH_IOU), len(gt))


def box_pairs(entries) -> BoxPairs:
    """BoxPairs from (image_id, human Box, object Box) entries."""
    entries = list(entries)
    return BoxPairs(
        np.array([image_id for image_id, _, _ in entries], dtype=np.int64),
        box_array([h for _, h, _ in entries]),
        box_array([o for _, _, o in entries]),
    )


def array_ap(predictions: list[HOIPrediction], gt_pairs: list[tuple[int, Box, Box]]) -> float | None:
    """match_and_ap of the array path on the same single-class input."""
    scores = np.array([p.score for p in predictions], dtype=np.float64)
    pairs = box_pairs((p.image_id, p.human_box, p.object_box) for p in predictions)
    return match_and_ap(scores, pairs, box_pairs(gt_pairs))


def as_predictions(predictions: list[HOIPrediction], n_classes: int) -> Predictions:
    """One row per prediction, its score in its own class's column and 0.0
    in every other column."""
    scores = np.zeros((len(predictions), n_classes))
    for row, p in enumerate(predictions):
        scores[row, p.hoi_class] = p.score
    return Predictions(box_pairs((p.image_id, p.human_box, p.object_box) for p in predictions), scores)
