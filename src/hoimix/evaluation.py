"""Detection mAP with joint-IoU pair matching.

A prediction is a true positive only if its interaction class is correct and
both its human and object boxes overlap an unmatched ground-truth pair of
that class, in the same image, with IoU at or above 0.5 (the binding score
is the minimum of the two overlaps). Average precision uses all-point
interpolation of the precision-recall curve. Means are reported over the
full class set and over the rare / non-rare partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .batching import build_pairs
from .geometry import box_array, pair_iou_matrix
from .model import ModelParams, forward
# bound only so that the perfbench tracer can wrap them; evaluation calls neither
from .geometry import pair_iou  # noqa: F401
from .model import infer_pairs  # noqa: F401
from .synth_world import SynthImage

MATCH_IOU = 0.5

CSV_HEADER = "run_id,ws_fs_us,policy,hes,seed,map_full,map_rare,map_nonrare"


@dataclass(eq=False)
class BoxPairs:
    """n (human, object) box pairs and the image each belongs to."""

    image_ids: np.ndarray     # (n,) int
    human_boxes: np.ndarray   # (n, 4), rows as geometry.box_array builds them
    object_boxes: np.ndarray  # (n, 4)

    def __len__(self) -> int:
        return len(self.image_ids)


@dataclass(eq=False)
class Predictions:
    """Model scores for every (pair, class) of a test set: one row per pair,
    in image order and then build_pairs order, one column per class."""

    pairs: BoxPairs
    scores: np.ndarray  # (n, C), finite

    def __len__(self) -> int:
        return self.scores.size


@dataclass(eq=False)
class EvalReport:
    """Per-class APs (NaN marks classes absent from the test ground truth)
    and their means over the full / rare / non-rare class subsets."""

    ap_per_class: np.ndarray
    map_full: float
    map_rare: float
    map_nonrare: float
    rare_class_ids: frozenset[int]


def match_and_ap(scores: np.ndarray, pairs: BoxPairs, gt: BoxPairs) -> float | None:
    """Average precision for a single class.

    scores[i] is the class score of pairs row i. Predictions are ranked by
    descending score, ties broken by row order; each is greedily matched to
    the highest-IoU unmatched ground-truth pair of the same image (the first
    such pair on IoU ties). Returns None when there is no ground truth for
    the class.
    """
    if not len(gt):
        return None
    return _greedy_ap(scores, *_hits(pairs, gt), len(gt))


def _hits(pairs: BoxPairs, gt: BoxPairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs row, gt index, IoU) of every same-image prediction and
    ground-truth pair whose pair IoU reaches MATCH_IOU.

    Only these can make a true positive; every other prediction is a false
    positive whatever was matched before it.
    """
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


def _greedy_ap(
    scores: np.ndarray, rows: np.ndarray, gt_index: np.ndarray, overlap: np.ndarray, n_gt: int
) -> float:
    """All-point AP of one class from its hits (see _hits)."""
    n = len(scores)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(-scores, kind="stable")] = np.arange(n)

    tp = np.zeros(n)
    matched: set[int] = set()
    hits = sorted(zip(rank[rows].tolist(), gt_index.tolist(), overlap.tolist()))
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
    # all-point interpolation: running max of precision from the right,
    # integrated over recall steps
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def collect_predictions(
    params: ModelParams,
    images: list[SynthImage],
    *,
    feature_dim: int,
    top_k: int = 30,
) -> Predictions:
    """Score every (pair, class) of every image with the model."""
    if not images:
        raise ValueError("cannot score an empty image list")
    image_ids, humans, objects, scores = [], [], [], []
    for image in images:
        pairs = build_pairs(image, feature_dim, top_k=top_k)
        P = forward(params, np.stack([p.features for p in pairs])).P
        if not np.isfinite(P).all():
            raise ValueError(f"non-finite prediction scores for image {image.image_id}")
        image_ids.append(np.full(len(pairs), image.image_id))
        humans.append(box_array([p.human.box for p in pairs]))
        objects.append(box_array([p.object.box for p in pairs]))
        scores.append(P)
    return Predictions(
        BoxPairs(np.concatenate(image_ids), np.concatenate(humans), np.concatenate(objects)),
        np.concatenate(scores),
    )


def evaluate_predictions(
    predictions: Predictions,
    images: list[SynthImage],
    rare_class_ids: set[int] | frozenset[int],
    n_classes: int,
) -> EvalReport:
    """Compute per-class AP and the full / rare / non-rare means."""
    if not images:
        raise ValueError("cannot evaluate on an empty test set")
    triplets = [(image.image_id, t) for image in images for t in image.gt_triplets]
    gt = BoxPairs(
        np.array([image_id for image_id, _ in triplets], dtype=np.int64),
        box_array([t.human_box for _, t in triplets]),
        box_array([t.object_box for _, t in triplets]),
    )
    gt_classes = np.array([t.hoi_class for _, t in triplets], dtype=np.intp)
    # hits against every ground-truth pair at once, then split by class
    rows, gt_index, overlap = _hits(predictions.pairs, gt)
    hit_classes = gt_classes[gt_index]
    ap = np.full(n_classes, np.nan)
    for c in np.unique(gt_classes).tolist():
        keep = hit_classes == c
        ap[c] = _greedy_ap(
            predictions.scores[:, c], rows[keep], gt_index[keep], overlap[keep],
            int(np.count_nonzero(gt_classes == c)),
        )

    defined = ~np.isnan(ap)
    rare_mask = np.zeros(n_classes, dtype=bool)
    for c in rare_class_ids:
        if 0 <= c < n_classes:
            rare_mask[c] = True

    def subset_mean(mask: np.ndarray) -> float:
        selected = ap[mask & defined]
        return float(selected.mean()) if selected.size else float("nan")

    return EvalReport(
        ap_per_class=ap,
        map_full=subset_mean(np.ones(n_classes, dtype=bool)),
        map_rare=subset_mean(rare_mask),
        map_nonrare=subset_mean(~rare_mask),
        rare_class_ids=frozenset(rare_class_ids),
    )


def evaluate(
    params: ModelParams,
    images: list[SynthImage],
    rare_class_ids: set[int] | frozenset[int],
    *,
    feature_dim: int,
    top_k: int = 30,
) -> EvalReport:
    """Run the model over a fully-annotated test set and score it."""
    predictions = collect_predictions(params, images, feature_dim=feature_dim, top_k=top_k)
    return evaluate_predictions(predictions, images, rare_class_ids, params.n_classes)


def report_to_dict(report: EvalReport) -> dict:
    """Structured record form of an EvalReport."""
    return {
        "map_full": report.map_full,
        "map_rare": report.map_rare,
        "map_nonrare": report.map_nonrare,
        "rare_class_ids": sorted(report.rare_class_ids),
        "ap_per_class": [None if math.isnan(v) else float(v) for v in report.ap_per_class],
    }


def report_csv_row(
    report: EvalReport,
    run_id: str,
    ws_fs_us: str,
    policy: str,
    hes: bool,
    seed: int,
) -> str:
    """Flat CSV row matching CSV_HEADER, for experiment aggregation."""
    return ",".join(
        [
            run_id,
            ws_fs_us,
            policy,
            "on" if hes else "off",
            str(seed),
            repr(float(report.map_full)),
            repr(float(report.map_rare)),
            repr(float(report.map_nonrare)),
        ]
    )
