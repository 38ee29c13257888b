"""Detection mAP with joint-IoU pair matching.

A prediction is a true positive only if its interaction class is correct and
both its human and object boxes overlap an unmatched ground-truth pair of
that class, in the same image, with IoU at or above MATCH_IOU (the binding
score is the minimum of the two overlaps; see geometry.pair_hits). Average
precision uses all-point interpolation of the precision-recall curve. Means
are reported over the full class set and over the rare / non-rare partitions.
A world's test set is prepared once (`prepare_eval_set`) for all its models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .batching import DEFAULT_TOP_K, pair_grids
from .geometry import MATCH_IOU, BoxPairs, pair_hits
from .model import ModelParams, forward
# bound only so that the perfbench tracer can wrap them; evaluation calls neither
from .geometry import pair_iou  # noqa: F401
from .model import infer_pairs  # noqa: F401
from .synth_world import World

CSV_HEADER = "run_id,ws_fs_us,policy,hes,seed,map_full,map_rare,map_nonrare"


@dataclass(eq=False)
class Predictions:
    """Model scores for every (pair, class) of a test set: one row per pair,
    by image, then in pair_grids' human-major order; one column per class."""

    pairs: BoxPairs
    scores: np.ndarray  # (n, C), finite

    def __len__(self) -> int:
        return self.scores.size


@dataclass(eq=False)
class GroundTruth:
    """A test set's ground truth, matched once against the box pairs that
    predictions score: for each class with ground truth, its hits (see
    geometry.pair_hits) and its number of ground-truth pairs. None of it
    depends on the model."""

    n_pairs: int  # rows of the box pairs it was matched against
    classes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]]


@dataclass(eq=False)
class EvalSet:
    """A fully-annotated test set prepared for any number of evaluations:
    its images' pair-feature matrices stacked by pair count, the ground
    truth matched against every pair, and the rare classes of its world."""

    # per pair count n: the (k, n) rows of pairs that its k images fill, and
    # their (k, n, feature_dim) features, rows in pair_grids' human-major order
    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]
    pairs: BoxPairs  # every image's pairs, in image order, then pair_grids' human-major order
    truth: GroundTruth
    rare_class_ids: frozenset[int]


@dataclass(eq=False)
class EvalReport:
    """Per-class APs (NaN marks classes absent from the test ground truth)
    and their means over the full / rare / non-rare class subsets."""

    ap_per_class: np.ndarray
    map_full: float
    map_rare: float
    map_nonrare: float
    rare_class_ids: frozenset[int]


def _greedy_ap(
    scores: np.ndarray, rows: np.ndarray, gt_index: np.ndarray, overlap: np.ndarray, n_gt: int
) -> float:
    """All-point AP of one class from its hits (see geometry.pair_hits)."""
    n = len(scores)
    # each hit row's place in the stable descending order of the scores: the
    # scores above it, then the scores equal to it at lower rows
    ordered, hit_scores = np.sort(scores), scores[rows]
    not_above = np.searchsorted(ordered, hit_scores, side="right")
    rank = n - not_above
    tied = not_above - np.searchsorted(ordered, hit_scores, side="left") > 1
    # a Python set holds 0.0 and -0.0 once, as == and the sort do
    for value in set(hit_scores[tied].tolist()):
        at = hit_scores == value
        rank[at] += np.searchsorted(np.flatnonzero(scores == value), rows[at])

    tp_ranks = []
    matched: set[int] = set()
    hits = sorted(zip(rank.tolist(), gt_index.tolist(), overlap.tolist()))
    for r, candidates in groupby(hits, key=lambda hit: hit[0]):
        best_iou, best_gt = 0.0, -1
        for _, gt_idx, iou in candidates:
            if gt_idx not in matched and iou > best_iou:
                best_iou, best_gt = iou, gt_idx
        if best_gt >= 0:
            matched.add(best_gt)
            tp_ranks.append(r)

    # all-point interpolation: running max of precision from the right,
    # integrated over recall steps. Recall steps only at the true positives,
    # and precision falls between them, so its running max is attained at
    # one of them; each term sits at its rank among n zeros, so that the
    # sum adds the terms in the grouping of the dense per-rank curve
    tp_ranks = np.array(tp_ranks, dtype=np.intp)
    found = np.arange(len(tp_ranks) + 1)
    recall = found / n_gt
    precision = np.maximum.accumulate((found[1:] / (tp_ranks + 1))[::-1])[::-1]
    terms = np.zeros(n)
    terms[tp_ranks] = (recall[1:] - recall[:-1]) * precision
    return float(np.sum(terms))


def ground_truth(pairs: BoxPairs, world: World) -> GroundTruth:
    """Match the triplets of the world's images against the given box pairs."""
    triplets = world.triplets
    if not len(triplets):
        raise ValueError("the test images carry no ground-truth triplets")
    gt = BoxPairs(world.image_ids[world.triplet_owner()], triplets.human_boxes, triplets.object_boxes)
    gt_classes = triplets.hoi_classes
    # hits against every ground-truth pair at once, then split by class
    rows, gt_index, overlap = pair_hits(pairs, gt, MATCH_IOU)
    hit_classes = gt_classes[gt_index]
    classes = {}
    for c in np.unique(gt_classes).tolist():
        keep = hit_classes == c
        classes[c] = (
            rows[keep], gt_index[keep], overlap[keep], int(np.count_nonzero(gt_classes == c))
        )
    return GroundTruth(len(pairs), classes)


def prepare_eval_set(
    world: World, rare_class_ids: set[int], *, feature_dim: int, top_k: int = DEFAULT_TOP_K
) -> EvalSet:
    """Build the pairs of every image of the test world, in one pass, stack
    the images of each pair count, and match the pairs against the ground
    truth, once; rare_class_ids are the training world's rare classes,
    which the reports split by."""
    if not len(world):
        raise ValueError("cannot evaluate on an empty test set")
    grid = pair_grids(world, np.arange(len(world)), feature_dim, top_k)
    counts = np.diff(grid.offsets)
    pairs = BoxPairs(np.repeat(grid.image_ids, counts), grid.human_boxes, grid.object_boxes)
    truth = ground_truth(pairs, world)
    rows = [grid.offsets[:-1][counts == n, None] + np.arange(n) for n in np.unique(counts)]
    return EvalSet(tuple((at, grid.features[at]) for at in rows), pairs, truth, frozenset(rare_class_ids))


def collect_predictions(params: ModelParams, test: EvalSet) -> Predictions:
    """Score every (pair, class) of every test image with the model, one
    forward per stack of images with the same pair count."""
    scores = np.empty((len(test.pairs), params.n_classes))
    for rows, features in test.stacks:
        scores[rows] = forward(params, features).P
    return Predictions(test.pairs, scores)


def evaluate_predictions(
    predictions: Predictions,
    truth: GroundTruth,
    rare_class_ids: set[int] | frozenset[int],
    n_classes: int,
) -> EvalReport:
    """Compute per-class AP and the full / rare / non-rare means."""
    if len(predictions.pairs) != truth.n_pairs:
        raise ValueError(
            f"predictions have {len(predictions.pairs)} pairs; the ground truth "
            f"was matched against {truth.n_pairs}"
        )
    ap = np.full(n_classes, np.nan)
    for c, (rows, gt_index, overlap, n_gt) in truth.classes.items():
        ap[c] = _greedy_ap(predictions.scores[:, c], rows, gt_index, overlap, n_gt)

    defined = ~np.isnan(ap)
    rare_mask = np.isin(np.arange(n_classes), list(rare_class_ids))

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


def evaluate(params: ModelParams, test: EvalSet) -> EvalReport:
    """Run the model over a prepared test set and score it."""
    predictions = collect_predictions(params, test)
    return evaluate_predictions(predictions, test.truth, test.rare_class_ids, params.n_classes)


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
