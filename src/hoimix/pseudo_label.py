"""Model-inferred labels, used two ways.

* Multi-stage baseline: weakly-labeled images are converted to region-level
  data by taking, for each image-level label, the pair with the largest
  predicted probability for it. Training then stays a fully-supervised
  pipeline throughout.
* Unlabeled data: every (pair, class) whose probability exceeds a threshold
  becomes a pseudo triplet; pseudo-labeled images enter the loss exactly as
  fully-supervised data and use the FS momentum buffer.

Both loops retrain from the same seeded initialization each cycle, refresh
the pseudo labels, and evaluate, so convergence is observable per cycle; a
fixed point of the pseudo-label sets raises an early-stop flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Collection

import numpy as np

from .batching import PairGrid, pair_grids
from .checkpoint import atomic_open
from .evaluation import EvalReport, prepare_eval_set
# bound only so that the perfbench tracer can wrap it; cycles evaluate through fit
from .evaluation import evaluate  # noqa: F401
from .experiment import ExperimentConfig, fit
from .model import ModelParams, forward
from .supervision import SupervisionTag
from .synth_world import NO_TRIPLETS, TripletArrays, World


def select_label_argmax_triplets(P: np.ndarray, labels: Collection[int], grid: PairGrid) -> TripletArrays:
    """For each label, in ascending order, the grid pair maximizing its
    column of P becomes pseudo ground truth. Ties break to the lowest pair
    index."""
    classes = np.array(sorted(labels), dtype=np.intp)
    rows = np.argmax(P[:, classes], axis=0)
    return TripletArrays(grid.human_boxes[rows], grid.object_boxes[rows], classes)


def ws_to_pseudo_fs(params: ModelParams, labels: Collection[int], grid: PairGrid) -> TripletArrays:
    """Pseudo triplets for a weakly-labeled image with the given label
    classes, whose own pairs are the grid: one per label."""
    if not len(labels):
        return NO_TRIPLETS
    P = forward(params, grid.features).P
    return select_label_argmax_triplets(P, labels, grid)


def threshold_triplets(P: np.ndarray, threshold: float, grid: PairGrid) -> TripletArrays:
    """Every (grid pair, class) with probability strictly above the
    threshold, pair-major."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    rows, classes = np.nonzero(P > threshold)
    return TripletArrays(grid.human_boxes[rows], grid.object_boxes[rows], classes)


def us_to_pseudo_fs(params: ModelParams, grid: PairGrid, threshold: float = 0.5) -> TripletArrays:
    """Pseudo triplets for an unlabeled image whose own pairs are the grid;
    may be empty."""
    P = forward(params, grid.features).P
    return threshold_triplets(P, threshold, grid)


def same_pseudo_labels(a: dict[int, TripletArrays], b: dict[int, TripletArrays]) -> bool:
    """True iff both sets label the same images with byte-equal triplets."""

    def exact(t: TripletArrays) -> list:
        columns = (t.human_boxes, t.object_boxes, t.hoi_classes)
        return [(x.dtype.str, x.shape, x.tobytes()) for x in columns]

    return a.keys() == b.keys() and all(exact(a[k]) == exact(b[k]) for k in a)


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    map_full: float
    map_rare: float
    map_nonrare: float
    n_pseudo: int
    converged: bool


def dump_pseudo_triplets(path, pseudo: dict[int, TripletArrays]) -> None:
    """Audit dump, one JSON line per image in image id order: its id, a
    pseudo flag, and its triplets as h_box / o_box / hoi_class records."""
    with atomic_open(path) as fh:
        for image_id in sorted(pseudo):
            t = pseudo[image_id]
            columns = (t.human_boxes.tolist(), t.object_boxes.tolist(), t.hoi_classes.tolist())
            record = {
                "image_id": image_id,
                "pseudo": True,
                "gt_triplets": [
                    {"h_box": h, "o_box": o, "hoi_class": c} for h, o, c in zip(*columns)
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def iterate_cycles(
    world: World,
    cfg: ExperimentConfig,
    n_cycles: int,
    mode: str = "unlabeled",
    *,
    test_images: World,
    rare_ids: set[int],
    dump_dir=None,
) -> tuple[ModelParams, list[CycleReport], EvalReport]:
    """Base training plus n_cycles pseudo-label refinement cycles.

    mode "unlabeled": the mixed WS/FS pipeline is trained first; unlabeled
    images with above-threshold predictions join the next cycle as
    pseudo-region data. mode "multistage": only FS images train first; WS
    images join as pseudo-region data via the per-label argmax, and the
    pipeline stays fully supervised. The pseudo-label sources train as US
    images, and each cycle replaces their triplet rows with their pseudo
    labels. Each cycle retrains from the same seeded initialization;
    identical pseudo-label sets between consecutive cycles raise the
    converged flag and stop early. The test world is prepared for
    evaluation once, for every fit.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if mode not in ("unlabeled", "multistage"):
        raise ValueError(f"unknown mode {mode!r}")

    source = SupervisionTag.WS if mode == "multistage" else SupervisionTag.US
    is_source, us = world.supervision == source.code, SupervisionTag.US.code
    sources = np.flatnonzero(is_source)
    source_ids = world.image_ids[sources].tolist()
    # the sources untagged; a US image without pseudo labels is not scheduled
    unlabelled = world.tagged(np.where(is_source, us, world.supervision))

    # the pairs of the pseudo sources do not depend on the model: they are
    # built once, in one pass, for every relabelling
    grids = []
    if len(sources):
        grid = pair_grids(world, sources, cfg.world.feature_dim, cfg.top_k)
        grids = [grid.image(k) for k in range(len(sources))]

    def relabel(params: ModelParams) -> dict[int, TripletArrays]:
        """The pseudo labels of every source that gets some, by image id."""
        pseudo: dict[int, TripletArrays] = {}
        for image, image_id, grid in zip(sources, source_ids, grids):
            if mode == "multistage":
                triplets = ws_to_pseudo_fs(params, np.flatnonzero(world.labels[image]), grid)
            else:
                triplets = us_to_pseudo_fs(params, grid, cfg.pseudo_threshold)
            if triplets:
                pseudo[image_id] = triplets
        return pseudo

    test_set = prepare_eval_set(test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    base = fit(unlabelled, cfg, test_set)
    pseudo = relabel(base.params)

    params = base.params
    reports: list[CycleReport] = []
    for cycle in range(1, n_cycles + 1):
        n_pseudo = sum(len(v) for v in pseudo.values())
        if dump_dir is not None:
            dump_pseudo_triplets(
                os.path.join(dump_dir, f"pseudo_cycle_{cycle}.jsonl"), pseudo
            )
        # relabel keys pseudo in source order
        labelled = [image for image, image_id in zip(sources, source_ids) if image_id in pseudo]
        run = fit(unlabelled.with_triplets(labelled, list(pseudo.values())), cfg, test_set)
        params, report = run.params, run.report
        new_pseudo = relabel(params)
        converged = same_pseudo_labels(new_pseudo, pseudo)
        reports.append(
            CycleReport(
                cycle=cycle,
                map_full=report.map_full,
                map_rare=report.map_rare,
                map_nonrare=report.map_nonrare,
                n_pseudo=n_pseudo,
                converged=converged,
            )
        )
        pseudo = new_pseudo
        if converged:
            break
    return params, reports, base.report
