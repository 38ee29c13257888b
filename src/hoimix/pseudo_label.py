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
fixed point of the pseudo-label sets raises an early-stop flag. Pseudo
labels are the triplet rows of their images in the World a cycle trains on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterator

import numpy as np

from .batching import PairGrid, pair_grids
from .checkpoint import write_outputs
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


def same_pseudo_labels(a: World, b: World) -> bool:
    """True iff both worlds have byte-equal triplet offsets and triplets, so
    that every image has the same triplets in each."""

    def exact(world: World) -> list:
        t = world.triplets
        columns = (world.triplet_rows, t.human_boxes, t.object_boxes, t.hoi_classes)
        return [(x.dtype.str, x.shape, x.tobytes()) for x in columns]

    return exact(a) == exact(b)


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    map_full: float
    map_rare: float
    map_nonrare: float
    n_pseudo: int
    converged: bool


def pseudo_triplet_lines(world: World, images: np.ndarray) -> Iterator[str]:
    """The lines of the audit dump, one JSON line for each of the world's
    images, in the given order, that has triplet rows: its id, a pseudo
    flag, and its triplets as h_box / o_box / hoi_class records."""
    t, rows = world.triplets, world.triplet_rows
    for image in images:
        at = slice(rows[image], rows[image + 1])
        if at.start == at.stop:
            continue
        columns = (t.human_boxes[at].tolist(), t.object_boxes[at].tolist(), t.hoi_classes[at].tolist())
        record = {
            "image_id": int(world.image_ids[image]),
            "pseudo": True,
            "gt_triplets": [
                {"h_box": h, "o_box": o, "hoi_class": c} for h, o, c in zip(*columns)
            ],
        }
        yield json.dumps(record, sort_keys=True) + "\n"


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
    images: each relabelling gives the untagged world with the sources'
    triplet rows replaced by their pseudo labels, the world the next cycle
    trains on, dumps and compares. Each cycle retrains from the same seeded
    initialization; byte-equal pseudo labels between consecutive cycles
    raise the converged flag and stop early. The test world is prepared
    for evaluation once, for every fit. A dump_dir that is missing is made
    before the base fit, so one that cannot be made fails before training.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if mode not in ("unlabeled", "multistage"):
        raise ValueError(f"unknown mode {mode!r}")
    if dump_dir is not None:
        write_outputs(dump_dir, {})

    source = SupervisionTag.WS if mode == "multistage" else SupervisionTag.US
    is_source, us = world.supervision == source.code, SupervisionTag.US.code
    sources = np.flatnonzero(is_source)
    # the sources untagged; a US image without pseudo labels is not scheduled
    unlabelled = world.tagged(np.where(is_source, us, world.supervision))

    # the pairs of the pseudo sources do not depend on the model: they are
    # built once, in one pass, for every relabelling
    grids = []
    if len(sources):
        grid = pair_grids(world, sources, cfg.world.feature_dim, cfg.top_k)
        grids = [grid.image(k) for k in range(len(sources))]

    def relabel(params: ModelParams) -> World:
        """The untagged world, each source with its pseudo labels."""
        parts = [
            ws_to_pseudo_fs(params, np.flatnonzero(world.labels[image]), grid)
            if mode == "multistage"
            else us_to_pseudo_fs(params, grid, cfg.pseudo_threshold)
            for image, grid in zip(sources, grids)
        ]
        return unlabelled.with_triplets(sources, parts)

    test_set = prepare_eval_set(test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    base = fit(unlabelled, cfg, test_set)
    pseudo = relabel(base.params)

    params = base.params
    reports: list[CycleReport] = []
    for cycle in range(1, n_cycles + 1):
        n_pseudo = int(np.diff(pseudo.triplet_rows)[sources].sum())
        if dump_dir is not None:
            write_outputs(dump_dir, {f"pseudo_cycle_{cycle}.jsonl": pseudo_triplet_lines(pseudo, sources)})
        run = fit(pseudo, cfg, test_set)
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
