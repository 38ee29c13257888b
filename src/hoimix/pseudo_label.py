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

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .batching import HumanObjectPair, build_pairs
from .checkpoint import atomic_open
from .evaluation import EvalReport
# bound only so that the perfbench tracer can wrap it; cycles evaluate through fit
from .evaluation import evaluate  # noqa: F401
from .experiment import ExperimentConfig, fit
from .model import ModelParams, forward
from .supervision import SupervisionTag
from .synth_world import GroundTruthTriplet, SynthImage


def select_label_argmax_triplets(
    P: np.ndarray, labels: frozenset[int] | set[int], pairs: list[HumanObjectPair]
) -> list[GroundTruthTriplet]:
    """For each label, the pair maximizing its column of P becomes pseudo
    ground truth. Ties break to the lowest pair index."""
    out = []
    for j in sorted(labels):
        i = int(np.argmax(P[:, j]))
        out.append(GroundTruthTriplet(pairs[i].human.box, pairs[i].object.box, j))
    return out


def ws_to_pseudo_fs(
    params: ModelParams,
    image: SynthImage,
    *,
    feature_dim: int,
    top_k: int = 30,
) -> list[GroundTruthTriplet]:
    """Pseudo triplets for a weakly-labeled image: one per image-level label."""
    if not image.image_labels:
        return []
    pairs = build_pairs(image, feature_dim, top_k=top_k)
    P = forward(params, np.stack([p.features for p in pairs])).P
    return select_label_argmax_triplets(P, image.image_labels, pairs)


def threshold_triplets(
    P: np.ndarray, threshold: float, pairs: list[HumanObjectPair]
) -> list[GroundTruthTriplet]:
    """Every (pair, class) with probability strictly above the threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    out = []
    rows, cols = np.nonzero(P > threshold)
    for i, j in zip(rows.tolist(), cols.tolist()):
        out.append(GroundTruthTriplet(pairs[i].human.box, pairs[i].object.box, int(j)))
    return out


def us_to_pseudo_fs(
    params: ModelParams,
    image: SynthImage,
    threshold: float = 0.5,
    *,
    feature_dim: int,
    top_k: int = 30,
) -> list[GroundTruthTriplet]:
    """Pseudo triplets for an unlabeled image; may be empty."""
    pairs = build_pairs(image, feature_dim, top_k=top_k)
    P = forward(params, np.stack([p.features for p in pairs])).P
    return threshold_triplets(P, threshold, pairs)


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    map_full: float
    map_rare: float
    map_nonrare: float
    n_pseudo: int
    converged: bool


def dump_pseudo_triplets(path, pseudo: dict[int, list[GroundTruthTriplet]]) -> None:
    """Audit dump in the dataset's triplet record format, flagged pseudo."""
    with atomic_open(path) as fh:
        for image_id in sorted(pseudo):
            record = {
                "image_id": image_id,
                "pseudo": True,
                "gt_triplets": [
                    {
                        "h_box": t.human_box.as_list(),
                        "o_box": t.object_box.as_list(),
                        "hoi_class": t.hoi_class,
                    }
                    for t in pseudo[image_id]
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def iterate_cycles(
    images: list[SynthImage],
    cfg: ExperimentConfig,
    n_cycles: int,
    mode: str = "unlabeled",
    *,
    test_images: list[SynthImage],
    rare_ids: set[int],
    dump_dir=None,
) -> tuple[ModelParams, list[CycleReport], EvalReport]:
    """Base training plus n_cycles pseudo-label refinement cycles.

    mode "unlabeled": the mixed WS/FS pipeline is trained first; unlabeled
    images with above-threshold predictions join the next cycle as
    pseudo-region data. mode "multistage": only FS images train first; WS
    images join as pseudo-region data via the per-label argmax, and the
    pipeline stays fully supervised. Each cycle retrains from the same
    seeded initialization; identical pseudo-label sets between consecutive
    cycles raise the converged flag and stop early.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if mode not in ("unlabeled", "multistage"):
        raise ValueError(f"unknown mode {mode!r}")

    feature_dim = cfg.world.feature_dim

    if mode == "multistage":
        base_pool = [img for img in images if img.supervision == SupervisionTag.FS]
        pseudo_sources = [img for img in images if img.supervision == SupervisionTag.WS]
        retagged = [
            dataclasses.replace(
                img,
                supervision=SupervisionTag.US,
                gt_triplets=(),
                image_labels=frozenset(),
            )
            for img in pseudo_sources
        ]
        cycle_pool = base_pool + retagged
    else:
        base_pool = [img for img in images if img.supervision != SupervisionTag.US]
        pseudo_sources = [img for img in images if img.supervision == SupervisionTag.US]
        cycle_pool = base_pool + pseudo_sources

    def relabel(params: ModelParams) -> dict[int, list[GroundTruthTriplet]]:
        pseudo: dict[int, list[GroundTruthTriplet]] = {}
        for img in pseudo_sources:
            if mode == "multistage":
                triplets = ws_to_pseudo_fs(params, img, feature_dim=feature_dim, top_k=cfg.top_k)
            else:
                triplets = us_to_pseudo_fs(
                    params, img, cfg.pseudo_threshold, feature_dim=feature_dim, top_k=cfg.top_k
                )
            if triplets:
                pseudo[img.image_id] = triplets
        return pseudo

    base = fit(base_pool, cfg, test_images, rare_ids)
    pseudo = relabel(base.params)

    params = base.params
    reports: list[CycleReport] = []
    for cycle in range(1, n_cycles + 1):
        n_pseudo = sum(len(v) for v in pseudo.values())
        if dump_dir is not None:
            dump_pseudo_triplets(
                os.path.join(dump_dir, f"pseudo_cycle_{cycle}.jsonl"), pseudo
            )
        run = fit(cycle_pool, cfg, test_images, rare_ids, pseudo_triplets=pseudo)
        params, report = run.params, run.report
        new_pseudo = relabel(params)
        converged = new_pseudo == pseudo
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
