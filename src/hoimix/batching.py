"""Mini-batch construction from two images.

Builds within-image human-object pairs (with a per-class top-k confidence
filter), synthesizes cross-image hard negatives for weakly-labeled pairs by
swapping humans and objects between the two images, and constructs
region-level and image-level training targets. The batch schedule pairs
images once, before training, into homogeneous two-image batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import pair_iou
from .supervision import SupervisionTag
from .synth_world import Detection, GroundTruthTriplet, SynthImage, pair_features

DEFAULT_TOP_K = 30
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(eq=False)
class HumanObjectPair:
    """One candidate pair; swapped is true iff human and object come from
    different images."""

    human: Detection
    object: Detection
    human_index: int
    object_index: int
    source: tuple[int, int]  # (image_id of human, image_id of object)
    features: np.ndarray
    swapped: bool

    def __post_init__(self) -> None:
        if self.swapped != (self.source[0] != self.source[1]):
            raise ValueError("swapped flag inconsistent with source image ids")


@dataclass(eq=False)
class MiniBatch:
    """Pairs from exactly two images with homogeneous supervision.

    FS batches carry a region-level target matrix, WS batches an image-level
    label vector. US batches are only constructible with pseudo region
    targets and carry them in fs_targets.
    """

    pairs: list[HumanObjectPair]
    supervision: SupervisionTag
    features: np.ndarray  # (N, feature_dim)
    image_ids: tuple[int, int]
    fs_targets: Optional[np.ndarray] = None
    ws_targets: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.supervision == SupervisionTag.WS:
            if self.ws_targets is None or self.fs_targets is not None:
                raise ValueError("WS batches carry ws_targets only")
        else:
            if self.fs_targets is None or self.ws_targets is not None:
                raise ValueError(f"{self.supervision} batches carry fs_targets only")


def _top_k_per_class(detections: Sequence[Detection], top_k: int) -> list[tuple[int, Detection]]:
    """Keep at most top_k detections per class by confidence, preserving the
    original ordering of the kept detections."""
    by_class: dict[int, list[tuple[int, Detection]]] = {}
    for idx, det in enumerate(detections):
        by_class.setdefault(det.class_id, []).append((idx, det))
    keep: set[int] = set()
    for entries in by_class.values():
        ranked = sorted(entries, key=lambda e: (-e[1].confidence, e[0]))
        keep.update(idx for idx, _ in ranked[:top_k])
    return [(idx, det) for idx, det in enumerate(detections) if idx in keep]


def build_pairs(
    image: SynthImage, feature_dim: int, top_k: int = DEFAULT_TOP_K
) -> list[HumanObjectPair]:
    """All human x object pairs within one image after top-k filtering."""
    if not image.human_detections or not image.object_detections:
        raise ValueError(f"image {image.image_id} has no humans or no objects")
    humans = _top_k_per_class(image.human_detections, top_k)
    objects = _top_k_per_class(image.object_detections, top_k)
    if not humans or not objects:
        raise ValueError(f"image {image.image_id}: empty human or object set after filtering")
    pairs = []
    for h_idx, human in humans:
        for o_idx, obj in objects:
            pairs.append(
                HumanObjectPair(
                    human=human,
                    object=obj,
                    human_index=h_idx,
                    object_index=o_idx,
                    source=(image.image_id, image.image_id),
                    features=pair_features(human, obj, feature_dim),
                    swapped=False,
                )
            )
    return pairs


def confidence_product(pair: HumanObjectPair) -> float:
    """Easy-negative score: product of the two detector confidences.

    Available before any training and stable across epochs, unlike
    model-dependent scores.
    """
    return pair.human.confidence * pair.object.confidence


def element_swap(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair]
) -> list[HumanObjectPair]:
    """Cross-image pair augmentation for two weakly-labeled images.

    Forms the full (H1+H2) x (O1+O2) pool of pairs across both images, then
    prunes easy negatives by ascending confidence_product until exactly
    H1*O1 + H2*O2 pairs remain, the original pair count of the two images.
    Score ties are resolved by pruning swapped pairs before same-image
    pairs, then by (image ids, detection indices) for determinism.
    """
    if not pairs1 or not pairs2:
        raise ValueError("element_swap needs non-empty pair lists from both images")

    image1 = pairs1[0].source[0]
    image2 = pairs2[0].source[0]
    if image1 == image2:
        raise ValueError("element_swap needs pairs from two distinct images")
    feature_dim = pairs1[0].features.shape[0]

    def collect(pairs: list[HumanObjectPair]):
        humans: dict[int, Detection] = {}
        objects: dict[int, Detection] = {}
        for p in pairs:
            humans.setdefault(p.human_index, p.human)
            objects.setdefault(p.object_index, p.object)
        return humans, objects

    humans1, objects1 = collect(pairs1)
    humans2, objects2 = collect(pairs2)

    candidates = list(pairs1) + list(pairs2)
    for h_img, humans in ((image1, humans1), (image2, humans2)):
        for o_img, objects in ((image1, objects1), (image2, objects2)):
            if h_img == o_img:
                continue
            for h_idx, human in humans.items():
                for o_idx, obj in objects.items():
                    candidates.append(
                        HumanObjectPair(
                            human=human,
                            object=obj,
                            human_index=h_idx,
                            object_index=o_idx,
                            source=(h_img, o_img),
                            features=pair_features(human, obj, feature_dim),
                            swapped=True,
                        )
                    )

    keep = len(pairs1) + len(pairs2)
    candidates.sort(
        key=lambda p: (
            -confidence_product(p),
            p.swapped,
            p.source[0],
            p.source[1],
            p.human_index,
            p.object_index,
        )
    )
    return candidates[:keep]


def make_fs_targets(
    pairs: list[HumanObjectPair],
    gt_triplets: Sequence[GroundTruthTriplet],
    n_classes: int,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> np.ndarray:
    """Region-level binary target matrix.

    Y[i, j] = 1 iff some ground-truth triplet of class j overlaps pair i
    with joint (min of human and object) IoU at or above the threshold.
    """
    Y = np.zeros((len(pairs), n_classes))
    for t in gt_triplets:
        if not (0 <= t.hoi_class < n_classes):
            raise ValueError(f"hoi_class {t.hoi_class} out of range [0, {n_classes})")
    for i, pair in enumerate(pairs):
        for t in gt_triplets:
            if pair_iou((pair.human.box, pair.object.box), (t.human_box, t.object_box)) >= iou_threshold:
                Y[i, t.hoi_class] = 1.0
    return Y


def make_ws_targets(
    image1_labels: frozenset[int] | set[int],
    image2_labels: frozenset[int] | set[int],
    n_classes: int,
) -> np.ndarray:
    """Image-level binary label vector: the union of both images' labels."""
    y = np.zeros(n_classes)
    for c in set(image1_labels) | set(image2_labels):
        if not (0 <= c < n_classes):
            raise ValueError(f"hoi_class {c} out of range [0, {n_classes})")
        y[c] = 1.0
    return y


@dataclass(frozen=True)
class ScheduleEntry:
    image_a: int
    image_b: int
    supervision: SupervisionTag


@dataclass(frozen=True)
class Schedule:
    """Fixed-before-training pairing of images into two-image batches."""

    entries: tuple[ScheduleEntry, ...]
    leftovers: tuple[tuple[SupervisionTag, int], ...]  # unpaired image per odd group
    seed: int


class ScheduleError(ValueError):
    pass


def batch_schedule(
    images: list[SynthImage], seed: int, include_us: bool = False
) -> Schedule:
    """Pair images of equal supervision into batches, once, reproducibly.

    Each batch is homogeneous; the stream interleaves the groups in a fixed
    random order. A group with a single image cannot form a batch and is
    reported as an error; an odd group leaves one image over, recorded in
    the schedule metadata.
    """
    rng = np.random.default_rng(seed)
    wanted = [SupervisionTag.FS, SupervisionTag.WS] + (
        [SupervisionTag.US] if include_us else []
    )
    groups: dict[SupervisionTag, list[int]] = {tag: [] for tag in wanted}
    for image in images:
        if image.supervision in groups:
            groups[image.supervision].append(image.image_id)

    entries: list[ScheduleEntry] = []
    leftovers: list[tuple[SupervisionTag, int]] = []
    for tag in wanted:
        ids = groups[tag]
        if len(ids) == 1:
            raise ScheduleError(
                f"supervision set {tag.value} has a single image; cannot form a two-image batch"
            )
        order = rng.permutation(len(ids))
        shuffled = [ids[i] for i in order]
        for a, b in zip(shuffled[0::2], shuffled[1::2]):
            entries.append(ScheduleEntry(a, b, tag))
        if len(shuffled) % 2 == 1:
            leftovers.append((tag, shuffled[-1]))

    mixed = [entries[i] for i in rng.permutation(len(entries))]
    return Schedule(entries=tuple(mixed), leftovers=tuple(leftovers), seed=seed)


def assemble_minibatch(
    image_a: SynthImage,
    image_b: SynthImage,
    *,
    n_classes: int,
    feature_dim: int,
    top_k: int = DEFAULT_TOP_K,
    element_swap_enabled: bool = False,
    pseudo_triplets: Optional[dict[int, Sequence[GroundTruthTriplet]]] = None,
) -> MiniBatch:
    """Build the training batch for one schedule entry.

    FS targets are matched per image (a pair is never matched against the
    other image's ground truth). Element swapping applies only to WS
    batches. US batches require pseudo triplets, keyed by image id, and are
    assembled like FS batches against them.
    """
    if image_a.supervision != image_b.supervision:
        raise ValueError("mini-batches must be homogeneous in supervision")
    tag = image_a.supervision
    pairs_a = build_pairs(image_a, feature_dim, top_k=top_k)
    pairs_b = build_pairs(image_b, feature_dim, top_k=top_k)

    if tag == SupervisionTag.WS:
        pairs = (
            element_swap(pairs_a, pairs_b) if element_swap_enabled else pairs_a + pairs_b
        )
        targets = make_ws_targets(image_a.image_labels, image_b.image_labels, n_classes)
        features = np.stack([p.features for p in pairs])
        return MiniBatch(
            pairs=pairs,
            supervision=tag,
            features=features,
            image_ids=(image_a.image_id, image_b.image_id),
            ws_targets=targets,
        )

    if tag == SupervisionTag.US:
        if pseudo_triplets is None:
            raise ValueError("US batches need pseudo triplets")
        gt_a = pseudo_triplets.get(image_a.image_id, ())
        gt_b = pseudo_triplets.get(image_b.image_id, ())
    else:
        gt_a = image_a.gt_triplets
        gt_b = image_b.gt_triplets

    Y = np.vstack(
        [
            make_fs_targets(pairs_a, gt_a, n_classes),
            make_fs_targets(pairs_b, gt_b, n_classes),
        ]
    )
    pairs = pairs_a + pairs_b
    features = np.stack([p.features for p in pairs])
    return MiniBatch(
        pairs=pairs,
        supervision=tag,
        features=features,
        image_ids=(image_a.image_id, image_b.image_id),
        fs_targets=Y,
    )
