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

from .geometry import box_array, pair_iou_matrix
# bound only so that the perfbench tracer can count its calls
from .geometry import pair_iou  # noqa: F401
from .supervision import SupervisionTag
from .synth_world import (
    Detection,
    DetectionArrays,
    GroundTruthTriplet,
    SynthImage,
    pair_feature_matrix,
)

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
    """The pair features and targets of exactly two images with homogeneous
    supervision; a batch holds arrays only, not the pairs of its rows.

    FS batches carry a region-level target matrix, WS batches an image-level
    label vector. US batches are only constructible with pseudo region
    targets and carry them in fs_targets.
    """

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


def _top_k_per_class(detections: DetectionArrays, top_k: int) -> np.ndarray:
    """Indices of at most top_k detections per class by confidence (ties to
    the lower index), in their original order."""
    rows = np.arange(len(detections.class_ids))
    order = np.lexsort((rows, -detections.confidences, detections.class_ids))
    classes = detections.class_ids[order]
    # position in the sorted order minus the position of the class's first entry
    rank_in_class = rows - np.searchsorted(classes, classes)
    return np.sort(order[rank_in_class < top_k])


@dataclass(eq=False)
class PairGrid:
    """Every kept human x kept object pair of one image as arrays, in
    build_pairs order (human-major)."""

    human_index: np.ndarray  # (n,) index into the image's human detections
    object_index: np.ndarray
    humans: DetectionArrays  # row i: the human of pair i
    objects: DetectionArrays
    features: np.ndarray     # (n, feature_dim)


def pair_grid(image: SynthImage, feature_dim: int, top_k: int = DEFAULT_TOP_K) -> PairGrid:
    """All human x object pairs within one image after top-k filtering."""
    if not image.human_detections or not image.object_detections:
        raise ValueError(f"image {image.image_id} has no humans or no objects")
    all_humans = DetectionArrays.of(image.human_detections)
    all_objects = DetectionArrays.of(image.object_detections)
    kept_humans = _top_k_per_class(all_humans, top_k)
    kept_objects = _top_k_per_class(all_objects, top_k)
    if not len(kept_humans) or not len(kept_objects):
        raise ValueError(f"image {image.image_id}: empty human or object set after filtering")
    human_index = np.repeat(kept_humans, len(kept_objects))
    object_index = np.tile(kept_objects, len(kept_humans))
    humans = all_humans.take(human_index)
    objects = all_objects.take(object_index)
    features = pair_feature_matrix(humans, objects, feature_dim)
    return PairGrid(human_index, object_index, humans, objects, features)


def build_pairs(
    image: SynthImage, feature_dim: int, top_k: int = DEFAULT_TOP_K
) -> list[HumanObjectPair]:
    """pair_grid as one HumanObjectPair per pair; each pair's features are a
    row of the grid's feature matrix."""
    grid = pair_grid(image, feature_dim, top_k)
    source = (image.image_id, image.image_id)
    return [
        HumanObjectPair(
            human=image.human_detections[h],
            object=image.object_detections[o],
            human_index=h,
            object_index=o,
            source=source,
            features=features,
            swapped=False,
        )
        for h, o, features in zip(
            grid.human_index.tolist(), grid.object_index.tolist(), grid.features
        )
    ]


def element_swap(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair]
) -> list[HumanObjectPair]:
    """Cross-image pair augmentation for two weakly-labeled images.

    Forms the full (H1+H2) x (O1+O2) pool of pairs across both images, then
    prunes easy negatives by ascending confidence product (the product of
    the two detector confidences, available before any training and stable
    across epochs) until exactly H1*O1 + H2*O2 pairs remain, the original
    pair count of the two images. Score ties are resolved by pruning swapped
    pairs before same-image pairs, then by (image ids, detection indices)
    for determinism. The pool is ranked on its keys alone; pairs and
    features are built only for the swapped pairs that are kept.
    """
    if not pairs1 or not pairs2:
        raise ValueError("element_swap needs non-empty pair lists from both images")

    image1 = pairs1[0].source[0]
    image2 = pairs2[0].source[0]
    if image1 == image2:
        raise ValueError("element_swap needs pairs from two distinct images")
    feature_dim = pairs1[0].features.shape[0]

    # each image's detections, keyed by (image id, detection index)
    found_humans: dict[tuple[int, int], Detection] = {}
    found_objects: dict[tuple[int, int], Detection] = {}
    for image_id, pairs in ((image1, pairs1), (image2, pairs2)):
        for p in pairs:
            found_humans.setdefault((image_id, p.human_index), p.human)
            found_objects.setdefault((image_id, p.object_index), p.object)
    human_dets, object_dets = list(found_humans.values()), list(found_objects.values())
    humans, objects = DetectionArrays.of(human_dets), DetectionArrays.of(object_dets)
    human_ids, object_ids = list(found_humans), list(found_objects)
    human_keys = np.array(human_ids, dtype=np.int64)
    object_keys = np.array(object_ids, dtype=np.int64)

    # the candidates: the given same-image pairs, then every cross-image
    # (human, object), human-major
    same = pairs1 + pairs2
    h_rows = np.repeat(np.arange(len(human_dets)), len(object_dets))
    o_rows = np.tile(np.arange(len(object_dets)), len(human_dets))
    cross = human_keys[h_rows, 0] != object_keys[o_rows, 0]
    h_rows, o_rows = h_rows[cross], o_rows[cross]
    # columns: human image, human index, object image, object index
    same_ids = [(p.source[0], p.human_index, p.source[1], p.object_index) for p in same]
    ids = np.concatenate(
        [np.array(same_ids, dtype=np.int64), np.hstack([human_keys[h_rows], object_keys[o_rows]])]
    )
    product = np.concatenate(
        [
            [p.human.confidence * p.object.confidence for p in same],
            humans.confidences[h_rows] * objects.confidences[o_rows],
        ]
    )
    swapped = np.arange(len(ids)) >= len(same)
    # the key, most significant last: -product, swapped, source ids, detection indices
    kept = np.lexsort((ids[:, 3], ids[:, 1], ids[:, 2], ids[:, 0], swapped, -product))[: len(same)]

    kept_cross = kept[kept >= len(same)] - len(same)
    h_kept, o_kept = h_rows[kept_cross], o_rows[kept_cross]
    features = pair_feature_matrix(humans.take(h_kept), objects.take(o_kept), feature_dim)
    built = iter(
        HumanObjectPair(
            human=human_dets[h],
            object=object_dets[o],
            human_index=human_ids[h][1],
            object_index=object_ids[o][1],
            source=(human_ids[h][0], object_ids[o][0]),
            features=f,
            swapped=True,
        )
        for h, o, f in zip(h_kept.tolist(), o_kept.tolist(), features)
    )
    return [same[k] if k < len(same) else next(built) for k in kept.tolist()]


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
    for t in gt_triplets:
        if not (0 <= t.hoi_class < n_classes):
            raise ValueError(f"hoi_class {t.hoi_class} out of range [0, {n_classes})")
    overlap = pair_iou_matrix(
        box_array([p.human.box for p in pairs]),
        box_array([p.object.box for p in pairs]),
        box_array([t.human_box for t in gt_triplets]),
        box_array([t.object_box for t in gt_triplets]),
    )
    rows, cols = np.nonzero(overlap >= iou_threshold)
    classes = np.array([t.hoi_class for t in gt_triplets], dtype=np.intp)
    Y = np.zeros((len(pairs), n_classes))
    Y[rows, classes[cols]] = 1.0
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
        supervision=tag,
        features=features,
        image_ids=(image_a.image_id, image_b.image_id),
        fs_targets=Y,
    )
