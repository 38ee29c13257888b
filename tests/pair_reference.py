"""Per-detection, per-pair and per-image references for detections, pair
features, the top-k filter, pair grids, region-level targets, element
swapping and batch assembly.

The references are the original implementation: one Detection object per
detection, which checks its confidence while its Box checks its area; one
pair-feature computation per (human, object) pair, with a scalar iou; a
per-class top-k filter that sorts each class in Python; and an element_swap
that builds a HumanObjectPair with its features for every cross-image
candidate before it sorts them all. The per-pair references read one row
of a DetectionArrays at a time. The per-image references build one image's
pair grid and region-level targets at a time, and assemble one schedule
entry's batch from them. The array path in hoimix must reproduce their
output byte for byte, and accept exactly the detections they accept.
pair_iou_matrix, the pair IoU of every pair against every pair, serves
fs_targets and the per-image evaluation reference, and make_ws_targets the
image-level targets of one entry. block_swap gives what
the array path keeps for one WS entry in the reference's form, one
HumanObjectPair per kept pair, so that the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hoimix.batching import (
    DEFAULT_TOP_K,
    MiniBatch,
    PairGrid,
    element_swap,
    pair_grids,
    prepare_block,
)
from hoimix.geometry import MATCH_IOU, iou, iou_rows
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import NO_TRIPLETS, DetectionArrays, feature_layout, pair_feature_matrix

from box_reference import Box, GroundTruthTriplet, box_array, triplet_objects
from image_reference import SynthImage, world_of


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector output as its own object; building it runs the
    per-detection checks (the Box rejects a box without positive area)."""

    box: Box
    class_id: int
    confidence: float
    appearance: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")


def detection_arrays(detections: Sequence[Detection]) -> DetectionArrays:
    """The detections as arrays, row k from detections[k]; not empty."""
    return DetectionArrays(
        box_array([d.box for d in detections]),
        np.array([d.class_id for d in detections], dtype=np.intp),
        np.array([d.confidence for d in detections], dtype=np.float64),
        np.array([d.appearance for d in detections], dtype=np.float64),
    )


@dataclass(eq=False)
class HumanObjectPair:
    """One candidate pair: row human_index of its human's image's human
    detections and row object_index of its object's image's object
    detections."""

    humans: DetectionArrays  # the human detections of the human's image
    objects: DetectionArrays  # the object detections of the object's image
    human_index: int
    object_index: int
    source: tuple[int, int]  # (image_id of human, image_id of object)
    features: np.ndarray

    @property
    def swapped(self) -> bool:
        """True iff human and object come from different images."""
        return self.source[0] != self.source[1]


def build_pairs(image: SynthImage, grid: PairGrid) -> list[HumanObjectPair]:
    """The rows of the image's own grid (one image of pair_grids, see
    PairGrid.image) as one HumanObjectPair per pair, the form
    reference_element_swap takes; each pair's features are a row of the
    grid's feature matrix."""
    ids = grid.image_ids.tolist()
    if ids != [image.image_id]:
        raise ValueError(f"grid of images {ids} is not image {image.image_id}'s")
    source = (image.image_id, image.image_id)
    return [
        HumanObjectPair(
            humans=image.humans,
            objects=image.objects,
            human_index=h,
            object_index=o,
            source=source,
            features=features,
        )
        for h, o, features in zip(
            grid.human_index.tolist(), grid.object_index.tolist(), grid.features
        )
    ]


def take_detections(detections: DetectionArrays, rows: np.ndarray) -> DetectionArrays:
    """The given rows of the detections, in that order, as a checked set."""
    return DetectionArrays(
        detections.boxes[rows],
        detections.class_ids[rows],
        detections.confidences[rows],
        detections.appearance[rows],
    )


def reference_pair_features(
    humans: DetectionArrays, h: int, objects: DetectionArrays, o: int, feature_dim: int
) -> np.ndarray:
    """Feature vector of the pair (humans row h, objects row o), computed
    with scalars."""
    app_dim, spatial_dim, pad = feature_layout(feature_dim)
    human_app, object_app = humans.appearance[h], objects.appearance[o]
    if human_app.shape != (app_dim,) or object_app.shape != (app_dim,):
        raise ValueError(
            f"appearance dim mismatch: expected {app_dim} per detection for "
            f"feature_dim {feature_dim}"
        )
    hb, ob = Box.from_list(humans.boxes[h]), Box.from_list(objects.boxes[o])
    hcx, hcy = hb.center()
    ocx, ocy = ob.center()
    scale = float(np.sqrt(hb.width * hb.height))
    spatial = np.array(
        [
            (ocx - hcx) / scale,
            (ocy - hcy) / scale,
            np.log(ob.width / hb.width),
            np.log(ob.height / hb.height),
            iou(hb, ob),
            float(humans.confidences[h]),
            float(objects.confidences[o]),
        ]
    )[:spatial_dim]
    out = np.concatenate([human_app, object_app, spatial, np.zeros(pad)])
    if out.shape != (feature_dim,):
        raise ValueError(f"feature vector has dim {out.shape[0]}, expected {feature_dim}")
    return out


def reference_top_k(detections: DetectionArrays, top_k: int) -> list[int]:
    """Rows kept by the per-class top-k confidence filter, in order."""
    by_class: dict[int, list[tuple[int, float]]] = {}
    for idx, (class_id, confidence) in enumerate(
        zip(detections.class_ids.tolist(), detections.confidences.tolist())
    ):
        by_class.setdefault(class_id, []).append((idx, confidence))
    keep: set[int] = set()
    for entries in by_class.values():
        ranked = sorted(entries, key=lambda e: (-e[1], e[0]))
        keep.update(idx for idx, _ in ranked[:top_k])
    return [idx for idx in range(len(detections)) if idx in keep]


def confidence_product(pair: HumanObjectPair) -> float:
    """Easy-negative score: product of the two detector confidences."""
    return float(
        pair.humans.confidences[pair.human_index] * pair.objects.confidences[pair.object_index]
    )


def reference_swap_candidates(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair]
) -> list[HumanObjectPair]:
    """Every (H1+H2) x (O1+O2) candidate of two images' same-image pairs:
    the given pairs, then a new pair with its features for every swapped
    (human, object) of the humans and objects they use."""
    if not pairs1 or not pairs2:
        raise ValueError("element_swap needs non-empty pair lists from both images")

    image1 = pairs1[0].source[0]
    image2 = pairs2[0].source[0]
    if image1 == image2:
        raise ValueError("element_swap needs pairs from two distinct images")
    feature_dim = pairs1[0].features.shape[0]

    def collect(pairs: list[HumanObjectPair]):
        """The detections of the pairs' image and the rows its pairs use."""
        humans = sorted({p.human_index for p in pairs})
        objects = sorted({p.object_index for p in pairs})
        return pairs[0].humans, humans, pairs[0].objects, objects

    humans1, h_rows1, objects1, o_rows1 = collect(pairs1)
    humans2, h_rows2, objects2, o_rows2 = collect(pairs2)

    candidates = list(pairs1) + list(pairs2)
    for h_img, humans, h_rows in ((image1, humans1, h_rows1), (image2, humans2, h_rows2)):
        for o_img, objects, o_rows in ((image1, objects1, o_rows1), (image2, objects2, o_rows2)):
            if h_img == o_img:
                continue
            for h in h_rows:
                for o in o_rows:
                    candidates.append(
                        HumanObjectPair(
                            humans=humans,
                            objects=objects,
                            human_index=h,
                            object_index=o,
                            source=(h_img, o_img),
                            features=reference_pair_features(humans, h, objects, o, feature_dim),
                        )
                    )
    return candidates


def reference_element_swap(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair]
) -> list[HumanObjectPair]:
    """Build every (H1+H2) x (O1+O2) candidate, sort, keep H1*O1 + H2*O2."""
    candidates = reference_swap_candidates(pairs1, pairs2)
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
    return candidates[: len(pairs1) + len(pairs2)]


def block_swap(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair], top_k: int = DEFAULT_TOP_K
) -> list[HumanObjectPair]:
    """What the array path keeps for the WS entry of two images, given as
    their same-image pairs (build_pairs of grids filtered at top_k), in the
    form reference_element_swap returns: element_swap selects the pairs,
    and each pair's features are its row of the entry's batch from
    prepare_block. A kept same-image pair is the given pair, whose indices
    and features its batch row must match; a kept swapped pair is new."""
    images = tuple(
        SynthImage(
            image_id=pairs[0].source[0],
            humans=pairs[0].humans,
            objects=pairs[0].objects,
            gt_triplets=NO_TRIPLETS,
            image_labels=frozenset(),
            supervision=SupervisionTag.WS,
        )
        for pairs in (pairs1, pairs2)
    )
    feature_dim = pairs1[0].features.shape[0]
    world = world_of(images, 1)
    block = prepare_block(
        world, [(0, 1)], n_classes=1, feature_dim=feature_dim, top_k=top_k, element_swap_enabled=True
    )
    grid = pair_grids(world, [0, 1], feature_dim, top_k)
    kept = element_swap(grid.image(0), grid.image(1), world, 0, 1)
    same = list(pairs1) + list(pairs2)
    out = []
    for k, (side_h, h, side_o, o, row) in enumerate(
        zip(
            kept.human_image.tolist(),
            kept.human_index.tolist(),
            kept.object_image.tolist(),
            kept.object_index.tolist(),
            kept.grid_row.tolist(),
        )
    ):
        features = block.features[k]
        if row >= 0:
            pair = same[row]
            assert (pair.human_index, pair.object_index, pair.source[0]) == (h, o, pair.source[1])
            assert pair.features.tobytes() == features.tobytes()
        else:
            pair = HumanObjectPair(
                humans=images[side_h].humans,
                objects=images[side_o].objects,
                human_index=h,
                object_index=o,
                source=(images[side_h].image_id, images[side_o].image_id),
                features=features,
            )
        out.append(pair)
    return out


def top_k_per_class(detections: DetectionArrays, top_k: int) -> np.ndarray:
    """Indices of at most top_k detections per class by confidence (ties to
    the lower index), in their original order; one image's detections."""
    rows = np.arange(len(detections.class_ids))
    order = np.lexsort((rows, -detections.confidences, detections.class_ids))
    classes = detections.class_ids[order]
    # position in the sorted order minus the position of the class's first entry
    rank_in_class = rows - np.searchsorted(classes, classes)
    return np.sort(order[rank_in_class < top_k])


def pair_grid(image: SynthImage, feature_dim: int, top_k: int = DEFAULT_TOP_K) -> PairGrid:
    """All human x object pairs within one image after top-k filtering, as
    the grid of that image alone."""
    kept_humans = top_k_per_class(image.humans, top_k)
    kept_objects = top_k_per_class(image.objects, top_k)
    if not len(kept_humans) or not len(kept_objects):
        raise ValueError(f"image {image.image_id}: empty human or object set after filtering")
    human_index = np.repeat(kept_humans, len(kept_objects))
    object_index = np.tile(kept_objects, len(kept_humans))
    humans, objects = image.humans, image.objects
    features = pair_feature_matrix(humans, human_index, objects, object_index, feature_dim)
    return PairGrid(
        np.array([image.image_id]),
        np.array([0, len(human_index)]),
        human_index,
        object_index,
        humans.boxes[human_index],
        objects.boxes[object_index],
        features,
    )


def pair_iou_matrix(
    human_a: np.ndarray, object_a: np.ndarray, human_b: np.ndarray, object_b: np.ndarray
) -> np.ndarray:
    """pair_iou of every pair in a against every pair in b.

    The arguments are (n, 4) and (m, 4) arrays of box rows; the result is
    (n, m), and each entry equals pair_iou of the two pairs bit for bit.
    """
    return np.minimum(
        iou_rows(human_a[:, None, :], human_b[None, :, :]),
        iou_rows(object_a[:, None, :], object_b[None, :, :]),
    )


def fs_targets(
    human_boxes: np.ndarray,
    object_boxes: np.ndarray,
    gt_triplets: Sequence[GroundTruthTriplet],
    n_classes: int,
    iou_threshold: float = MATCH_IOU,
) -> np.ndarray:
    """Region-level binary target matrix of one image's pairs, whose boxes
    are the rows of human_boxes and object_boxes, against its ground truth."""
    for t in gt_triplets:
        if not (0 <= t.hoi_class < n_classes):
            raise ValueError(f"hoi_class {t.hoi_class} out of range [0, {n_classes})")
    overlap = pair_iou_matrix(
        human_boxes,
        object_boxes,
        box_array([t.human_box for t in gt_triplets]),
        box_array([t.object_box for t in gt_triplets]),
    )
    rows, cols = np.nonzero(overlap >= iou_threshold)
    classes = np.array([t.hoi_class for t in gt_triplets], dtype=np.intp)
    Y = np.zeros((len(human_boxes), n_classes))
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


def reference_assemble_minibatch(
    image_a: SynthImage,
    image_b: SynthImage,
    *,
    n_classes: int,
    feature_dim: int,
    top_k: int = DEFAULT_TOP_K,
    element_swap_enabled: bool = False,
) -> MiniBatch:
    """The batch of one schedule entry, from the grids and targets of its two
    images built one image at a time; a region-level image's targets come
    from its own gt_triplets."""
    if image_a.supervision != image_b.supervision:
        raise ValueError("mini-batches must be homogeneous in supervision")
    tag = image_a.supervision
    grids = [pair_grid(image, feature_dim, top_k) for image in (image_a, image_b)]

    if tag == SupervisionTag.WS:
        if element_swap_enabled:
            pairs = reference_element_swap(
                build_pairs(image_a, grids[0]), build_pairs(image_b, grids[1])
            )
            features = np.stack([p.features for p in pairs])
        else:
            features = np.vstack([grid.features for grid in grids])
        targets = make_ws_targets(image_a.image_labels, image_b.image_labels, n_classes)
        return MiniBatch(supervision=tag, features=features, targets=targets)

    truth = [triplet_objects(image_a.gt_triplets), triplet_objects(image_b.gt_triplets)]
    features = np.vstack([grid.features for grid in grids])
    Y = np.vstack(
        [
            fs_targets(grid.human_boxes, grid.object_boxes, gt, n_classes)
            for grid, gt in zip(grids, truth)
        ]
    )
    return MiniBatch(supervision=tag, features=features, targets=Y)
