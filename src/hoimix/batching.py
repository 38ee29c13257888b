"""Mini-batch construction from two images.

Builds within-image human-object pairs (with a per-class top-k confidence
filter), synthesizes cross-image hard negatives for weakly-labeled pairs by
swapping humans and objects between the two images, and constructs
region-level and image-level training targets. The batch schedule pairs
images once, before training, into homogeneous two-image batches. Targets
come from each image's own annotation: region-level ones from its
gt_triplets (FS ground truth or US pseudo labels), image-level ones from
its image_labels.

Pairs and region-level targets are built for many images in one pass
(`pair_grids`; `make_fs_targets` matches by mAP's rule, geometry.pair_hits).
Training builds them for a block of BLOCK_ENTRIES consecutive schedule
entries at a time (`prepare_block`), when its iterations first reach the
block, and `assemble_minibatch` copies one entry's batch out of its block,
which is then dropped. Blocks bound the peak memory: one pass over the whole
schedule would hold every image's pairs and feature temporaries at once.
Training also drops each batch after its last use, so a schedule that is
used once holds the batches of one block at a time.

Element swapping is selection only: `element_swap` returns one WS entry's
kept pairs as rows, and `prepare_block` gathers their features: same-image
rows from the block's grid, and every swapped pair of the block from one
`pair_feature_matrix` call over the detections the grid was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .geometry import MATCH_IOU, BoxPairs, pair_hits
# bound only so that the perfbench tracer can count its calls
from .geometry import pair_iou  # noqa: F401
from .supervision import SupervisionTag
from .synth_world import (
    NO_TRIPLETS,
    DetectionArrays,
    SynthImage,
    TripletArrays,
    pair_feature_matrix,
    stack_detections,
    stack_triplets,
)

DEFAULT_TOP_K = 30
# schedule entries whose pairs and targets are built in one pass; larger
# blocks are faster, but a block's pairs are all held at once, and so are
# its batches while a one-pass schedule trains on them
BLOCK_ENTRIES = 64


@dataclass(frozen=True, eq=False)
class MiniBatch:
    """The pair features and targets of exactly two images with homogeneous
    supervision; a batch holds arrays only, not the pairs of its rows.

    The targets are a region-level (N, C) matrix when the supervision is
    region-level (FS, and US with pseudo labels), and an image-level (C,)
    label vector for WS.

    A batch is checked once, when it is built: finite non-empty 2-d float64
    features, and binary targets of matching shape. Its arrays are then
    read-only, so the losses use a batch's targets without checking them
    again on each of its reuses.
    """

    supervision: SupervisionTag
    features: np.ndarray  # (N, feature_dim)
    image_ids: tuple[int, int]
    targets: np.ndarray  # (N, C) if supervision.region_level, else (C,)

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError(f"features must be a non-empty 2-d matrix, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        targets = np.asarray(self.targets, dtype=np.float64)
        expected_ndim = 2 if self.supervision.region_level else 1
        if targets.ndim != expected_ndim:
            raise ValueError(f"targets must be {expected_ndim}-d, got shape {targets.shape}")
        if expected_ndim == 2 and targets.shape[0] != features.shape[0]:
            raise ValueError(
                f"targets have {targets.shape[0]} rows for {features.shape[0]} feature rows"
            )
        if not np.all((targets == 0.0) | (targets == 1.0)):
            raise ValueError("targets must be binary (entries in {0, 1})")
        for name, array in (("features", features), ("targets", targets)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _top_k_per_class(owner: np.ndarray, detections: DetectionArrays, top_k: int) -> np.ndarray:
    """Rows of at most top_k detections per (image, class) by confidence
    (ties to the lower row), in row order; owner[r] is the image of row r."""
    rows = np.arange(len(owner))
    order = np.lexsort((rows, -detections.confidences, detections.class_ids, owner))
    image, classes = owner[order], detections.class_ids[order]
    starts = np.flatnonzero(
        np.concatenate([[True], (image[1:] != image[:-1]) | (classes[1:] != classes[:-1])])
    )
    # position in the sorted order minus the position of its group's first entry
    rank = rows - np.repeat(starts, np.diff(np.append(starts, len(rows))))
    return np.sort(order[rank < top_k])


def _kept(detections: Sequence[DetectionArrays], top_k: int):
    """The detections of several images stacked into one set, the first
    row of each image in it, the rows the top-k filter keeps, and how many
    of them each image has."""
    stacked = stack_detections(detections)
    first = np.cumsum([0] + [len(d) for d in detections])
    owner = np.repeat(np.arange(len(detections)), np.diff(first))
    kept = _top_k_per_class(owner, stacked, top_k)
    return stacked, first, kept, np.bincount(owner[kept], minlength=len(detections))


class PairRow(tuple):
    """One pair of a PairGrid, (human_index, object_index); a plain tuple
    with C-level field getters, cheaper to build per row than a namedtuple."""

    __slots__ = ()
    human_index = property(itemgetter(0))
    object_index = property(itemgetter(1))


@dataclass(eq=False)
class PairGrid:
    """Every kept human x kept object pair of a run of images as arrays.

    Image k's pairs are rows offsets[k]:offsets[k + 1], human-major: each
    kept human, in detection order, against every kept object.
    """

    image_ids: np.ndarray     # (n_images,)
    offsets: np.ndarray       # (n_images + 1,), from 0 to the number of pairs
    human_index: np.ndarray   # (n,) index into the pair's image's human detections
    object_index: np.ndarray
    human_boxes: np.ndarray   # (n, 4), row i: the box of pair i's human
    object_boxes: np.ndarray
    features: np.ndarray      # (n, feature_dim)

    def __len__(self) -> int:
        return len(self.human_index)

    def __iter__(self) -> Iterator[PairRow]:
        """The pairs as (human_index, object_index) rows; only the perfbench
        tracer walks a grid this way, to count element_swap's candidates."""
        return map(PairRow, zip(self.human_index.tolist(), self.object_index.tolist()))

    def image(self, k: int) -> "PairGrid":
        """Image k's pairs as a grid of their own, of views into this one."""
        at = slice(int(self.offsets[k]), int(self.offsets[k + 1]))
        return PairGrid(
            self.image_ids[k : k + 1],
            np.array([0, at.stop - at.start]),
            self.human_index[at],
            self.object_index[at],
            self.human_boxes[at],
            self.object_boxes[at],
            self.features[at],
        )


def pair_grids(
    images: Sequence[SynthImage], feature_dim: int, top_k: int = DEFAULT_TOP_K
) -> PairGrid:
    """The human x object pairs of every image after top-k filtering, in
    one pass over the detections of all of them; image k of the grid is
    images[k]."""
    return _grid_and_detections(images, feature_dim, top_k)[0]


def _grid_and_detections(images: Sequence[SynthImage], feature_dim: int, top_k: int):
    """pair_grids' grid, and the detections it pairs: the human and the
    object detections of all the images stacked into one set each, and the
    first row of each image in them."""
    if not images:
        raise ValueError("pair_grids needs at least one image")
    humans, h_first, kept_h, n_h = _kept([image.humans for image in images], top_k)
    objects, o_first, kept_o, n_o = _kept([image.objects for image in images], top_k)
    empty = (n_h == 0) | (n_o == 0)
    if empty.any():
        image_id = images[int(np.argmax(empty))].image_id
        raise ValueError(f"image {image_id}: empty human or object set after filtering")
    offsets = np.concatenate([[0], np.cumsum(n_h * n_o)])
    owner = np.repeat(np.arange(len(images)), n_h * n_o)
    # pair p of image k pairs its kept human p // n_o[k] with its kept object p % n_o[k]
    p, n_o_row = np.arange(offsets[-1]) - offsets[owner], n_o[owner]
    h = kept_h[(np.cumsum(n_h) - n_h)[owner] + p // n_o_row]
    o = kept_o[(np.cumsum(n_o) - n_o)[owner] + p % n_o_row]
    grid = PairGrid(
        np.array([image.image_id for image in images]),
        offsets,
        h - h_first[owner],
        o - o_first[owner],
        humans.boxes[h],
        objects.boxes[o],
        pair_feature_matrix(humans, h, objects, o, feature_dim),
    )
    return grid, (humans, h_first), (objects, o_first)


@dataclass(eq=False)
class KeptPairs:
    """The pairs element_swap keeps for two images, in rank order. Pair i
    pairs row human_index[i] of the human detections of image
    human_image[i] (0 for the first image, 1 for the second) with row
    object_index[i] of the object detections of image object_image[i].
    A same-image pair is row grid_row[i] of the two images' grids, the
    first image's rows then the second's; a swapped pair has grid_row -1."""

    human_image: np.ndarray
    human_index: np.ndarray
    object_image: np.ndarray
    object_index: np.ndarray
    grid_row: np.ndarray

    def __len__(self) -> int:
        return len(self.grid_row)


def element_swap(
    grid1: PairGrid, grid2: PairGrid, image1: SynthImage, image2: SynthImage
) -> KeptPairs:
    """Cross-image pair selection for two weakly-labeled images.

    Takes each image's own grid (PairGrid.image) and the image. Forms the
    full (H1+H2) x (O1+O2) pool of pairs across both images, then prunes
    easy negatives by ascending confidence product (the product of the two
    detector confidences, available before any training and stable across
    epochs) until exactly H1*O1 + H2*O2 pairs remain, the original pair
    count of the two images. Score ties are resolved by pruning swapped
    pairs before same-image pairs, then by (image ids, detection indices)
    for determinism. The pool is ranked on its keys alone and the kept
    pairs are returned as rows; prepare_block builds their features.
    """
    if not len(grid1) or not len(grid2):
        raise ValueError("element_swap needs non-empty pair lists from both images")
    for grid, image in ((grid1, image1), (grid2, image2)):
        ids = grid.image_ids.tolist()
        if ids != [image.image_id]:
            raise ValueError(f"grid of images {ids} is not image {image.image_id}'s")
    images = (image1.image_id, image2.image_id)
    if images[0] == images[1]:
        raise ValueError("element_swap needs pairs from two distinct images")

    # the detections of both images are numbered image 1's first; the
    # candidates are (human, object) numbers: the grids' pairs, then each
    # image's humans against the other image's objects, human-major
    n_humans1, n_objects1 = len(image1.humans), len(image1.objects)
    h1, o1 = grid1.human_index, grid1.object_index
    h2, o2 = grid2.human_index + n_humans1, grid2.object_index + n_objects1
    n_same = len(h1) + len(h2)
    h_rows, o_rows = [h1, h2], [o1, o2]
    for h, o in ((np.unique(h1), np.unique(o2)), (np.unique(h2), np.unique(o1))):
        h_rows.append(np.repeat(h, len(o)))
        o_rows.append(np.tile(o, len(h)))
    h, o = np.concatenate(h_rows), np.concatenate(o_rows)
    # which image each candidate's human and object come from (0 or 1)
    h_side, o_side = (h >= n_humans1).astype(np.intp), (o >= n_objects1).astype(np.intp)
    h_index, o_index = h - n_humans1 * h_side, o - n_objects1 * o_side
    product = (
        np.concatenate([image1.humans.confidences, image2.humans.confidences])[h]
        * np.concatenate([image1.objects.confidences, image2.objects.confidences])[o]
    )
    swapped = np.arange(len(h)) >= n_same
    # the key, most significant last: -product, swapped, source ids, detection indices
    kept = np.lexsort(
        (o_index, h_index, np.take(images, o_side), np.take(images, h_side), swapped, -product)
    )[:n_same]
    return KeptPairs(
        h_side[kept], h_index[kept], o_side[kept], o_index[kept], np.where(kept < n_same, kept, -1)
    )


def make_fs_targets(
    grid: PairGrid,
    truths: Sequence[TripletArrays],
    n_classes: int,
    iou_threshold: float = MATCH_IOU,
) -> np.ndarray:
    """Region-level binary target matrix of every pair of the grid, whose
    image k has the ground truth truths[k].

    Y[i, j] = 1 iff some ground-truth triplet of class j of pair i's own
    image overlaps pair i with joint (min of human and object) IoU at or
    above the threshold; a pair is never matched against another image's
    ground truth.
    """
    flat = stack_triplets(truths)
    classes = flat.hoi_classes
    bad = (classes < 0) | (classes >= n_classes)
    if bad.any():
        raise ValueError(f"hoi_class {classes[np.argmax(bad)]} out of range [0, {n_classes})")
    # pairs and ground truth are keyed by their image's place k in the grid
    image = np.arange(len(truths))
    pairs = BoxPairs(np.repeat(image, np.diff(grid.offsets)), grid.human_boxes, grid.object_boxes)
    gt = BoxPairs(np.repeat(image, [len(t) for t in truths]), flat.human_boxes, flat.object_boxes)
    row, col, _ = pair_hits(pairs, gt, iou_threshold)
    Y = np.zeros((len(grid.features), n_classes))
    Y[row, classes[col]] = 1.0
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


class ScheduleError(ValueError):
    pass


def batch_schedule(images: list[SynthImage], seed: int) -> Schedule:
    """Pair images of equal supervision into batches, once, reproducibly.

    One group per tag, each shuffled in the order FS, WS, US; each batch is
    homogeneous, and the stream interleaves the groups in a fixed random
    order. An empty group draws nothing, so adding US images leaves the FS
    and WS pairings as they are. A group with a single image cannot form a
    batch and is reported as an error; an odd group leaves one image over,
    recorded in the schedule metadata.
    """
    rng = np.random.default_rng(seed)
    order = (SupervisionTag.FS, SupervisionTag.WS, SupervisionTag.US)
    groups: dict[SupervisionTag, list[int]] = {tag: [] for tag in order}
    for image in images:
        groups[image.supervision].append(image.image_id)

    entries: list[ScheduleEntry] = []
    leftovers: list[tuple[SupervisionTag, int]] = []
    for tag in order:
        ids = groups[tag]
        if len(ids) == 1:
            raise ScheduleError(
                f"supervision set {tag.value} has a single image; cannot form a two-image batch"
            )
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        for a, b in zip(shuffled[0::2], shuffled[1::2]):
            entries.append(ScheduleEntry(a, b, tag))
        if len(shuffled) % 2 == 1:
            leftovers.append((tag, shuffled[-1]))

    mixed = [entries[i] for i in rng.permutation(len(entries))]
    return Schedule(entries=tuple(mixed), leftovers=tuple(leftovers))


@dataclass(eq=False)
class BatchBlock:
    """The batch rows of a block of schedule entries, built in one pass:
    entry e's images are images[2e] and images[2e + 1], and its batch is
    rows offsets[2e]:offsets[2e + 2] of features and fs_targets."""

    images: list[SynthImage]
    offsets: np.ndarray     # (2 * entries + 1,), the offsets of the block's pair grid
    features: np.ndarray    # (pairs, feature_dim)
    fs_targets: np.ndarray  # (pairs, n_classes), zero on the pairs of WS images


def prepare_block(
    entries: Sequence[tuple[SynthImage, SynthImage]],
    *,
    n_classes: int,
    feature_dim: int,
    top_k: int = DEFAULT_TOP_K,
    element_swap_enabled: bool = False,
) -> BatchBlock:
    """Build the batch features and the region-level targets of every
    entry at once. A region-level image (FS, or US with pseudo labels) is
    matched against its own gt_triplets; a WS image against none.

    Element swapping applies only to WS entries. A swapped entry's rows are
    the pairs element_swap keeps for its two images, in rank order: its
    kept same-image pairs are rows of the block's pair grid, and the kept
    swapped pairs of every entry get their features from one
    pair_feature_matrix call.
    """
    images = [image for entry in entries for image in entry]
    truths = [
        image.gt_triplets if image.supervision.region_level else NO_TRIPLETS for image in images
    ]
    grid, (humans, h_first), (objects, o_first) = _grid_and_detections(images, feature_dim, top_k)
    fs_targets = make_fs_targets(grid, truths, n_classes)
    tags = [image.supervision for image in images]
    ws = [k for k in range(0, len(tags), 2) if tags[k] == tags[k + 1] == SupervisionTag.WS]
    if not element_swap_enabled or not ws:
        return BatchBlock(images, grid.offsets, grid.features, fs_targets)

    kept = [element_swap(grid.image(k), grid.image(k + 1), images[k], images[k + 1]) for k in ws]
    n_kept = [len(pairs) for pairs in kept]
    image = np.repeat(ws, n_kept)  # the first image of each kept pair's entry
    first = grid.offsets[image]  # the entry's first row
    # kept pair i of an entry is the entry's batch row i
    row = first + np.arange(len(image)) - np.repeat(np.cumsum(n_kept) - n_kept, n_kept)
    grid_row, h_image, h_index, o_image, o_index = (
        np.concatenate([getattr(pairs, name) for pairs in kept])
        for name in ("grid_row", "human_image", "human_index", "object_image", "object_index")
    )
    cross = grid_row < 0
    # the swapped entries' rows are rewritten in the grid's own features, so
    # that the block holds one feature matrix; the kept same-image rows are
    # gathered before any row is written
    features = grid.features
    same = features[(first + grid_row)[~cross]]
    features[row[cross]] = pair_feature_matrix(
        humans,
        (h_first[image + h_image] + h_index)[cross],
        objects,
        (o_first[image + o_image] + o_index)[cross],
        feature_dim,
    )
    features[row[~cross]] = same
    return BatchBlock(images, grid.offsets, features, fs_targets)


def assemble_minibatch(block: BatchBlock, entry: int) -> MiniBatch:
    """Copy the training batch of the block's entry out of the block's
    arrays. A batch owns copies of its rows, so that it does not keep its
    block alive."""
    image_a, image_b = block.images[2 * entry], block.images[2 * entry + 1]
    if image_a.supervision != image_b.supervision:
        raise ValueError("mini-batches must be homogeneous in supervision")
    tag = image_a.supervision
    rows = slice(int(block.offsets[2 * entry]), int(block.offsets[2 * entry + 2]))
    if tag == SupervisionTag.WS:
        n_classes = block.fs_targets.shape[1]
        targets = make_ws_targets(image_a.image_labels, image_b.image_labels, n_classes)
    else:
        targets = block.fs_targets[rows].copy()
    return MiniBatch(
        supervision=tag,
        features=block.features[rows].copy(),
        image_ids=(image_a.image_id, image_b.image_id),
        targets=targets,
    )
