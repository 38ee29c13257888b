"""Mini-batch construction from two images.

Builds within-image human-object pairs (with a per-class top-k confidence
filter), synthesizes cross-image hard negatives for weakly-labeled pairs by
swapping humans and objects between the two images, and constructs
region-level and image-level training targets. The batch schedule pairs
images of a World once, before training, into homogeneous two-image
batches: an (entries, 2) array of image indices, whose tags are those of
the images. Targets come from the world's rows of each image: region-level
ones from its triplets (FS ground truth or US pseudo labels), image-level
ones from its row of the label matrix.

Pairs and region-level targets are built for many images in one pass
(`pair_grids`; `make_fs_targets` matches by mAP's rule, geometry.pair_hits).
Training builds them for a block of BLOCK_ENTRIES consecutive schedule
entries at a time (`prepare_block`), when an iteration first needs an
entry of the block, and `assemble_minibatch` copies one entry's batch out of its block,
which is then dropped. Blocks bound the peak memory: one pass over the whole
schedule would hold every image's pairs and feature temporaries at once.
Training also drops each batch after its last use, so a schedule that is
used once holds the batches of one block at a time.

Element swapping is selection only: `element_swap` returns one WS entry's
kept pairs as rows, and `prepare_block` gathers their features: same-image
rows from the block's grid, and every swapped pair of the block from one
`pair_feature_matrix` call over the world's detection rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .geometry import MATCH_IOU, BoxPairs, pair_hits
# bound only so that the perfbench tracer can count its calls
from .geometry import pair_iou  # noqa: F401
from .supervision import TAGS, SupervisionTag
from .synth_world import DetectionArrays, TripletArrays, World, pair_feature_matrix, row_ranges

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


def _kept(detections: DetectionArrays, first: np.ndarray, counts: np.ndarray, top_k: int):
    """Of the rows first[k]:first[k] + counts[k] of each image k, the rows
    of at most top_k detections per (image, class) by confidence (ties to
    the lower row), in row order, and how many of them each image has."""
    rows = row_ranges(first, counts)
    owner = np.repeat(np.arange(len(first)), counts)
    classes = detections.class_ids[rows]
    at = np.arange(len(rows))
    order = np.lexsort((at, -detections.confidences[rows], classes, owner))
    image, classes = owner[order], classes[order]
    starts = np.flatnonzero(
        np.concatenate([[True], (image[1:] != image[:-1]) | (classes[1:] != classes[:-1])])
    )
    # position in the sorted order minus the position of its group's first entry
    rank = at - np.repeat(starts, np.diff(np.append(starts, len(rows))))
    kept = np.sort(order[rank < top_k])
    return rows[kept], np.bincount(owner[kept], minlength=len(first))


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
    world: World, images: Sequence[int], feature_dim: int, top_k: int = DEFAULT_TOP_K
) -> PairGrid:
    """The human x object pairs of the world's images after top-k
    filtering, in one pass over the detections of all of them; image k of
    the grid is images[k]."""
    images = np.asarray(images, dtype=np.intp)
    if not len(images):
        raise ValueError("pair_grids needs at least one image")
    h_first, n_humans, o_first, n_objects = world.detection_ranges(images)
    kept_h, n_h = _kept(world.detections, h_first, n_humans, top_k)
    kept_o, n_o = _kept(world.detections, o_first, n_objects, top_k)
    empty = (n_h == 0) | (n_o == 0)
    if empty.any():
        image_id = world.image_ids[images[np.argmax(empty)]]
        raise ValueError(f"image {image_id}: empty human or object set after filtering")
    offsets = np.concatenate([[0], np.cumsum(n_h * n_o)])
    owner = np.repeat(np.arange(len(images)), n_h * n_o)
    # pair p of image k pairs its kept human p // n_o[k] with its kept object p % n_o[k]
    p, n_o_row = np.arange(offsets[-1]) - offsets[owner], n_o[owner]
    h = kept_h[(np.cumsum(n_h) - n_h)[owner] + p // n_o_row]
    o = kept_o[(np.cumsum(n_o) - n_o)[owner] + p % n_o_row]
    boxes = world.detections.boxes
    return PairGrid(
        world.image_ids[images],
        offsets,
        h - h_first[owner],
        o - o_first[owner],
        boxes[h],
        boxes[o],
        pair_feature_matrix(world.detections, h, world.detections, o, feature_dim),
    )


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


# per run of element_swap's candidates (image 1's pairs, image 2's, image 1's
# humans with image 2's objects, the reverse): the image (0 or 1) of its
# humans, of its objects, and whether it is swapped
_RUNS = np.array([[0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.intp)


def _factors(grid: PairGrid) -> tuple[np.ndarray, np.ndarray]:
    """The kept humans and the kept objects of a one-image grid, read off
    its human-major layout: the first human's run holds every kept object."""
    humans = grid.human_index
    n_objects = int(np.searchsorted(humans, humans[0], side="right"))
    if len(grid) % n_objects:
        raise ValueError(f"{len(grid)} pairs are not a full human x object product")
    return humans[::n_objects], grid.object_index[:n_objects]


def element_swap(
    grid1: PairGrid, grid2: PairGrid, world: World, image1: int, image2: int
) -> KeptPairs:
    """Cross-image pair selection for two weakly-labeled images.

    Takes each image's own grid (PairGrid.image), then the world and the
    images; a grid that is not a full kept human x kept object product
    raises ValueError, as its layout is where the kept humans and objects
    are read from. Forms the full (H1+H2) x (O1+O2) pool of pairs across both,
    then prunes easy negatives by ascending confidence product (the product
    of the two detector confidences, available before any training and
    stable across epochs) until exactly H1*O1 + H2*O2 pairs remain, the
    original pair count of the two images. Score ties are resolved by
    pruning swapped pairs before same-image pairs, then by (image ids,
    detection indices) for determinism. The pool is ranked on its keys
    alone; prepare_block builds the kept pairs' features.
    """
    if not len(grid1) or not len(grid2):
        raise ValueError("element_swap needs non-empty pair lists from both images")
    images = (int(world.image_ids[image1]), int(world.image_ids[image2]))
    for grid, image_id in zip((grid1, grid2), images):
        ids = grid.image_ids.tolist()
        if ids != [image_id]:
            raise ValueError(f"grid of images {ids} is not image {image_id}'s")
    if images[0] == images[1]:
        raise ValueError("element_swap needs pairs from two distinct images")
    (humans1, objects1), (humans2, objects2) = _factors(grid1), _factors(grid2)
    # the candidates: the grids' pairs, then each image's humans against
    # the other image's objects, human-major
    counts = (len(grid1), len(grid2), len(humans1) * len(objects2), len(humans2) * len(objects1))
    n_same = counts[0] + counts[1]
    h_side, o_side, swapped = np.repeat(_RUNS, counts, axis=1)
    h_index = np.concatenate([
        grid1.human_index, grid2.human_index,
        humans1.repeat(len(objects2)), humans2.repeat(len(objects1)),
    ])
    o_index = np.concatenate([
        grid1.object_index, grid2.object_index,
        *[objects2] * len(humans1), *[objects1] * len(humans2),
    ])
    first_human = world.detection_rows[[image1, image2]]
    first_object = first_human + world.n_humans[[image1, image2]]
    confidences = world.detections.confidences
    product = (
        confidences[first_human[h_side] + h_index] * confidences[first_object[o_side] + o_index]
    )
    # the key, most significant last: -product, swapped, source ids, detection indices
    ids = np.array(images)
    kept = np.lexsort((o_index, h_index, ids[o_side], ids[h_side], swapped, -product))[:n_same]
    return KeptPairs(
        h_side[kept], h_index[kept], o_side[kept], o_index[kept], np.where(kept < n_same, kept, -1)
    )


def make_fs_targets(
    grid: PairGrid,
    truth: TripletArrays,
    owner: np.ndarray,
    n_classes: int,
    iou_threshold: float = MATCH_IOU,
) -> np.ndarray:
    """Region-level binary target matrix of every pair of the grid, whose
    image k has the ground truth rows r of truth with owner[r] == k.

    Y[i, j] = 1 iff some ground-truth triplet of class j of pair i's own
    image overlaps pair i with joint (min of human and object) IoU at or
    above the threshold; a pair is never matched against another image's
    ground truth.
    """
    classes = truth.hoi_classes
    bad = (classes < 0) | (classes >= n_classes)
    if bad.any():
        raise ValueError(f"hoi_class {classes[np.argmax(bad)]} out of range [0, {n_classes})")
    # pairs and ground truth are keyed by their image's place k in the grid
    image = np.repeat(np.arange(len(grid.offsets) - 1), np.diff(grid.offsets))
    pairs = BoxPairs(image, grid.human_boxes, grid.object_boxes)
    row, col, _ = pair_hits(pairs, BoxPairs(owner, truth.human_boxes, truth.object_boxes), iou_threshold)
    Y = np.zeros((len(grid.features), n_classes))
    Y[row, classes[col]] = 1.0
    return Y


@dataclass(frozen=True, eq=False)
class Schedule:
    """Fixed-before-training pairing of images into two-image batches:
    entry e pairs the world's images[e, 0] and images[e, 1], and its tag is
    theirs; leftovers holds the unpaired image of each odd group."""

    images: np.ndarray     # (entries, 2)
    leftovers: np.ndarray  # (odd groups,)


class ScheduleError(ValueError):
    pass


def batch_schedule(world: World, seed: int) -> Schedule:
    """Pair the world's images of equal supervision into batches, once,
    reproducibly.

    One group per tag, each shuffled in the order FS, WS, US; each batch is
    homogeneous, and the stream interleaves the groups in a fixed random
    order. A US image joins only with pseudo labels (triplets), and only if
    another US image has them too. An empty group draws nothing, so adding
    US images leaves the FS and WS pairings as they are. A group with a
    single image, or no entry at all, is reported as an error; an odd group
    leaves its last shuffled image over.
    """
    if len(world) < 2:
        raise ScheduleError(f"a schedule needs two images; the world has {len(world)}")
    codes = world.supervision
    labelled_us = (codes == SupervisionTag.US.code) & (np.diff(world.triplet_rows) > 0)
    if np.count_nonzero(labelled_us) == 1:
        labelled_us[:] = False
    rng = np.random.default_rng(seed)
    pairs, leftovers = [], []
    for tag in (SupervisionTag.FS, SupervisionTag.WS, SupervisionTag.US):
        group = np.flatnonzero(labelled_us if tag == SupervisionTag.US else codes == tag.code)
        if len(group) == 1:
            raise ScheduleError(
                f"supervision set {tag.value} has a single image; cannot form a two-image batch"
            )
        shuffled = group[rng.permutation(len(group))]
        paired = len(group) - len(group) % 2
        pairs.append(shuffled[:paired].reshape(-1, 2))
        leftovers.append(shuffled[paired:])
    images = np.concatenate(pairs)
    if not len(images):
        raise ScheduleError("schedule is empty; no supervision group has two images")
    return Schedule(images[rng.permutation(len(images))], np.concatenate(leftovers))


@dataclass(eq=False)
class BatchBlock:
    """The batch rows of a block of schedule entries, built in one pass:
    entry e's images are the world's images[2e] and images[2e + 1], and its
    batch is rows offsets[2e]:offsets[2e + 2] of features and fs_targets."""

    world: World
    images: np.ndarray      # (2 * entries,)
    offsets: np.ndarray     # (2 * entries + 1,), the offsets of the block's pair grid
    features: np.ndarray    # (pairs, feature_dim)
    fs_targets: np.ndarray  # (pairs, n_classes), zero on the pairs of WS images


def prepare_block(
    world: World,
    entries: np.ndarray,
    *,
    n_classes: int,
    feature_dim: int,
    top_k: int = DEFAULT_TOP_K,
    element_swap_enabled: bool = False,
) -> BatchBlock:
    """Build the batch features and the region-level targets of every
    entry at once: entries is an (n, 2) array of the world's images, such
    as a slice of Schedule.images, taken as it is. A region-level image (FS,
    or US with pseudo labels) is matched against its own triplets; a WS
    image against none.

    Element swapping applies only to WS entries. A swapped entry's rows are
    the pairs element_swap keeps for its two images, in rank order: its
    kept same-image pairs are rows of the block's pair grid, and the kept
    swapped pairs of every entry get their features from one
    pair_feature_matrix call.
    """
    if world.labels.shape[1] != n_classes:
        raise ValueError(f"the world has {world.labels.shape[1]} label classes, not {n_classes}")
    images = np.asarray(entries, dtype=np.intp).reshape(-1)
    codes = world.supervision[images]
    counts = np.diff(world.triplet_rows)[images] * (codes != SupervisionTag.WS.code)
    grid = pair_grids(world, images, feature_dim, top_k)
    truth = world.triplets.take(row_ranges(world.triplet_rows[images], counts))
    fs_targets = make_fs_targets(grid, truth, np.repeat(np.arange(len(images)), counts), n_classes)
    ws = [k for k in range(0, len(images), 2) if codes[k] == codes[k + 1] == SupervisionTag.WS.code]
    if not element_swap_enabled or not ws:
        return BatchBlock(world, images, grid.offsets, grid.features, fs_targets)

    kept = [element_swap(grid.image(k), grid.image(k + 1), world, *images[k : k + 2]) for k in ws]
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
    h_first, _, o_first, _ = world.detection_ranges(images)
    # the swapped entries' rows are rewritten in the grid's own features, so
    # that the block holds one feature matrix; the kept same-image rows are
    # gathered before any row is written
    features = grid.features
    same = features[(first + grid_row)[~cross]]
    features[row[cross]] = pair_feature_matrix(
        world.detections,
        (h_first[image + h_image] + h_index)[cross],
        world.detections,
        (o_first[image + o_image] + o_index)[cross],
        feature_dim,
    )
    features[row[~cross]] = same
    return BatchBlock(world, images, grid.offsets, features, fs_targets)


def assemble_minibatch(block: BatchBlock, entry: int) -> MiniBatch:
    """Copy the training batch of the block's entry out of the block's
    arrays; a WS batch's targets are the union of its two images' labels. A
    batch owns copies of its rows, so that it does not keep its block
    alive."""
    world = block.world
    a, b = block.images[2 * entry : 2 * entry + 2].tolist()
    if world.supervision[a] != world.supervision[b]:
        raise ValueError("mini-batches must be homogeneous in supervision")
    tag = TAGS[world.supervision[a]]
    rows = slice(int(block.offsets[2 * entry]), int(block.offsets[2 * entry + 2]))
    if tag == SupervisionTag.WS:
        targets = (world.labels[a] | world.labels[b]).astype(np.float64)
    else:
        targets = block.fs_targets[rows].copy()
    return MiniBatch(supervision=tag, features=block.features[rows].copy(), targets=targets)
