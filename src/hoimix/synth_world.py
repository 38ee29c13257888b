"""Reproducible synthetic interaction-detection world.

Stands in for a real detector + dataset at desk scale. Each image has
ground-truth (human box, object box, interaction class) triplets plus
detections: jittered copies of the ground-truth boxes and lower-confidence
distractor boxes. The interaction class of a triplet is a deterministic
latent rule: the verb is the angular sector of the object center relative
to the human center, and the object class is carried by a noisy
class-indicative appearance vector stored on each detection. Class
frequencies follow a Zipf-like long tail truncated so that a configured
fraction of classes appears in fewer than 10 images.

Everything is a pure function of the config seed: appearance noise is drawn
once per detection at generation time, so feature extraction is
deterministic and works unchanged for cross-image (swapped) pairs.

Draw order is part of the world: changing it makes a different world.
Per image the stream gives, in this order, the human boxes (4 uniforms
each); per triplet an integer picking its human, then 4 uniforms (angle,
radius, half sizes); per human, then per object ground-truth detection 4
jitter normals with its appearance noise, then a uniform confidence; per
distractor 4 box uniforms and a human/object coin, an integer class for an
object, its appearance noise and a uniform confidence. The class plan
fills its leftover slots with one uniform each, as rng.choice(p=...) does.
Code may merge draws of one kind that are already consecutive into one
call (a uniform is one random() each, standard_normal(k) is k scalar
draws), but must never reorder draws across kinds, and never replace an
integers() call by arithmetic on a double: integers rejects and redraws.

The order is unchanged since the draws moved into a loop of their own. For
each run of WORLD_CHUNK images, the loop puts every draw into its rows of a
buffer for the run; the box, confidence and appearance arithmetic then runs
once over the run's columns, with the same float operations per value, and
writes the world's arrays. The world's detections and triplets are checked
once, and the generators return them as one World, in which an image is an
index: its detections and triplets are row ranges, and its tag and labels a
row of per-image arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config_fields import check_fields, ranged
from .geometry import iou_rows
from .supervision import SupervisionTag

# relative layout encoding: offsets, log size ratios, overlap, detector scores
SPATIAL_FEATURES = 7

RARE_IMAGE_COUNT = 10  # classes seen in fewer images than this are "rare"

_GT_CONF = (0.75, 0.999)
_DISTRACTOR_CONF = (0.05, 0.55)
_DISTRACTOR_HUMAN_PROB = 0.25
_DISTRACTORS_PER_GT = 2.0
_MIN_BOX_SIZE = 1e-3
# images drawn and computed at a time: bounds the buffers and temporaries,
# which the allocator keeps as heap after they are freed
WORLD_CHUNK = 64


class WorldGenerationError(ValueError):
    """Raised when a config cannot be realized; names the offending field."""


_COUNT_RANGE = (lambda p: 1 <= p[0] <= p[1], "a range [lo, hi] with 1 <= lo <= hi")


@dataclass(frozen=True)
class WorldConfig:
    n_object_classes: int = ranged(6, lambda x: x >= 1, ">= 1")
    n_verb_classes: int = ranged(4, lambda x: x >= 1, ">= 1")
    n_hoi_classes: int = ranged(24, lambda x: x >= 1, ">= 1")
    n_images: int = ranged(240, lambda x: x >= 1, ">= 1")
    humans_per_image: tuple[int, int] = ranged((1, 2), *_COUNT_RANGE)
    objects_per_image: tuple[int, int] = ranged((1, 3), *_COUNT_RANGE)
    feature_dim: int = ranged(23, lambda x: x >= 4, ">= 4")
    feature_noise_sigma: float = ranged(0.05, lambda x: x >= 0.0, ">= 0")
    detection_jitter_sigma: float = ranged(0.01, lambda x: x >= 0.0, ">= 0")
    rare_class_fraction: float = ranged(0.25, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
    seed: int = ranged(0, lambda x: x >= 0, ">= 0")

    def __post_init__(self) -> None:
        check_fields(self, WorldGenerationError)
        if self.n_hoi_classes > self.n_object_classes * self.n_verb_classes:
            raise WorldGenerationError(
                "n_hoi_classes: must be in [1, n_object_classes * n_verb_classes]"
            )
        try:
            n_rare = round(self.rare_class_fraction * self.n_hoi_classes)
        except OverflowError:  # a count beyond the float range
            raise WorldGenerationError("n_hoi_classes: must not exceed the float range") from None
        if n_rare >= self.n_hoi_classes:
            raise WorldGenerationError(
                "rare_class_fraction: at least one class must remain non-rare"
            )

    @property
    def human_class_id(self) -> int:
        """Reserved object-class index that denotes a human detection."""
        return self.n_object_classes


def feature_layout(feature_dim: int) -> tuple[int, int, int]:
    """Split feature_dim into (per-detection appearance, spatial, zero pad)."""
    app_dim = max(1, (feature_dim - SPATIAL_FEATURES) // 2)
    spatial_dim = min(SPATIAL_FEATURES, feature_dim - 2 * app_dim)
    pad = feature_dim - 2 * app_dim - spatial_dim
    return app_dim, spatial_dim, pad


@dataclass(frozen=True, eq=False)
class DetectionArrays:
    """Detector outputs as arrays, one row per detection: a box, a class, a
    confidence, and the noisy class-indicative appearance vector sampled for
    it at generation time.

    Rejects rows of mismatched length, boxes without positive area and
    confidences outside (0, 1].
    """

    boxes: np.ndarray        # (n, 4) rows of (x_min, y_min, x_max, y_max)
    class_ids: np.ndarray    # (n,) int
    confidences: np.ndarray  # (n,)
    appearance: np.ndarray   # (n, app_dim)

    def __post_init__(self) -> None:
        n = len(self.boxes)
        if (
            self.boxes.shape != (n, 4)
            or self.class_ids.shape != (n,)
            or self.confidences.shape != (n,)
            or self.appearance.ndim != 2
            or len(self.appearance) != n
        ):
            raise ValueError(
                f"detection rows disagree: boxes {self.boxes.shape}, class_ids "
                f"{self.class_ids.shape}, confidences {self.confidences.shape}, "
                f"appearance {self.appearance.shape}"
            )
        _reject_degenerate(self.boxes, "box")
        c = self.confidences
        # written so that NaN fails the check
        out_of_range = ~((0.0 < c) & (c <= 1.0))
        if out_of_range.any():
            i = int(np.argmax(out_of_range))
            raise ValueError(f"confidence in row {i} must be in (0, 1], got {c[i]}")

    def __len__(self) -> int:
        return len(self.boxes)


def _reject_degenerate(boxes: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first of the box rows without positive
    area; written so that NaN fails both checks."""
    degenerate = ~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise ValueError(f"degenerate {what} in row {i}: {boxes[i].tolist()} has no positive area")


@dataclass(frozen=True, eq=False)
class TripletArrays:
    """(human box, object box, interaction class) triplets as arrays, one
    row per triplet: an image's ground truth, or its pseudo labels.

    Rejects rows of mismatched length and boxes without positive area.
    """

    human_boxes: np.ndarray   # (k, 4) rows of (x_min, y_min, x_max, y_max)
    object_boxes: np.ndarray  # (k, 4)
    hoi_classes: np.ndarray   # (k,) int

    def __post_init__(self) -> None:
        k = len(self.hoi_classes)
        if (
            self.human_boxes.shape != (k, 4)
            or self.object_boxes.shape != (k, 4)
            or self.hoi_classes.shape != (k,)
        ):
            raise ValueError(
                f"triplet rows disagree: human_boxes {self.human_boxes.shape}, object_boxes "
                f"{self.object_boxes.shape}, hoi_classes {self.hoi_classes.shape}"
            )
        _reject_degenerate(self.human_boxes, "human box")
        _reject_degenerate(self.object_boxes, "object box")

    def __len__(self) -> int:
        return len(self.hoi_classes)

    def take(self, rows: np.ndarray) -> "TripletArrays":
        return TripletArrays(self.human_boxes[rows], self.object_boxes[rows], self.hoi_classes[rows])


NO_TRIPLETS = TripletArrays(np.empty((0, 4)), np.empty((0, 4)), np.empty(0, dtype=np.intp))


def stack_triplets(parts: Sequence[TripletArrays]) -> TripletArrays:
    """The rows of every part, in order, as one set."""
    return TripletArrays(
        *(
            np.concatenate([getattr(t, name) for t in (NO_TRIPLETS, *parts)])
            for name in ("human_boxes", "object_boxes", "hoi_classes")
        )
    )


def row_ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The rows first[i]:first[i] + counts[i] of every i, in order."""
    ends = np.cumsum(counts)
    return np.repeat(first - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


@dataclass(frozen=True, eq=False)
class World:
    """A set of images as arrays; an image is its index.

    Image i's detections are rows detection_rows[i]:detection_rows[i + 1]
    of detections, its n_humans[i] humans first, then its objects. Its
    triplets are rows triplet_rows[i]:triplet_rows[i + 1] of triplets: an
    FS image's ground truth, a US image's pseudo labels (none until it is
    pseudo-labelled), none for a WS image. Row i of labels holds its
    image-level labels (none for a US image), and supervision[i] the code
    of its tag (SupervisionTag.code).

    Rejects offsets that disagree with the arrays, and an image without a
    human or an object detection.
    """

    image_ids: np.ndarray       # (n,)
    supervision: np.ndarray     # (n,) int8
    detections: DetectionArrays
    detection_rows: np.ndarray  # (n + 1,)
    n_humans: np.ndarray        # (n,)
    triplets: TripletArrays
    triplet_rows: np.ndarray    # (n + 1,)
    labels: np.ndarray          # (n, n_classes) bool

    def __post_init__(self) -> None:
        n = len(self.image_ids)
        tables = ((self.detection_rows, self.detections), (self.triplet_rows, self.triplets))
        if not (
            self.supervision.shape == self.n_humans.shape == (n,) == self.labels.shape[:1]
            and self.labels.ndim == 2
            and all(
                rows.shape == (n + 1,) and rows[0] == 0 and rows[-1] == len(table)
                and (np.diff(rows) >= 0).all()
                for rows, table in tables
            )
        ):
            raise ValueError(f"the offsets of a world of {n} images disagree with its arrays")
        empty = (self.n_humans < 1) | (np.diff(self.detection_rows) - self.n_humans < 1)
        if empty.any():
            raise ValueError(
                f"image {self.image_ids[np.argmax(empty)]}: every image needs at least "
                f"one human and one object detection"
            )

    def __len__(self) -> int:
        return len(self.image_ids)

    def detection_ranges(self, images: np.ndarray) -> tuple[np.ndarray, ...]:
        """The first human row, the number of humans, the first object row
        and the number of objects of each of the images."""
        first, n_humans = self.detection_rows[images], self.n_humans[images]
        return first, n_humans, first + n_humans, self.detection_rows[images + 1] - first - n_humans

    def triplet_owner(self) -> np.ndarray:
        """The image of every triplet row."""
        return np.repeat(np.arange(len(self)), np.diff(self.triplet_rows))

    def annotated(
        self, supervision: np.ndarray, triplets: TripletArrays, owner: np.ndarray, labels: np.ndarray
    ) -> "World":
        """These images and detections with another annotation: the tag
        codes, the triplets, whose row r is image owner[r]'s (owner is
        nondecreasing), and the label matrix."""
        return dataclasses.replace(
            self,
            supervision=supervision.astype(np.int8),
            triplets=triplets,
            triplet_rows=_offsets(np.bincount(owner, minlength=len(self))),
            labels=labels,
        )

    def tagged(self, supervision: np.ndarray) -> "World":
        """Image i tagged with code supervision[i], keeping only the
        annotation its tag has: FS keeps triplets and labels, WS labels
        only, US nothing."""
        owner = self.triplet_owner()
        keep = (supervision == SupervisionTag.FS.code)[owner]
        labels = self.labels & (supervision != SupervisionTag.US.code)[:, None]
        return self.annotated(supervision, self.triplets.take(keep), owner[keep], labels)

    def with_triplets(self, images: Sequence[int], parts: Sequence[TripletArrays]) -> "World":
        """The triplet rows of images[j] replaced by parts[j], for every j."""
        owner = self.triplet_owner()
        keep = ~np.isin(owner, images)
        added = np.repeat(np.asarray(images, dtype=np.intp), [len(t) for t in parts])
        owner = np.concatenate([owner[keep], added])
        order = np.argsort(owner, kind="stable")
        triplets = stack_triplets([self.triplets.take(keep), *parts]).take(order)
        return self.annotated(self.supervision, triplets, owner[order], self.labels)


def pair_feature_matrix(
    humans: DetectionArrays, h: np.ndarray, objects: DetectionArrays, o: np.ndarray, feature_dim: int
) -> np.ndarray:
    """Feature rows of (human, object) pairs: row i pairs humans row h[i]
    with objects row o[i].

    Layout: [human appearance | object appearance | spatial block | pad].
    The spatial block is computed from the two boxes' coordinates as-is, so
    it applies unchanged to swapped pairs whose detections come from two
    different images. Deterministic given the world seed.
    """
    app_dim, spatial_dim, _ = feature_layout(feature_dim)
    if humans.appearance.shape[1:] != (app_dim,) or objects.appearance.shape[1:] != (app_dim,):
        raise ValueError(
            f"appearance dim mismatch: expected {app_dim} per detection for "
            f"feature_dim {feature_dim}"
        )
    hb, ob = humans.boxes[h], objects.boxes[o]
    hw, hh = hb[:, 2] - hb[:, 0], hb[:, 3] - hb[:, 1]
    ow, oh = ob[:, 2] - ob[:, 0], ob[:, 3] - ob[:, 1]
    # uniform scale keeps the relative angle intact, unlike per-axis scaling
    scale = np.sqrt(hw * hh)
    spatial = [
        (0.5 * (ob[:, 0] + ob[:, 2]) - 0.5 * (hb[:, 0] + hb[:, 2])) / scale,
        (0.5 * (ob[:, 1] + ob[:, 3]) - 0.5 * (hb[:, 1] + hb[:, 3])) / scale,
        np.log(ow / hw),
        np.log(oh / hh),
        iou_rows(hb, ob),
        humans.confidences[h],
        objects.confidences[o],
    ][:spatial_dim]
    out = np.zeros((len(hb), feature_dim))  # the pad columns stay zero
    out[:, :app_dim] = humans.appearance[h]
    out[:, app_dim : 2 * app_dim] = objects.appearance[o]
    out[:, 2 * app_dim : 2 * app_dim + spatial_dim] = np.transpose(spatial)
    return out


def _class_embeddings(cfg: WorldConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm appearance prototype per object class plus the human class."""
    app_dim, _, _ = feature_layout(cfg.feature_dim)
    emb = rng.standard_normal((cfg.n_object_classes + 1, app_dim))
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return emb / np.maximum(norms, 1e-12)


def _seed_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    latent, train, evalset = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(latent),
        np.random.default_rng(train),
        np.random.default_rng(evalset),
    )


def _plan_class_assignments(
    cfg: WorldConfig, slots_per_image: np.ndarray, rng: np.random.Generator
) -> list[list[int]]:
    """Assign an interaction class to every triplet slot.

    Non-rare classes are first guaranteed a floor of distinct images, rare
    classes get 1..9 distinct images, and leftover slots are filled from a
    Zipf-weighted draw over the non-rare classes. The result is a per-image
    list of classes, one per slot.
    """
    n_images = len(slots_per_image)
    total_slots = int(slots_per_image.sum())
    n_rare = round(cfg.rare_class_fraction * cfg.n_hoi_classes)
    rare_ids = sorted(rng.choice(cfg.n_hoi_classes, size=n_rare, replace=False).tolist())
    nonrare_ids = [c for c in range(cfg.n_hoi_classes) if c not in set(rare_ids)]

    floor = RARE_IMAGE_COUNT if n_images >= RARE_IMAGE_COUNT else 1
    base_need = floor * len(nonrare_ids) + n_rare
    if total_slots < base_need:
        raise WorldGenerationError(
            f"n_images: {n_images} images with {total_slots} triplet slots cannot "
            f"cover {len(nonrare_ids)} non-rare classes x {floor} images plus "
            f"{n_rare} rare classes (need {base_need}); raise n_images or "
            f"objects_per_image, or lower n_hoi_classes"
        )

    slack = total_slots - base_need
    rare_counts = {}
    for c in rare_ids:
        extra = int(rng.integers(0, min(RARE_IMAGE_COUNT - 2, slack) + 1)) if slack > 0 else 0
        rare_counts[c] = 1 + extra
        slack -= extra

    # distinct-image assignment with a rotating pointer over a shuffled order
    remaining = slots_per_image.astype(int).copy()
    image_order = rng.permutation(n_images)
    pointer = 0
    per_image: list[list[int]] = [[] for _ in range(n_images)]

    def assign_distinct(class_id: int, n_needed: int) -> None:
        nonlocal pointer
        used: set[int] = set()
        scanned = 0
        while len(used) < n_needed:
            if scanned > 2 * n_images:
                raise WorldGenerationError(
                    f"n_images: could not place class {class_id} in {n_needed} "
                    f"distinct images; raise n_images or objects_per_image"
                )
            img = int(image_order[pointer % n_images])
            pointer += 1
            scanned += 1
            if img in used or remaining[img] <= 0:
                continue
            per_image[img].append(class_id)
            remaining[img] -= 1
            used.add(img)
            scanned = 0

    for c in nonrare_ids:
        assign_distinct(c, floor)
    for c in rare_ids:
        assign_distinct(c, rare_counts[c])

    if nonrare_ids:
        ranks = rng.permutation(len(nonrare_ids))
        weights = 1.0 / (ranks + 1.0)
        weights /= weights.sum()
        # one rng.choice(nonrare_ids, p=weights) per leftover slot, drawn as
        # one block: choice maps random() through this cdf the same way
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        u = rng.random(int(remaining.sum()))
        fill = np.asarray(nonrare_ids)[cdf.searchsorted(u, side="right")].tolist()
        cursor = 0
        for classes, n in zip(per_image, remaining.tolist()):
            classes.extend(fill[cursor : cursor + n])
            cursor += n

    for classes in per_image:
        rng.shuffle(classes)
    return per_image


def _coverage_assignments(
    cfg: WorldConfig, slots_per_image: np.ndarray, rng: np.random.Generator
) -> list[list[int]]:
    """Balanced class assignment for evaluation sets: cycle shuffled class
    lists so every class is covered as evenly as the slot budget allows."""
    total = int(slots_per_image.sum())
    classes: list[int] = []
    while len(classes) < total:
        classes.extend(rng.permutation(cfg.n_hoi_classes).tolist())
    per_image = []
    cursor = 0
    for n in slots_per_image:
        per_image.append(classes[cursor : cursor + int(n)])
        cursor += int(n)
    return per_image


def _sanitize_boxes(boxes: np.ndarray) -> np.ndarray:
    """The (n, 4) boxes with each axis ordered, clipped to the unit canvas,
    and a side shorter than _MIN_BOX_SIZE widened about its clipped center.
    Each np.where takes the branch that Python's comparisons, max and min
    take on one box's floats, so the rows have the bits of the per-box
    arithmetic (tests/world_reference.py sanitize_box)."""
    out = np.empty_like(boxes)
    for axis in (0, 1):
        lo, hi = boxes[:, axis], boxes[:, axis + 2]
        swap = hi < lo
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        lo, hi = np.where(lo > 0.0, lo, 0.0), np.where(hi < 1.0, hi, 1.0)
        mid = 0.5 * (lo + hi)
        mid = np.where(_MIN_BOX_SIZE > mid, _MIN_BOX_SIZE, mid)
        mid = np.where(1.0 - _MIN_BOX_SIZE < mid, 1.0 - _MIN_BOX_SIZE, mid)
        narrow = hi - lo < _MIN_BOX_SIZE
        out[:, axis] = np.where(narrow, mid - 0.5 * _MIN_BOX_SIZE, lo)
        out[:, axis + 2] = np.where(narrow, mid + 0.5 * _MIN_BOX_SIZE, hi)
    return out


def _centered_boxes(center: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Boxes of (cx, cy) centers and (half width, half height) sides."""
    return np.hstack([center - half, center + half])


def _draw_images(
    cfg: WorldConfig, counts: np.ndarray, app_dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Every draw of a run of images, in the order the module docstring
    fixes, each into its rows of a buffer for the run, and nothing else.
    Row i of counts is image i's (humans, triplets, ground-truth detections,
    distractors), so its rows are known before its draws. Of the detection
    rows of z, the ground-truth ones of every image come first, then the
    distractors."""
    h_first, t_first, g_first, d_first = np.cumsum(
        np.vstack([[0, 0, 0, 0], counts]), axis=0
    ).T.tolist()
    n_truths = g_first[-1]
    u_human = np.empty((h_first[-1], 4))
    pick = np.empty(t_first[-1], dtype=np.intp)  # the triplet's human, in its image
    u_triplet = np.empty((t_first[-1], 4))  # angle, radius, half sizes
    u_truth = np.empty(n_truths)  # confidence
    u_distractor = np.empty((d_first[-1], 6))  # box, human/object coin, confidence
    # row-major: distractor d's confidence is followed by d + 1's box and coin
    u_flat = u_distractor.reshape(-1)
    distractor_class = np.full(d_first[-1], cfg.human_class_id)
    # box jitter (ground truth only), then appearance noise
    z = np.empty((n_truths + d_first[-1], 4 + app_dim))
    for i, n_humans in enumerate(counts[:, 0].tolist()):
        rng.random(out=u_human[h_first[i] : h_first[i + 1]])
        for t in range(t_first[i], t_first[i + 1]):
            pick[t] = rng.integers(n_humans)
            rng.random(out=u_triplet[t])
        for g in range(g_first[i], g_first[i + 1]):
            rng.standard_normal(out=z[g])
            u_truth[g] = rng.random()
        d_stop = d_first[i + 1]
        if d_first[i] < d_stop:
            rng.random(out=u_distractor[d_first[i], :5])
        for d in range(d_first[i], d_stop):
            if not u_distractor[d, 4] < _DISTRACTOR_HUMAN_PROB:
                distractor_class[d] = rng.integers(cfg.n_object_classes)
            rng.standard_normal(out=z[n_truths + d, 4:])
            # its confidence, then the next distractor's box and coin, in one call
            rng.random(out=u_flat[6 * d + 5 : 6 * d + (11 if d + 1 < d_stop else 6)])
    return u_human, pick, u_triplet, u_truth, u_distractor, distractor_class, z


def _image_columns(
    cfg: WorldConfig,
    counts: np.ndarray,
    classes: np.ndarray,
    embeddings: np.ndarray,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The detection columns (boxes, class ids, confidences, appearance)
    and the triplet boxes (human, object) of a run of images, and each
    image's number of human detections. Its detection rows go image by
    image, each image's humans before its objects; row i of counts is image
    i's, and classes are its triplets' classes.

    The draws come first; the arithmetic then runs once over the run's
    columns. A uniform draw on [lo, hi) is lo + (hi - lo) * u for u =
    random(), as numpy computes it, and numpy's normal(0, s) is 0.0 + s * z."""
    u_human, pick, u_triplet, u_truth, u_distractor, distractor_class, z = _draw_images(
        cfg, counts, embeddings.shape[1], rng
    )
    n_humans, n_triplets, n_truths, n_distractors = counts.T
    n_images, n_truth_rows = len(counts), len(u_truth)
    truth_is_human = np.arange(n_truth_rows) < np.repeat(
        np.cumsum(n_truths) - n_triplets, n_truths
    )
    is_human = np.concatenate([truth_is_human, u_distractor[:, 4] < _DISTRACTOR_HUMAN_PROB])
    image = np.repeat(np.tile(np.arange(n_images), 2), np.concatenate([n_truths, n_distractors]))
    # image by image, each image's humans before its objects, draw order within
    order = np.argsort(2 * image + ~is_human, kind="stable")

    def image_rows(truth_rows, distractor_rows):
        return np.concatenate([truth_rows, distractor_rows])[order]

    human_boxes = _centered_boxes(
        0.4 + (0.6 - 0.4) * u_human[:, :2], 0.05 + (0.12 - 0.05) * u_human[:, 2:]
    )
    triplet_humans = human_boxes[np.repeat(np.cumsum(n_humans) - n_humans, n_triplets) + pick]
    # sample the angle well inside the verb's sector so detection jitter
    # cannot move a pair across the sector boundary
    sector = 2.0 * np.pi / cfg.n_verb_classes
    theta = -np.pi + (classes // cfg.n_object_classes + 0.15 + 0.7 * u_triplet[:, 0]) * sector
    radius = 0.12 + (0.3 - 0.12) * u_triplet[:, 1]
    direction = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    center = 0.5 * (triplet_humans[:, :2] + triplet_humans[:, 2:]) + radius[:, None] * direction
    object_boxes = _sanitize_boxes(_centered_boxes(center, 0.03 + (0.09 - 0.03) * u_triplet[:, 2:]))

    truth_boxes = np.empty((n_truth_rows, 4))
    truth_boxes[truth_is_human], truth_boxes[~truth_is_human] = human_boxes, object_boxes
    truth_boxes += 0.0 + cfg.detection_jitter_sigma * z[:n_truth_rows, :4]
    distractor_boxes = _centered_boxes(
        0.15 + (0.85 - 0.15) * u_distractor[:, :2], 0.03 + (0.12 - 0.03) * u_distractor[:, 2:4]
    )
    truth_class = np.full(n_truth_rows, cfg.human_class_id)
    truth_class[~truth_is_human] = classes % cfg.n_object_classes
    class_ids = image_rows(truth_class, distractor_class)
    (gt_lo, gt_hi), (distractor_lo, distractor_hi) = _GT_CONF, _DISTRACTOR_CONF
    appearance = z[order, 4:]
    appearance *= cfg.feature_noise_sigma
    appearance += embeddings[class_ids]
    detections = (
        image_rows(_sanitize_boxes(truth_boxes), _sanitize_boxes(distractor_boxes)),
        class_ids,
        image_rows(
            gt_lo + (gt_hi - gt_lo) * u_truth,
            distractor_lo + (distractor_hi - distractor_lo) * u_distractor[:, 5],
        ),
        appearance,
    )
    n_human_rows = np.bincount(image[is_human], minlength=n_images)
    return detections, (triplet_humans, object_boxes), n_human_rows


def _generate_images(
    cfg: WorldConfig,
    assignments: list[list[int]],
    humans_per_image: np.ndarray,
    embeddings: np.ndarray,
    rng: np.random.Generator,
    first_image_id: int = 0,
) -> World:
    """The images, WORLD_CHUNK at a time into the world's arrays, which are
    then checked once; every image is tagged FS, with its ground truth and
    its labels."""
    n_triplets = np.array([len(classes) for classes in assignments], dtype=np.intp)
    n_truths = humans_per_image + n_triplets  # ground-truth detections: humans, then objects
    n_distractors = np.round(_DISTRACTORS_PER_GT * n_truths).astype(np.intp)
    counts = np.stack([humans_per_image, n_triplets, n_truths, n_distractors], axis=1)
    d_first, t_first = _offsets(n_truths + n_distractors), _offsets(n_triplets)
    classes = np.array([c for image_classes in assignments for c in image_classes], dtype=np.intp)
    n_rows, app_dim = d_first[-1], embeddings.shape[1]
    columns = (  # boxes, class ids, confidences, appearance
        np.empty((n_rows, 4)),
        np.empty(n_rows, np.intp),
        np.empty(n_rows),
        np.empty((n_rows, app_dim)),
    )
    triplet_boxes = (np.empty((t_first[-1], 4)), np.empty((t_first[-1], 4)))
    n_human_rows = np.empty(len(assignments), dtype=np.intp)
    chunks = list(range(0, len(assignments), WORLD_CHUNK)) + [len(assignments)]
    for a, b in zip(chunks, chunks[1:]):
        rows, t_rows = slice(d_first[a], d_first[b]), slice(t_first[a], t_first[b])
        detection_part, triplet_part, n_human_rows[a:b] = _image_columns(
            cfg, counts[a:b], classes[t_rows], embeddings, rng
        )
        for world, part in zip(columns, detection_part):
            world[rows] = part
        for world, part in zip(triplet_boxes, triplet_part):
            world[t_rows] = part
    n = len(assignments)
    labels = np.zeros((n, cfg.n_hoi_classes), dtype=bool)
    labels[np.repeat(np.arange(n), n_triplets), classes] = True
    detections, triplets = DetectionArrays(*columns), TripletArrays(*triplet_boxes, classes)
    ids, supervision = first_image_id + np.arange(n), np.zeros(n, dtype=np.int8)  # all FS
    return World(ids, supervision, detections, d_first, n_human_rows, triplets, t_first, labels)


def generate_world(cfg: WorldConfig) -> World:
    """Generate the training image set; deterministic given cfg.seed."""
    latent_rng, train_rng, _ = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = train_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, cfg.n_images)
    slots = train_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, cfg.n_images)
    assignments = _plan_class_assignments(cfg, slots, train_rng)
    return _generate_images(cfg, assignments, humans, embeddings, train_rng)


def generate_eval_images(cfg: WorldConfig, n_images: int) -> World:
    """Generate a held-out, fully-annotated set sharing the training world's
    latent structure (same seed, separate RNG stream, balanced classes)."""
    latent_rng, _, eval_rng = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = eval_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, n_images)
    slots = eval_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, n_images)
    assignments = _coverage_assignments(cfg, slots, eval_rng)
    return _generate_images(
        cfg, assignments, humans, embeddings, eval_rng, first_image_id=cfg.n_images
    )


def rare_classes(world: World) -> set[int]:
    """Classes that appear in at least one but fewer than 10 images."""
    counts = world.labels.sum(axis=0)
    return set(np.flatnonzero((counts > 0) & (counts < RARE_IMAGE_COUNT)).tolist())


def split_supervision(
    world: World,
    ws_fraction: float,
    fs_fraction: float,
    us_fraction: float,
    seed: int,
) -> World:
    """Randomly tag images WS/FS/US, each keeping the annotation its tag
    has (World.tagged). Counts follow the fractions with largest-remainder
    rounding (exact to +-1).
    """
    fractions = (ws_fraction, fs_fraction, us_fraction)
    # written so that NaN fails both checks
    if not all(0.0 <= f for f in fractions):
        raise ValueError("fractions must be nonnegative")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(world)
    raw = [f * n for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    for _ in range(n - sum(counts)):
        take = int(np.argmax(remainders))
        counts[take] += 1
        remainders[take] = -1.0

    supervision = np.empty(n, dtype=np.int8)
    order = np.random.default_rng(seed).permutation(n)
    codes = [tag.code for tag in (SupervisionTag.WS, SupervisionTag.FS, SupervisionTag.US)]
    supervision[order] = np.repeat(codes, counts)
    return world.tagged(supervision)
