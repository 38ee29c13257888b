"""Reproducible synthetic interaction-detection world.

Stands in for a real detector + dataset at desk scale. Each image holds
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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


class WorldGenerationError(ValueError):
    """Raised when a config cannot be realized; names the offending field."""


@dataclass(frozen=True)
class WorldConfig:
    n_object_classes: int = 6
    n_verb_classes: int = 4
    n_hoi_classes: int = 24
    n_images: int = 240
    humans_per_image: tuple[int, int] = (1, 2)
    objects_per_image: tuple[int, int] = (1, 3)
    feature_dim: int = 23
    feature_noise_sigma: float = 0.05
    detection_jitter_sigma: float = 0.01
    rare_class_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_object_classes < 1:
            raise WorldGenerationError("n_object_classes: must be >= 1")
        if self.n_verb_classes < 1:
            raise WorldGenerationError("n_verb_classes: must be >= 1")
        if self.n_hoi_classes < 1 or self.n_hoi_classes > self.n_object_classes * self.n_verb_classes:
            raise WorldGenerationError(
                "n_hoi_classes: must be in [1, n_object_classes * n_verb_classes]"
            )
        if self.n_images < 1:
            raise WorldGenerationError("n_images: must be >= 1")
        for name in ("humans_per_image", "objects_per_image"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) == 2 and all(type(v) is int for v in value)):
                raise WorldGenerationError(f"{name}: must be a pair of ints, got {value!r}")
            lo, hi = value
            if lo < 1 or hi < lo:
                raise WorldGenerationError(f"{name}: range [{lo}, {hi}] is empty or below 1")
        if self.feature_dim < 4:
            raise WorldGenerationError("feature_dim: must be >= 4")
        if self.feature_noise_sigma < 0.0:
            raise WorldGenerationError("feature_noise_sigma: must be nonnegative")
        if self.detection_jitter_sigma < 0.0:
            raise WorldGenerationError("detection_jitter_sigma: must be nonnegative")
        if not (0.0 <= self.rare_class_fraction <= 1.0):
            raise WorldGenerationError("rare_class_fraction: must be in [0, 1]")
        if round(self.rare_class_fraction * self.n_hoi_classes) >= self.n_hoi_classes:
            raise WorldGenerationError(
                "rare_class_fraction: at least one class must remain non-rare"
            )

    @property
    def human_class_id(self) -> int:
        """Reserved object-class index that denotes a human detection."""
        return self.n_object_classes


@dataclass(frozen=True, eq=False)
class SynthImage:
    """An image's detections and the supervision it trains with: its
    gt_triplets are an FS image's ground truth or a US image's pseudo labels
    (none until it is pseudo-labelled), its image_labels a WS image's labels."""

    image_id: int
    humans: DetectionArrays
    objects: DetectionArrays
    gt_triplets: TripletArrays
    image_labels: frozenset[int]
    supervision: SupervisionTag = SupervisionTag.FS

    def __post_init__(self) -> None:
        if not len(self.humans) or not len(self.objects):
            raise ValueError("every image needs at least one human and one object detection")

    def with_supervision(self, tag: SupervisionTag) -> "SynthImage":
        """This image tagged tag, keeping only the annotation the tag has:
        FS keeps triplets and labels, WS labels only, US nothing."""
        return dataclasses.replace(
            self,
            supervision=tag,
            gt_triplets=self.gt_triplets if tag == SupervisionTag.FS else NO_TRIPLETS,
            image_labels=frozenset() if tag == SupervisionTag.US else self.image_labels,
        )


def feature_layout(feature_dim: int) -> tuple[int, int, int]:
    """Split feature_dim into (per-detection appearance, spatial, zero pad)."""
    if feature_dim < 4:
        raise ValueError("feature_dim must be >= 4")
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

    def take(self, rows: np.ndarray) -> "DetectionArrays":
        return DetectionArrays(
            self.boxes[rows], self.class_ids[rows], self.confidences[rows], self.appearance[rows]
        )


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


def _sanitize_box(
    x0: float, y0: float, x1: float, y1: float
) -> tuple[float, float, float, float]:
    """Order each axis, clip to the unit canvas and widen a side shorter
    than _MIN_BOX_SIZE about its clipped center (Python float arithmetic)."""
    if x1 < x0:
        x0, x1 = x1, x0
    if y1 < y0:
        y0, y1 = y1, y0
    x0, x1 = max(0.0, x0), min(1.0, x1)
    y0, y1 = max(0.0, y0), min(1.0, y1)
    if x1 - x0 < _MIN_BOX_SIZE:
        mid = min(max(0.5 * (x0 + x1), _MIN_BOX_SIZE), 1.0 - _MIN_BOX_SIZE)
        x0, x1 = mid - 0.5 * _MIN_BOX_SIZE, mid + 0.5 * _MIN_BOX_SIZE
    if y1 - y0 < _MIN_BOX_SIZE:
        mid = min(max(0.5 * (y0 + y1), _MIN_BOX_SIZE), 1.0 - _MIN_BOX_SIZE)
        y0, y1 = mid - 0.5 * _MIN_BOX_SIZE, mid + 0.5 * _MIN_BOX_SIZE
    return x0, y0, x1, y1


def _detection_arrays(rows: list[tuple], embeddings: np.ndarray, sigma: float) -> DetectionArrays:
    """The detections of (box, class id, confidence, appearance noise) rows,
    each appearance its class's prototype plus sigma times its noise."""
    boxes, class_ids, confidences, noise = (np.array(column) for column in zip(*rows))
    return DetectionArrays(boxes, class_ids, confidences, embeddings[class_ids] + sigma * noise)


def _generate_images(
    cfg: WorldConfig,
    n_images: int,
    assignments: list[list[int]],
    humans_per_image: np.ndarray,
    embeddings: np.ndarray,
    rng: np.random.Generator,
    first_image_id: int = 0,
) -> list[SynthImage]:
    """The images, drawn in the order the module docstring fixes. A uniform
    draw on [lo, hi) is lo + (hi - lo) * u for u = random(), as numpy
    computes it, and numpy's normal(0, s) is 0.0 + s * z."""
    sector = 2.0 * np.pi / cfg.n_verb_classes
    app_dim = embeddings.shape[1]
    jitter, sigma = cfg.detection_jitter_sigma, cfg.feature_noise_sigma
    human_id = cfg.human_class_id
    (gt_lo, gt_hi), (distractor_lo, distractor_hi) = _GT_CONF, _DISTRACTOR_CONF
    images = []
    for i in range(n_images):
        n_humans = int(humans_per_image[i])
        u = rng.random(4 * n_humans).tolist()
        human_boxes = []
        for k in range(0, 4 * n_humans, 4):
            ucx, ucy, uw, uh = u[k : k + 4]
            cx, cy = 0.4 + (0.6 - 0.4) * ucx, 0.4 + (0.6 - 0.4) * ucy
            hw, hh = 0.05 + (0.12 - 0.05) * uw, 0.05 + (0.12 - 0.05) * uh
            human_boxes.append((cx - hw, cy - hh, cx + hw, cy + hh))

        classes = assignments[i]
        triplet_humans, object_boxes = [], []
        for hoi_class in classes:
            verb = hoi_class // cfg.n_object_classes
            hx0, hy0, hx1, hy1 = human_box = human_boxes[int(rng.integers(n_humans))]
            hcx, hcy = 0.5 * (hx0 + hx1), 0.5 * (hy0 + hy1)
            ut, ur, uw, uh = rng.random(4).tolist()
            # sample the angle well inside the verb's sector so detection
            # jitter cannot move a pair across the sector boundary
            theta = -np.pi + (verb + 0.15 + 0.7 * ut) * sector
            radius = 0.12 + (0.3 - 0.12) * ur
            ocx = hcx + radius * float(np.cos(theta))
            ocy = hcy + radius * float(np.sin(theta))
            ow, oh = 0.03 + (0.09 - 0.03) * uw, 0.03 + (0.09 - 0.03) * uh
            triplet_humans.append(human_box)
            object_boxes.append(_sanitize_box(ocx - ow, ocy - oh, ocx + ow, ocy + oh))

        humans, objects = [], []
        ground_truth = [(humans, box, human_id) for box in human_boxes] + [
            (objects, box, c % cfg.n_object_classes) for box, c in zip(object_boxes, classes)
        ]
        for rows, (x0, y0, x1, y1), class_id in ground_truth:
            # one block: the 4 box jitters, then the appearance noise
            z = rng.standard_normal(4 + app_dim)
            j0, j1, j2, j3 = z[:4].tolist()
            jittered = _sanitize_box(
                x0 + (0.0 + jitter * j0),
                y0 + (0.0 + jitter * j1),
                x1 + (0.0 + jitter * j2),
                y1 + (0.0 + jitter * j3),
            )
            rows.append((jittered, class_id, gt_lo + (gt_hi - gt_lo) * rng.random(), z[4:]))

        for _ in range(round(_DISTRACTORS_PER_GT * (n_humans + len(classes)))):
            ucx, ucy, uw, uh, coin = rng.random(5).tolist()
            cx, cy = 0.15 + (0.85 - 0.15) * ucx, 0.15 + (0.85 - 0.15) * ucy
            hw, hh = 0.03 + (0.12 - 0.03) * uw, 0.03 + (0.12 - 0.03) * uh
            box = _sanitize_box(cx - hw, cy - hh, cx + hw, cy + hh)
            if coin < _DISTRACTOR_HUMAN_PROB:
                rows, class_id = humans, human_id
            else:
                rows, class_id = objects, int(rng.integers(cfg.n_object_classes))
            noise = rng.standard_normal(app_dim)
            conf = distractor_lo + (distractor_hi - distractor_lo) * rng.random()
            rows.append((box, class_id, conf, noise))

        images.append(
            SynthImage(
                image_id=first_image_id + i,
                humans=_detection_arrays(humans, embeddings, sigma),
                objects=_detection_arrays(objects, embeddings, sigma),
                gt_triplets=TripletArrays(
                    np.array(triplet_humans), np.array(object_boxes), np.array(classes)
                ),
                image_labels=frozenset(classes),
                supervision=SupervisionTag.FS,
            )
        )
    return images


def generate_world(cfg: WorldConfig) -> list[SynthImage]:
    """Generate the training image set; deterministic given cfg.seed."""
    latent_rng, train_rng, _ = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = train_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, cfg.n_images)
    slots = train_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, cfg.n_images)
    assignments = _plan_class_assignments(cfg, slots, train_rng)
    return _generate_images(cfg, cfg.n_images, assignments, humans, embeddings, train_rng)


def generate_eval_images(cfg: WorldConfig, n_images: int) -> list[SynthImage]:
    """Generate a held-out, fully-annotated set sharing the training world's
    latent structure (same seed, separate RNG stream, balanced classes)."""
    latent_rng, _, eval_rng = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = eval_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, n_images)
    slots = eval_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, n_images)
    assignments = _coverage_assignments(cfg, slots, eval_rng)
    return _generate_images(
        cfg, n_images, assignments, humans, embeddings, eval_rng,
        first_image_id=cfg.n_images,
    )


def rare_classes(images: list[SynthImage]) -> set[int]:
    """Classes that appear in at least one but fewer than 10 images."""
    counts: dict[int, int] = {}
    for image in images:
        for c in image.image_labels:
            counts[c] = counts.get(c, 0) + 1
    return {c for c, n in counts.items() if n < RARE_IMAGE_COUNT}


def split_supervision(
    images: list[SynthImage],
    ws_fraction: float,
    fs_fraction: float,
    us_fraction: float,
    seed: int,
) -> list[SynthImage]:
    """Randomly tag images WS/FS/US, each keeping the annotation its tag
    has (SynthImage.with_supervision). Counts follow the fractions with
    largest-remainder rounding (exact to +-1).
    """
    fractions = (ws_fraction, fs_fraction, us_fraction)
    if any(f < 0.0 for f in fractions):
        raise ValueError("fractions must be nonnegative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(images)
    raw = [f * n for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    for _ in range(n - sum(counts)):
        take = int(np.argmax(remainders))
        counts[take] += 1
        remainders[take] = -1.0

    order = np.random.default_rng(seed).permutation(n)
    tags: dict[int, SupervisionTag] = {}
    cursor = 0
    for tag, count in zip((SupervisionTag.WS, SupervisionTag.FS, SupervisionTag.US), counts):
        for idx in order[cursor : cursor + count]:
            tags[int(idx)] = tag
        cursor += count
    return [image.with_supervision(tags[idx]) for idx, image in enumerate(images)]
