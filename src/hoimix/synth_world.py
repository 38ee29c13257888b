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
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .geometry import Box, iou
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
            lo, hi = getattr(self, name)
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
class Detection:
    """One detector output: a box, a class, a confidence, and the noisy
    class-indicative appearance vector sampled for it at generation time."""

    box: Box
    class_id: int
    confidence: float
    appearance: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")


@dataclass(frozen=True)
class GroundTruthTriplet:
    human_box: Box
    object_box: Box
    hoi_class: int


@dataclass(frozen=True, eq=False)
class SynthImage:
    image_id: int
    human_detections: tuple[Detection, ...]
    object_detections: tuple[Detection, ...]
    gt_triplets: tuple[GroundTruthTriplet, ...]
    image_labels: frozenset[int]
    supervision: SupervisionTag = SupervisionTag.FS

    def __post_init__(self) -> None:
        if not self.human_detections or not self.object_detections:
            raise ValueError("every image needs at least one human and one object detection")


@dataclass(frozen=True)
class HoiTaxonomy:
    """Deterministic mapping between interaction classes and (verb, object)."""

    n_object_classes: int
    n_verb_classes: int
    n_hoi_classes: int

    def verb_of(self, hoi_class: int) -> int:
        return hoi_class // self.n_object_classes

    def object_of(self, hoi_class: int) -> int:
        return hoi_class % self.n_object_classes

    @classmethod
    def from_config(cls, cfg: WorldConfig) -> "HoiTaxonomy":
        return cls(cfg.n_object_classes, cfg.n_verb_classes, cfg.n_hoi_classes)


def feature_layout(feature_dim: int) -> tuple[int, int, int]:
    """Split feature_dim into (per-detection appearance, spatial, zero pad)."""
    if feature_dim < 4:
        raise ValueError("feature_dim must be >= 4")
    app_dim = max(1, (feature_dim - SPATIAL_FEATURES) // 2)
    spatial_dim = min(SPATIAL_FEATURES, feature_dim - 2 * app_dim)
    pad = feature_dim - 2 * app_dim - spatial_dim
    return app_dim, spatial_dim, pad


def pair_features(human: Detection, obj: Detection, feature_dim: int) -> np.ndarray:
    """Feature vector for one (human, object) pair.

    Layout: [human appearance | object appearance | spatial block | pad].
    The spatial block is computed from the two boxes' coordinates as-is, so
    it applies unchanged to swapped pairs whose detections come from two
    different images. Deterministic given the world seed.
    """
    app_dim, spatial_dim, pad = feature_layout(feature_dim)
    if human.appearance.shape != (app_dim,) or obj.appearance.shape != (app_dim,):
        raise ValueError(
            f"appearance dim mismatch: expected {app_dim} per detection for "
            f"feature_dim {feature_dim}"
        )
    hb, ob = human.box, obj.box
    hcx, hcy = hb.center()
    ocx, ocy = ob.center()
    # uniform scale keeps the relative angle intact, unlike per-axis scaling
    scale = float(np.sqrt(hb.width * hb.height))
    spatial = np.array(
        [
            (ocx - hcx) / scale,
            (ocy - hcy) / scale,
            np.log(ob.width / hb.width),
            np.log(ob.height / hb.height),
            iou(hb, ob),
            human.confidence,
            obj.confidence,
        ]
    )[:spatial_dim]
    out = np.concatenate([human.appearance, obj.appearance, spatial, np.zeros(pad)])
    if out.shape != (feature_dim,):
        raise ValueError(f"feature vector has dim {out.shape[0]}, expected {feature_dim}")
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
        for img in range(n_images):
            while remaining[img] > 0:
                per_image[img].append(int(rng.choice(nonrare_ids, p=weights)))
                remaining[img] -= 1

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


def _sanitize_box(coords: np.ndarray) -> Box:
    x0, x1 = sorted((float(coords[0]), float(coords[2])))
    y0, y1 = sorted((float(coords[1]), float(coords[3])))
    x0, x1 = max(0.0, x0), min(1.0, x1)
    y0, y1 = max(0.0, y0), min(1.0, y1)
    if x1 - x0 < _MIN_BOX_SIZE:
        mid = min(max(0.5 * (x0 + x1), _MIN_BOX_SIZE), 1.0 - _MIN_BOX_SIZE)
        x0, x1 = mid - 0.5 * _MIN_BOX_SIZE, mid + 0.5 * _MIN_BOX_SIZE
    if y1 - y0 < _MIN_BOX_SIZE:
        mid = min(max(0.5 * (y0 + y1), _MIN_BOX_SIZE), 1.0 - _MIN_BOX_SIZE)
        y0, y1 = mid - 0.5 * _MIN_BOX_SIZE, mid + 0.5 * _MIN_BOX_SIZE
    return Box(x0, y0, x1, y1)


def _jittered(box: Box, sigma: float, rng: np.random.Generator) -> Box:
    coords = np.array(box.as_list()) + rng.normal(0.0, sigma, size=4)
    return _sanitize_box(coords)


def _make_detection(
    box: Box,
    class_id: int,
    conf_range: tuple[float, float],
    embeddings: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> Detection:
    app = embeddings[class_id] + sigma * rng.standard_normal(embeddings.shape[1])
    conf = float(rng.uniform(*conf_range))
    return Detection(box=box, class_id=class_id, confidence=conf, appearance=app)


def _generate_images(
    cfg: WorldConfig,
    n_images: int,
    assignments: list[list[int]],
    humans_per_image: np.ndarray,
    embeddings: np.ndarray,
    taxonomy: HoiTaxonomy,
    rng: np.random.Generator,
    first_image_id: int = 0,
) -> list[SynthImage]:
    sector = 2.0 * np.pi / cfg.n_verb_classes
    images = []
    for i in range(n_images):
        n_humans = int(humans_per_image[i])
        human_boxes = []
        for _ in range(n_humans):
            cx, cy = rng.uniform(0.4, 0.6, size=2)
            hw, hh = rng.uniform(0.05, 0.12, size=2)
            human_boxes.append(Box(cx - hw, cy - hh, cx + hw, cy + hh))

        triplets = []
        for hoi_class in assignments[i]:
            verb = taxonomy.verb_of(hoi_class)
            human_box = human_boxes[int(rng.integers(n_humans))]
            hcx, hcy = human_box.center()
            # sample the angle well inside the verb's sector so detection
            # jitter cannot move a pair across the sector boundary
            theta = -np.pi + (verb + 0.15 + 0.7 * rng.random()) * sector
            radius = rng.uniform(0.12, 0.3)
            ocx = hcx + radius * np.cos(theta)
            ocy = hcy + radius * np.sin(theta)
            ow, oh = rng.uniform(0.03, 0.09, size=2)
            object_box = _sanitize_box(np.array([ocx - ow, ocy - oh, ocx + ow, ocy + oh]))
            triplets.append(GroundTruthTriplet(human_box, object_box, hoi_class))

        sigma = cfg.feature_noise_sigma
        humans = [
            _make_detection(
                _jittered(b, cfg.detection_jitter_sigma, rng),
                cfg.human_class_id,
                _GT_CONF,
                embeddings,
                sigma,
                rng,
            )
            for b in human_boxes
        ]
        objects = [
            _make_detection(
                _jittered(t.object_box, cfg.detection_jitter_sigma, rng),
                taxonomy.object_of(t.hoi_class),
                _GT_CONF,
                embeddings,
                sigma,
                rng,
            )
            for t in triplets
        ]

        n_distractors = round(_DISTRACTORS_PER_GT * (n_humans + len(triplets)))
        for _ in range(n_distractors):
            cx, cy = rng.uniform(0.15, 0.85, size=2)
            hw, hh = rng.uniform(0.03, 0.12, size=2)
            box = _sanitize_box(np.array([cx - hw, cy - hh, cx + hw, cy + hh]))
            if rng.random() < _DISTRACTOR_HUMAN_PROB:
                humans.append(
                    _make_detection(box, cfg.human_class_id, _DISTRACTOR_CONF, embeddings, sigma, rng)
                )
            else:
                class_id = int(rng.integers(cfg.n_object_classes))
                objects.append(
                    _make_detection(box, class_id, _DISTRACTOR_CONF, embeddings, sigma, rng)
                )

        images.append(
            SynthImage(
                image_id=first_image_id + i,
                human_detections=tuple(humans),
                object_detections=tuple(objects),
                gt_triplets=tuple(triplets),
                image_labels=frozenset(t.hoi_class for t in triplets),
                supervision=SupervisionTag.FS,
            )
        )
    return images


def generate_world(cfg: WorldConfig) -> list[SynthImage]:
    """Generate the training image set; deterministic given cfg.seed."""
    latent_rng, train_rng, _ = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    taxonomy = HoiTaxonomy.from_config(cfg)
    humans = train_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, cfg.n_images)
    slots = train_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, cfg.n_images)
    assignments = _plan_class_assignments(cfg, slots, train_rng)
    return _generate_images(cfg, cfg.n_images, assignments, humans, embeddings, taxonomy, train_rng)


def generate_eval_images(cfg: WorldConfig, n_images: int) -> list[SynthImage]:
    """Generate a held-out, fully-annotated set sharing the training world's
    latent structure (same seed, separate RNG stream, balanced classes)."""
    latent_rng, _, eval_rng = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    taxonomy = HoiTaxonomy.from_config(cfg)
    humans = eval_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, n_images)
    slots = eval_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, n_images)
    assignments = _coverage_assignments(cfg, slots, eval_rng)
    return _generate_images(
        cfg, n_images, assignments, humans, embeddings, taxonomy, eval_rng,
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
    """Randomly tag images WS/FS/US and strip annotations accordingly.

    WS images keep only the set of image-level labels, US images keep
    nothing, FS images keep full triplets. Counts follow the fractions with
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

    tagged = []
    for idx, image in enumerate(images):
        tag = tags[idx]
        if tag == SupervisionTag.FS:
            tagged.append(dataclasses.replace(image, supervision=SupervisionTag.FS))
        elif tag == SupervisionTag.WS:
            tagged.append(
                dataclasses.replace(
                    image, supervision=SupervisionTag.WS, gt_triplets=()
                )
            )
        else:
            tagged.append(
                dataclasses.replace(
                    image,
                    supervision=SupervisionTag.US,
                    gt_triplets=(),
                    image_labels=frozenset(),
                )
            )
    return tagged


def _detection_to_record(det: Detection) -> dict:
    return {
        "box": det.box.as_list(),
        "class_id": det.class_id,
        "confidence": det.confidence,
        "appearance": det.appearance.tolist(),
    }


def _detection_from_record(rec: dict) -> Detection:
    return Detection(
        box=Box.from_list(rec["box"]),
        class_id=int(rec["class_id"]),
        confidence=float(rec["confidence"]),
        appearance=np.array(rec["appearance"], dtype=np.float64),
    )


def image_to_record(image: SynthImage, human_class_id: int) -> dict:
    detections = [_detection_to_record(d) for d in image.human_detections]
    detections += [_detection_to_record(d) for d in image.object_detections]
    return {
        "image_id": image.image_id,
        "supervision": image.supervision.value,
        "human_class_id": human_class_id,
        "detections": detections,
        "gt_triplets": [
            {"h_box": t.human_box.as_list(), "o_box": t.object_box.as_list(), "hoi_class": t.hoi_class}
            for t in image.gt_triplets
        ],
        "image_labels": sorted(image.image_labels),
    }


def image_from_record(rec: dict) -> SynthImage:
    human_class = int(rec["human_class_id"])
    humans, objects = [], []
    for det_rec in rec["detections"]:
        det = _detection_from_record(det_rec)
        (humans if det.class_id == human_class else objects).append(det)
    triplets = tuple(
        GroundTruthTriplet(
            Box.from_list(t["h_box"]), Box.from_list(t["o_box"]), int(t["hoi_class"])
        )
        for t in rec["gt_triplets"]
    )
    return SynthImage(
        image_id=int(rec["image_id"]),
        human_detections=tuple(humans),
        object_detections=tuple(objects),
        gt_triplets=triplets,
        image_labels=frozenset(int(c) for c in rec["image_labels"]),
        supervision=SupervisionTag(rec["supervision"]),
    )


def save_dataset(images: list[SynthImage], path, human_class_id: int) -> None:
    """Write one JSON record per line; field names are the format contract."""
    with atomic_open(path) as fh:
        for image in images:
            fh.write(json.dumps(image_to_record(image, human_class_id), sort_keys=True))
            fh.write("\n")


def load_dataset(path) -> list[SynthImage]:
    images = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                images.append(image_from_record(json.loads(line)))
    return images
