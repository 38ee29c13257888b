"""Per-draw reference for world generation.

The reference is the original generator: one numpy call per scalar or pair
of random draws, a 4-element array per box sanitized as Python floats, one
rng.choice per Zipf-filled class slot, one row tuple per detection, and one
Box per ground-truth box and GroundTruthTriplet per triplet, into one
SynthImage per image. The generators in hoimix.synth_world must reproduce
its images byte for byte, as the rows of their World, and leave every
random stream in the same state.
"""

from __future__ import annotations

import numpy as np

from hoimix.supervision import SupervisionTag
from hoimix.synth_world import (
    _DISTRACTOR_CONF,
    _DISTRACTOR_HUMAN_PROB,
    _DISTRACTORS_PER_GT,
    _GT_CONF,
    _MIN_BOX_SIZE,
    RARE_IMAGE_COUNT,
    DetectionArrays,
    WorldConfig,
    WorldGenerationError,
    _class_embeddings,
    _coverage_assignments,
    _seed_streams,
)

from box_reference import Box, GroundTruthTriplet, triplet_arrays
from image_reference import SynthImage


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


def sanitize_box(x0: float, y0: float, x1: float, y1: float) -> tuple[float, float, float, float]:
    """Order each axis, clip to the unit canvas and widen a side shorter
    than _MIN_BOX_SIZE about its clipped center, in Python float arithmetic:
    the reference for the column version in hoimix.synth_world."""
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


def _sanitize_box(coords: np.ndarray) -> tuple[float, float, float, float]:
    return sanitize_box(*coords.tolist())


def _jittered(
    box: Box, sigma: float, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    coords = np.array(box.as_list()) + rng.normal(0.0, sigma, size=4)
    return _sanitize_box(coords)


def _detection_row(
    box: tuple[float, float, float, float],
    class_id: int,
    conf_range: tuple[float, float],
    app_dim: int,
    rng: np.random.Generator,
) -> tuple:
    """(box, class id, confidence, appearance noise) of one detection."""
    noise = rng.standard_normal(app_dim)
    return box, class_id, float(rng.uniform(*conf_range)), noise


def _detection_arrays(rows: list[tuple], embeddings: np.ndarray, sigma: float) -> DetectionArrays:
    """The detections of _detection_row rows, each appearance its class's
    prototype plus sigma times its noise."""
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
    sector = 2.0 * np.pi / cfg.n_verb_classes
    app_dim = embeddings.shape[1]
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
            verb = hoi_class // cfg.n_object_classes
            human_box = human_boxes[int(rng.integers(n_humans))]
            hcx, hcy = human_box.center()
            # sample the angle well inside the verb's sector so detection
            # jitter cannot move a pair across the sector boundary
            theta = -np.pi + (verb + 0.15 + 0.7 * rng.random()) * sector
            radius = rng.uniform(0.12, 0.3)
            ocx = hcx + radius * np.cos(theta)
            ocy = hcy + radius * np.sin(theta)
            ow, oh = rng.uniform(0.03, 0.09, size=2)
            object_box = Box(*_sanitize_box(np.array([ocx - ow, ocy - oh, ocx + ow, ocy + oh])))
            triplets.append(GroundTruthTriplet(human_box, object_box, hoi_class))

        jitter = cfg.detection_jitter_sigma
        humans = [
            _detection_row(_jittered(b, jitter, rng), cfg.human_class_id, _GT_CONF, app_dim, rng)
            for b in human_boxes
        ]
        objects = [
            _detection_row(
                _jittered(t.object_box, jitter, rng),
                t.hoi_class % cfg.n_object_classes,
                _GT_CONF,
                app_dim,
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
                    _detection_row(box, cfg.human_class_id, _DISTRACTOR_CONF, app_dim, rng)
                )
            else:
                class_id = int(rng.integers(cfg.n_object_classes))
                objects.append(_detection_row(box, class_id, _DISTRACTOR_CONF, app_dim, rng))

        sigma = cfg.feature_noise_sigma
        images.append(
            SynthImage(
                image_id=first_image_id + i,
                humans=_detection_arrays(humans, embeddings, sigma),
                objects=_detection_arrays(objects, embeddings, sigma),
                gt_triplets=triplet_arrays(triplets),
                image_labels=frozenset(t.hoi_class for t in triplets),
                supervision=SupervisionTag.FS,
            )
        )
    return images


def generate_world(cfg: WorldConfig) -> tuple[list[SynthImage], np.random.Generator]:
    """The training image set and its stream after generation."""
    latent_rng, train_rng, _ = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = train_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, cfg.n_images)
    slots = train_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, cfg.n_images)
    assignments = _plan_class_assignments(cfg, slots, train_rng)
    images = _generate_images(cfg, cfg.n_images, assignments, humans, embeddings, train_rng)
    return images, train_rng


def generate_eval_images(
    cfg: WorldConfig, n_images: int
) -> tuple[list[SynthImage], np.random.Generator]:
    """The held-out image set and its stream after generation."""
    latent_rng, _, eval_rng = _seed_streams(cfg.seed)
    embeddings = _class_embeddings(cfg, latent_rng)
    humans = eval_rng.integers(cfg.humans_per_image[0], cfg.humans_per_image[1] + 1, n_images)
    slots = eval_rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1, n_images)
    assignments = _coverage_assignments(cfg, slots, eval_rng)
    images = _generate_images(
        cfg, n_images, assignments, humans, embeddings, eval_rng,
        first_image_id=cfg.n_images,
    )
    return images, eval_rng
