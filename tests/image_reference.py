"""The per-image reference for a World: one SynthImage per image, holding
its detections, ground truth, labels and tag as its own objects.

This was the package's image type before an image became an index into a
World. The tests keep it to build small worlds image by image
(`world_of`) and to read a world back image by image (`images_of`); the
two converters are each other's inverse.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hoimix.supervision import TAGS, SupervisionTag
from hoimix.synth_world import NO_TRIPLETS, DetectionArrays, TripletArrays, World, stack_triplets

DETECTION_COLUMNS = ("boxes", "class_ids", "confidences", "appearance")


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


def _detection_rows(detections: DetectionArrays, rows: slice) -> DetectionArrays:
    return DetectionArrays(*(getattr(detections, name)[rows] for name in DETECTION_COLUMNS))


def images_of(world: World) -> list[SynthImage]:
    """The world's images, each holding views of its rows."""
    d, t = world.detection_rows.tolist(), world.triplet_rows.tolist()
    images = []
    for i, n_humans in enumerate(world.n_humans.tolist()):
        rows = slice(t[i], t[i + 1])
        triplets = world.triplets
        images.append(
            SynthImage(
                image_id=int(world.image_ids[i]),
                humans=_detection_rows(world.detections, slice(d[i], d[i] + n_humans)),
                objects=_detection_rows(world.detections, slice(d[i] + n_humans, d[i + 1])),
                gt_triplets=TripletArrays(
                    triplets.human_boxes[rows], triplets.object_boxes[rows], triplets.hoi_classes[rows]
                ),
                image_labels=frozenset(np.flatnonzero(world.labels[i]).tolist()),
                supervision=TAGS[world.supervision[i]],
            )
        )
    return images


NO_DETECTIONS = DetectionArrays(np.empty((0, 4)), np.empty(0, np.intp), np.empty(0), np.empty((0, 1)))


def _offsets(counts: list[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


def world_of(images: Sequence[SynthImage], n_classes: int) -> World:
    """One World of the images, in order, with a label matrix of n_classes
    columns."""
    parts = [d for image in images for d in (image.humans, image.objects)] or [NO_DETECTIONS]
    labels = np.zeros((len(images), n_classes), dtype=bool)
    for i, image in enumerate(images):
        labels[i, sorted(image.image_labels)] = True
    return World(
        np.array([image.image_id for image in images], dtype=np.int64),
        np.array([image.supervision.code for image in images], dtype=np.int8),
        DetectionArrays(*(np.concatenate([getattr(d, name) for d in parts]) for name in DETECTION_COLUMNS)),
        _offsets([len(image.humans) + len(image.objects) for image in images]),
        np.array([len(image.humans) for image in images], dtype=np.intp),
        stack_triplets([image.gt_triplets for image in images]),
        _offsets([len(image.gt_triplets) for image in images]),
        labels,
    )


def with_appearance(world: World, images: Sequence[int], value: float) -> World:
    """The world with the first appearance value of each of the images'
    first human detection set to value, such as NaN or inf."""
    appearance = world.detections.appearance.copy()
    appearance[world.detection_rows[np.asarray(images, dtype=np.intp)], 0] = value
    return dataclasses.replace(
        world, detections=dataclasses.replace(world.detections, appearance=appearance)
    )
