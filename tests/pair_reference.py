"""Per-detection and per-pair references for detections, pair features, the
top-k filter and element swapping.

The references are the original implementation: one Detection object per
detection, which checks its confidence while its Box checks its area; one
pair-feature computation per (human, object) pair, with a scalar iou; a
per-class top-k filter that sorts each class in Python; and an element_swap
that builds a HumanObjectPair with its features for every cross-image
candidate before it sorts them all. The per-pair references read one row
of a DetectionArrays at a time. The array path in hoimix must reproduce
their output byte for byte, and accept exactly the detections they accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hoimix.batching import HumanObjectPair
from hoimix.geometry import Box, box_array, iou
from hoimix.synth_world import DetectionArrays, feature_layout


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


def reference_element_swap(
    pairs1: list[HumanObjectPair], pairs2: list[HumanObjectPair]
) -> list[HumanObjectPair]:
    """Build every (H1+H2) x (O1+O2) candidate, sort, keep H1*O1 + H2*O2."""
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
