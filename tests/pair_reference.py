"""Per-pair reference for pair features, the top-k filter and element swapping.

The reference is the original implementation: one pair_features call per
(human, object) pair, with a scalar iou; a per-class top-k filter that
sorts each class in Python; and an element_swap that builds a
HumanObjectPair with its features for every cross-image candidate before it
sorts them all. The array path in hoimix must reproduce its output byte for
byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hoimix.batching import HumanObjectPair
from hoimix.geometry import iou
from hoimix.synth_world import Detection, feature_layout


def reference_pair_features(human: Detection, obj: Detection, feature_dim: int) -> np.ndarray:
    """Feature vector for one (human, object) pair, computed with scalars."""
    app_dim, spatial_dim, pad = feature_layout(feature_dim)
    if human.appearance.shape != (app_dim,) or obj.appearance.shape != (app_dim,):
        raise ValueError(
            f"appearance dim mismatch: expected {app_dim} per detection for "
            f"feature_dim {feature_dim}"
        )
    hb, ob = human.box, obj.box
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
            human.confidence,
            obj.confidence,
        ]
    )[:spatial_dim]
    out = np.concatenate([human.appearance, obj.appearance, spatial, np.zeros(pad)])
    if out.shape != (feature_dim,):
        raise ValueError(f"feature vector has dim {out.shape[0]}, expected {feature_dim}")
    return out


def reference_top_k(detections: Sequence[Detection], top_k: int) -> list[int]:
    """Indices kept by the per-class top-k confidence filter, in order."""
    by_class: dict[int, list[tuple[int, Detection]]] = {}
    for idx, det in enumerate(detections):
        by_class.setdefault(det.class_id, []).append((idx, det))
    keep: set[int] = set()
    for entries in by_class.values():
        ranked = sorted(entries, key=lambda e: (-e[1].confidence, e[0]))
        keep.update(idx for idx, _ in ranked[:top_k])
    return [idx for idx in range(len(detections)) if idx in keep]


def confidence_product(pair: HumanObjectPair) -> float:
    """Easy-negative score: product of the two detector confidences."""
    return pair.human.confidence * pair.object.confidence


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
        humans: dict[int, Detection] = {}
        objects: dict[int, Detection] = {}
        for p in pairs:
            humans.setdefault(p.human_index, p.human)
            objects.setdefault(p.object_index, p.object)
        return humans, objects

    humans1, objects1 = collect(pairs1)
    humans2, objects2 = collect(pairs2)

    candidates = list(pairs1) + list(pairs2)
    for h_img, humans in ((image1, humans1), (image2, humans2)):
        for o_img, objects in ((image1, objects1), (image2, objects2)):
            if h_img == o_img:
                continue
            for h_idx, human in humans.items():
                for o_idx, obj in objects.items():
                    candidates.append(
                        HumanObjectPair(
                            human=human,
                            object=obj,
                            human_index=h_idx,
                            object_index=o_idx,
                            source=(h_img, o_img),
                            features=reference_pair_features(human, obj, feature_dim),
                            swapped=True,
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
