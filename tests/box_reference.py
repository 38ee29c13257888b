"""Object forms of boxes and ground-truth triplets, kept as references.

The references are the original implementation: one Box object per box,
which rejects a box without positive area when it is built, and one
GroundTruthTriplet of two Boxes and an interaction class per triplet.
hoimix keeps boxes as rows of arrays (TripletArrays, DetectionArrays),
which must accept exactly the boxes a Box accepts; the conversions below
move ground truth between the two forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hoimix.synth_world import TripletArrays


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive area; it unpacks as its
    (x_min, y_min, x_max, y_max) row, the form hoimix.geometry takes."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max}) has no positive area"
            )

    def __iter__(self):
        return iter((self.x_min, self.y_min, self.x_max, self.y_max))

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    @classmethod
    def from_list(cls, coords) -> "Box":
        x0, y0, x1, y1 = coords
        return cls(float(x0), float(y0), float(x1), float(y1))


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """(n, 4) float64 array of (x_min, y_min, x_max, y_max) rows."""
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


@dataclass(frozen=True)
class GroundTruthTriplet:
    human_box: Box
    object_box: Box
    hoi_class: int


def triplet_arrays(triplets: Sequence[GroundTruthTriplet]) -> TripletArrays:
    """The triplets as arrays, row k from triplets[k]."""
    return TripletArrays(
        box_array([t.human_box for t in triplets]),
        box_array([t.object_box for t in triplets]),
        np.array([t.hoi_class for t in triplets], dtype=np.intp),
    )


def triplet_objects(triplets: TripletArrays) -> tuple[GroundTruthTriplet, ...]:
    """One GroundTruthTriplet per row of the arrays, in row order."""
    return tuple(
        GroundTruthTriplet(Box(*h), Box(*o), c)
        for h, o, c in zip(
            triplets.human_boxes.tolist(),
            triplets.object_boxes.tolist(),
            triplets.hoi_classes.tolist(),
        )
    )
