"""Supervision tags and the one decision that training derives from them.

Every image and every mini-batch carries exactly one tag; a World stores
an image's tag as its code, the tag's index in TAGS. Whether the tag is
region-level decides which loss is applied (region-level vs image-level),
which momentum buffer records the gradient, and which step size is used.
"""

from __future__ import annotations

from enum import Enum


class SupervisionTag(str, Enum):
    """FS = region-level triplets, WS = image-level labels, US = unlabeled."""

    FS = "FS"
    WS = "WS"
    US = "US"

    def __str__(self) -> str:  # keeps "FS"/"WS"/"US" verbatim in records
        return self.value

    @property
    def region_level(self) -> bool:
        """True when batches carry region-level targets: FS, and US, which
        reaches training only with pseudo triplets and then uses the
        fully-supervised loss, momentum buffer and step size."""
        return self is not SupervisionTag.WS

    @property
    def code(self) -> int:
        return TAGS.index(self)


TAGS = tuple(SupervisionTag)  # (FS, WS, US): code c is the tag TAGS[c]
