"""Climate dataset assembly: backgrounds + planted events + box targets.

Produces normalized (N, C, H, W) tensors, per-image ground-truth boxes, and
a labeled/unlabeled mask — unlabeled images feed only the autoencoder branch
of the semi-supervised objective (paper SIII-B: "the extra unlabelled data
input to the autoencoder can help improve the bounding box regression task").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.climate.events import (
    AtmosphericRiver,
    ExtraTropicalCyclone,
    TropicalCyclone,
    WeatherEvent,
)
from repro.data.climate.fields import FieldGenerator
from repro.models.bbox import Box
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

N_EVENT_CLASSES = 3


@dataclass
class ClimateDataset:
    images: np.ndarray                 # (N, C, H, W), normalized
    boxes: List[List[Box]]             # ground truth per image
    labeled: np.ndarray                # (N,) bool
    #: raw (physical-unit) fields, kept when ``keep_raw=True`` — needed by
    #: the expert-threshold heuristic baselines
    raw: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.images) != len(self.boxes) or \
                len(self.boxes) != len(self.labeled):
            raise ValueError("images/boxes/labeled length mismatch")
        if self.raw is not None and len(self.raw) != len(self.images):
            raise ValueError("raw fields length mismatch")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def nbytes(self) -> int:
        return int(self.images.nbytes)

    def labeled_subset(self) -> Tuple[np.ndarray, List[List[Box]]]:
        idx = np.nonzero(self.labeled)[0]
        return self.images[idx], [self.boxes[i] for i in idx]


def _sample_events(h: int, w: int, rng: np.random.Generator,
                   max_events: int = 3) -> List[WeatherEvent]:
    """Draw 1..max_events non-colliding weather events for one image."""
    n = int(rng.integers(1, max_events + 1))
    events: List[WeatherEvent] = []
    margin = 0.16 * min(h, w)
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        cy = float(rng.uniform(margin, h - margin))
        cx = float(rng.uniform(margin, w - margin))
        if kind == 0:
            # Tropical cyclones live at low latitudes (mid-band of the map).
            cy = float(rng.uniform(0.3 * h, 0.7 * h))
            events.append(TropicalCyclone(
                cy=cy, cx=cx, radius=float(rng.uniform(0.04, 0.07) * h),
                intensity=float(rng.uniform(0.8, 1.5))))
        elif kind == 1:
            # ETCs live at higher latitudes (map edges).
            cy = float(rng.choice([rng.uniform(0.1, 0.3),
                                   rng.uniform(0.7, 0.9)]) * h)
            events.append(ExtraTropicalCyclone(
                cy=cy, cx=cx, radius=float(rng.uniform(0.07, 0.11) * h),
                intensity=float(rng.uniform(0.8, 1.4))))
        else:
            events.append(AtmosphericRiver(
                cy=cy, cx=cx,
                length=float(rng.uniform(0.45, 0.75) * w),
                width=float(rng.uniform(0.02, 0.04) * h),
                angle=float(rng.uniform(0.3, 1.2)),
                intensity=float(rng.uniform(0.9, 1.5))))
    return events


def _clip_box(b: Box, h: int, w: int) -> Optional[Box]:
    """Clip a box to the image; drop it if (nearly) nothing remains."""
    x0, y0 = max(0.0, b.x), max(0.0, b.y)
    x1, y1 = min(float(w), b.x + b.w), min(float(h), b.y + b.h)
    if x1 - x0 < 2.0 or y1 - y0 < 2.0:
        return None
    return Box(x=x0, y=y0, w=x1 - x0, h=y1 - y0, class_id=b.class_id)


def make_climate_dataset(n_images: int, size: int = 96,
                         n_channels: int = 16,
                         labeled_fraction: float = 0.5,
                         max_events: int = 3,
                         keep_raw: bool = False,
                         seed: SeedLike = 0) -> ClimateDataset:
    """Build a climate detection dataset.

    ``labeled_fraction`` controls the semi-supervised split; unlabeled
    images still contain events (we simply withhold their boxes), exactly
    like unannotated simulation output.
    """
    n_images = require_count("n_images", n_images)
    size = require_count("size", size)
    n_channels = require_count("n_channels", n_channels)
    max_events = require_count("max_events", max_events)
    require_real("labeled_fraction", labeled_fraction, "[0, 1]")
    rngs = spawn_rngs(seed, 2)
    gen = FieldGenerator(height=size, width=size, n_channels=n_channels,
                         seed=rngs[0])
    rng = rngs[1]
    images = np.empty((n_images, n_channels, size, size), dtype=np.float32)
    boxes: List[List[Box]] = []
    for i in range(n_images):
        fields = gen.background()
        img_boxes: List[Box] = []
        for event in _sample_events(size, size, rng, max_events):
            raw_box = event.imprint(fields, rng)
            clipped = _clip_box(raw_box, size, size)
            if clipped is not None:
                img_boxes.append(clipped)
        images[i] = fields
        boxes.append(img_boxes)
    raw = images.copy() if keep_raw else None
    images = gen.normalize(images)
    labeled = np.zeros(n_images, dtype=bool)
    n_labeled = int(round(n_images * labeled_fraction))
    labeled[rng.permutation(n_images)[:n_labeled]] = True
    return ClimateDataset(images=images, boxes=boxes, labeled=labeled,
                          raw=raw)
