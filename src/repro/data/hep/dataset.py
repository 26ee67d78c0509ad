"""End-to-end HEP dataset assembly: generate -> smear -> filter -> image.

Mirrors the paper's pipeline (SI-A): generate both classes, apply the
detector simulation, apply a *loose pre-selection* so the training sample is
the hard-to-discriminate region (the paper filters with baseline-like
selections before training), then rasterize images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.data.hep.detector import DetectorModel
from repro.data.hep.generator import Event, EventGenerator
from repro.data.hep.images import EventImager
from repro.data.hep.selections import high_level_features
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass
class HEPDataset:
    """Images + labels + the underlying events (for the cut baseline)."""

    images: np.ndarray        # (N, 3, size, size) float32
    labels: np.ndarray        # (N,) int64, 1 = signal
    events: List[Event]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels) or \
                len(self.labels) != len(self.events):
            raise ValueError("images/labels/events length mismatch")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def nbytes(self) -> int:
        return int(self.images.nbytes)

    def split(self, train_fraction: float = 0.7,
              seed: SeedLike = 0) -> Tuple["HEPDataset", "HEPDataset"]:
        """Deterministic shuffled train/test split."""
        require_real("train_fraction", train_fraction, "(0, 1)")
        rng = np.random.default_rng(seed) if not hasattr(seed, "shuffle") \
            else seed
        order = rng.permutation(len(self))
        cut = int(len(self) * train_fraction)
        tr, te = order[:cut], order[cut:]
        return (
            HEPDataset(self.images[tr], self.labels[tr],
                       [self.events[i] for i in tr]),
            HEPDataset(self.images[te], self.labels[te],
                       [self.events[i] for i in te]),
        )


def make_hep_dataset(n_events: int, image_size: int = 64,
                     signal_fraction: float = 0.5,
                     preselect: bool = True,
                     seed: SeedLike = 0) -> HEPDataset:
    """Build a HEP dataset end to end.

    ``preselect=True`` applies the loose physics filter (N_jet >= 3 and
    H_T > 200), concentrating the sample in the discrimination region as the
    paper does before training.
    """
    n_events = require_count("n_events", n_events)
    image_size = require_count("image_size", image_size, least=8)
    signal_fraction = require_real("signal_fraction", signal_fraction,
                                   "[0, 1]")
    rngs = spawn_rngs(seed, 3)
    gen = EventGenerator(seed=rngs[0])
    det = DetectorModel(seed=rngs[1])
    imager = EventImager(size=image_size, seed=rngs[2])

    raw = gen.generate(n_events, signal_fraction=signal_fraction)
    events = det.simulate_all(raw)
    if preselect:
        feats = high_level_features(events, jet_pt_min=30.0)
        keep = (feats[:, 0] >= 3) & (feats[:, 1] > 200.0)
        events = [ev for ev, k in zip(events, keep) if k]
    if not events:
        raise RuntimeError("pre-selection removed every event; "
                           "loosen the generator settings")
    images = imager.images(events)
    labels = np.array([ev.is_signal for ev in events], dtype=np.int64)
    return HEPDataset(images=images, labels=labels, events=events)
