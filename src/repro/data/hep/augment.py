"""Physics-motivated augmentation for HEP detector images.

The detector barrel is a cylinder: the azimuthal coordinate phi is exactly
periodic, so a cyclic shift of the image along phi produces an equally
valid event. Proton-proton collisions are also (statistically) symmetric
under eta reflection. Both symmetries hold for the *low-level* image the
CNN sees while leaving every *high-level* feature the cut baseline uses
(HT, jet multiplicities, masses) unchanged — which makes augmentation a
free multiplier on the CNN's 10M-event training sample (paper SI-A) that
the baseline, by construction, cannot benefit from.

Image layout convention: ``(N, C, H, W) = (events, channels, eta, phi)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: axis of the periodic azimuthal coordinate in (N, C, eta, phi) images
PHI_AXIS = 3
#: axis of pseudorapidity
ETA_AXIS = 2


def phi_shift(images: np.ndarray, shift: int) -> np.ndarray:
    """Cyclic shift along phi — an exact detector symmetry. ``shift`` is
    any signed integer (a NumPy one too)."""
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, eta, phi) images, got "
                         f"{images.shape}")
    return np.roll(images, require_count("shift", shift, least=None),
                   axis=PHI_AXIS)


def eta_flip(images: np.ndarray) -> np.ndarray:
    """Reflect eta (beam-axis mirror) — a statistical pp symmetry."""
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, eta, phi) images, got "
                         f"{images.shape}")
    return np.ascontiguousarray(np.flip(images, axis=ETA_AXIS))


def augment_batch(images: np.ndarray, rng: SeedLike = None,
                  max_shift: Optional[int] = None,
                  p_flip: float = 0.5) -> np.ndarray:
    """Random per-event phi shift and eta flip.

    Each event draws its own shift in ``[0, max_shift)`` (default: the full
    phi circumference) and flips with probability ``p_flip``. Labels are
    untouched by construction — both operations are symmetries.
    """
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, eta, phi) images, got "
                         f"{images.shape}")
    require_real("p_flip", p_flip, "[0, 1]")
    n, _c, _h, w = images.shape
    if max_shift is None:
        max_shift = w
    if require_count("max_shift", max_shift) > w:
        raise ValueError(f"max_shift must be <= {w}, got {max_shift}")
    rng = as_rng(rng)
    out = np.empty_like(images)
    shifts = rng.integers(0, max_shift, size=n)
    flips = rng.random(n) < p_flip
    for i in range(n):
        img = np.roll(images[i], int(shifts[i]), axis=PHI_AXIS - 1)
        if flips[i]:
            img = np.flip(img, axis=ETA_AXIS - 1)
        out[i] = img
    return out


def augmentation_factor(image_width: int, use_flip: bool = True) -> int:
    """Distinct augmented copies per event the symmetry group provides."""
    return require_count("image_width", image_width) * (2 if use_flip else 1)


class AugmentedBatcher:
    """Minibatch iterator that augments on the fly (the input-pipeline
    placement the paper's I/O section implies: transform after read, before
    the solver sees the batch)."""

    def __init__(self, images: np.ndarray, labels: np.ndarray,
                 batch: int, rng: SeedLike = None,
                 p_flip: float = 0.5) -> None:
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{images.shape[0]} images vs {labels.shape[0]} labels")
        if require_count("batch", batch) > images.shape[0]:
            raise ValueError(
                f"batch must be <= {images.shape[0]}, got {batch}")
        self.images = images
        self.labels = labels
        self.batch = batch
        self.p_flip = require_real("p_flip", p_flip, "[0, 1]")
        self._rng = as_rng(rng)

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        idx = self._rng.choice(self.images.shape[0], size=self.batch,
                               replace=False)
        x = augment_batch(self.images[idx], rng=self._rng,
                          p_flip=self.p_flip)
        return x, self.labels[idx]
