"""Inverted dropout.

Neither paper network uses dropout (the HEP net relies on global average
pooling and the climate net on its autoencoder branch for regularization),
but the portability claim in SIX — "our results ... extend to other kinds of
models" — needs the standard regularizer available; the ResNet/LSTM
extension tests exercise it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.module import Module
from repro.utils.checks import require_real
from repro.utils.rng import SeedLike, as_rng


class Dropout(Module):
    """Zero each activation with probability ``p`` during training.

    Inverted scaling (kept activations divided by ``1-p``) keeps the
    expected pre-activation identical between train and eval, so the layer
    is an exact identity in eval mode.
    """

    kind = "dropout"

    def __init__(self, p: float = 0.5, name: Optional[str] = None,
                 rng: SeedLike = None) -> None:
        super().__init__(name=name or "dropout")
        self.p = require_real("p", p, "[0, 1)")
        self._rng = as_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        # float32 throughout — both the kept mask and the transients (a
        # float64 intermediate would double the layer's peak working set
        # for no precision gain).
        mask = (self._rng.random(x.shape, dtype=np.float32)
                < keep).astype(np.float32)
        mask /= np.float32(keep)
        self._mask = mask
        return (x * mask).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        if grad_out.shape != self._mask.shape:
            raise ValueError(
                f"{self.name}: grad shape {grad_out.shape} does not match "
                f"forward activation shape {self._mask.shape}")
        return (grad_out * self._mask).astype(np.float32)

    def output_shape(self, input_shape):
        return tuple(input_shape)
