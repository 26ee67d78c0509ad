"""Trainable parameter container.

A :class:`Parameter` pairs a weight array with its gradient accumulator and a
stable name. Names matter here more than in most frameworks: the hybrid
architecture dedicates **one parameter server per trainable layer**
(paper SIII-E(c)), and the PS registry is keyed by parameter name.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class Parameter:
    """A named, trainable array with an associated gradient buffer."""

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        # The paper trains everything in single precision (SV); keep float32
        # so byte-size accounting (Table II) matches.
        if data.dtype != np.float32:
            data = data.astype(np.float32)
        self.data: np.ndarray = data
        # zeros, not zeros_like (empty + fill): calloc'd pages stay untouched
        # until a backward writes them, and an inference replica never does.
        self.grad: np.ndarray = np.zeros(data.shape, data.dtype)
        self.name: str = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Bytes of the weight array (single precision)."""
        return int(self.data.nbytes)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def copy_(self, other: "Parameter") -> None:
        """In-place copy of another parameter's weights (PS -> worker path)."""
        if other.data.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch copying into {self.name!r}: "
                f"{other.data.shape} vs {self.data.shape}")
        self.data[...] = other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
