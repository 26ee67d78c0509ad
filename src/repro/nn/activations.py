"""Activation layers and stable activation functions."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.module import Module, check_grad_out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64 if x.dtype == np.float64
                        else np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


class ReLU(Module):
    """Rectified linear unit [33, 34] — the paper's activation throughout."""

    kind = "activation"
    band_rows = 1  # elementwise
    commutes_with_max = True  # and non-decreasing

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "relu")
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Eval-mode forwards (inference serving) never run backward: don't
        # build the activation-sized mask, let alone hold it between requests.
        self._mask = (x > 0) if self.training else None
        # One pass. fmax, not maximum: NaN -> 0, as the mask routes it.
        return np.fmax(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        check_grad_out(self.name, grad_out, self._mask.shape)
        return grad_out * self._mask

    def output_shape(self, input_shape):
        return tuple(input_shape)

    def flops(self, batch: int, input_hw: Optional[Tuple[int, int]] = None
              ) -> int:
        return 0  # max(0, x) is not counted as arithmetic by SDE


class Sigmoid(Module):
    kind = "activation"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "sigmoid")
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = sigmoid(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        check_grad_out(self.name, grad_out, self._out.shape)
        return grad_out * self._out * (1.0 - self._out)

    def output_shape(self, input_shape):
        return tuple(input_shape)


class Tanh(Module):
    kind = "activation"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "tanh")
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        check_grad_out(self.name, grad_out, self._out.shape)
        return grad_out * (1.0 - self._out * self._out)

    def output_shape(self, input_shape):
        return tuple(input_shape)
