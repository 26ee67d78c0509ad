"""Pooling layers: max pooling and global average pooling.

The HEP network (paper SIII-A) uses 2x2/stride-2 max pooling after the first
four conv units and **global average pooling** after the fifth — a deliberate
design choice to avoid large dense layers that would bloat the model size and
the all-reduce payload (one of the paper's stated contributions).
"""

from __future__ import annotations

from functools import reduce
from typing import List, Optional, Tuple

import numpy as np

from repro.core.module import Module, check_grad_out, check_sizes
from repro.nn.im2col import conv_output_size


class MaxPool2D(Module):
    """Max pooling. Fast path for the ubiquitous non-overlapping case.

    A training forward is the eval forward plus a *reference* to its input
    (not a copy: nothing may write to it before ``backward``); the winners
    are found at backward (on the fast path by :func:`max_pool_grad`). NaN
    never wins (``np.fmax``, as in ``ReLU``), so pooling before or after a
    ReLU gives the same output and gradients (``core.Sequential`` runs it
    first). Every window's maxima share its gradient, on the fast path and
    on overlapping or ragged windows alike, so a window's gradient is the
    same whatever the image's size.
    """

    kind = "pool"
    window_max = True

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        super().__init__(name=name or "pool")
        self.kernel_size, self.stride = check_sizes(
            self.name, kernel_size=kernel_size,
            stride=kernel_size if stride is None else stride)
        self._cache: Optional[Tuple] = None

    @property
    def band_rows(self) -> int:
        """``k`` input rows per output row when windows do not overlap."""
        # k == 1 is the identity: the general path returns it as a copy.
        k = self.kernel_size
        return k if 1 < k == self.stride else 0

    def _is_fast_path(self, h: int, w: int) -> bool:
        k = self.band_rows
        return k > 0 and h % k == 0 and w % k == 0

    def _taps(self, x: np.ndarray, oh: int, ow: int) -> List[np.ndarray]:
        """Tap ``(i, j)`` of every window, one strided ``(oh, ow)`` image
        each, at index ``i*k + j``."""
        k, s = self.kernel_size, self.stride
        return [x[:, :, i:i + s * oh:s, j:j + s * ow:s]
                for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = None      # last step's, gone before this one's is made
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        if self._is_fast_path(h, w):
            # Non-overlapping: reshape into (N, C, oh, k, ow, k) blocks and
            # take the max over block rows (contiguous runs of w floats),
            # then block columns: 2(k-1) elementwise passes, not a 6-D
            # strided reduce.
            blocks = x.reshape(n, c, h // k, k, w // k, k)
            rows = reduce(np.fmax, [blocks[:, :, :, i] for i in range(k)])
            out = reduce(np.fmax, [rows[..., j] for j in range(k)])
        else:
            # Overlapping or ragged windows: the same fmax passes, rows of a
            # window first, then its columns, tap image by tap image.
            taps = self._taps(x, conv_output_size(h, k, s, 0),
                              conv_output_size(w, k, s, 0))
            out = reduce(np.fmax, [reduce(np.fmax, taps[j::k])
                                   for j in range(k)])
            if k == 1:                  # the identity: a copy, not a view
                out = out.copy()
        # Eval forwards (serving) pin nothing.
        self._cache = (x, out) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x, out = self._cache
        check_grad_out(self.name, grad_out, out.shape)
        if self._is_fast_path(*x.shape[2:]):
            return max_pool_grad(x, out, grad_out, self.kernel_size,
                                 np.empty(x.shape, grad_out.dtype))
        # Tap (i, j) of every window is one strided image the size of the
        # output. All maxima win, scaled by multiplicity (a correct adjoint;
        # Caffe routes to the first). A window with no winner (all NaN) gets
        # no gradient, not 0/0. Counting in grad_out's dtype keeps float32
        # gradients, and every layer below, float32.
        taps = self._taps(x, *out.shape[2:])
        wins = [tap == out for tap in taps]
        counts = np.zeros(out.shape, dtype=grad_out.dtype)
        for win in wins:
            counts += win
        g = grad_out / np.maximum(counts, 1, out=counts)
        # A tap's cells are distinct: overlapping windows add up tap by tap.
        k, s = self.kernel_size, self.stride
        grad_in = np.zeros(x.shape, grad_out.dtype)
        for tap, win in zip(self._taps(grad_in, *out.shape[2:]), wins):
            if s < k:
                tap += win * g
            else:
                np.multiply(win, g, out=tap)
        return grad_in

    def output_shape(self, input_shape):
        c, h, w = input_shape
        k, s = self.kernel_size, self.stride
        return (c, conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0))

    def flops(self, batch: int, input_shape=None) -> int:
        """Comparisons counted as 1 FLOP each (k^2 - 1 per output element)."""
        if input_shape is None:
            return 0
        c, h, w = input_shape
        k, s = self.kernel_size, self.stride
        oh = conv_output_size(h, k, s, 0)
        ow = conv_output_size(w, k, s, 0)
        return batch * c * oh * ow * (k * k - 1)


def max_pool_grad(x: np.ndarray, out: np.ndarray, grad_out: np.ndarray,
                  k: int, grad_in: np.ndarray) -> np.ndarray:
    """``grad_in`` (``x``'s shape) := dL/dx of the non-overlapping ``k x k``
    max-pool ``out`` of ``x``: ``MaxPool2D``'s rule, along whole rows. ``x``
    is compared with ``out`` repeated ``k`` times along the width, winners
    are counted in ``uint8`` (below 16x16), one division, one multiply."""
    n, c, oh, ow = out.shape

    def wide(a: np.ndarray) -> np.ndarray:      # each column k times over
        return np.stack([a] * k, axis=-1).reshape(n, c, oh, 1, ow * k)

    wins = x.reshape(n, c, oh, k, ow * k) == wide(out)
    rows = np.zeros((n, c, oh, ow * k), np.min_scalar_type(k * k))
    for i in range(k):
        rows += wins[:, :, :, i]
    counts = reduce(np.add, [rows[..., j::k] for j in range(k)])
    np.multiply(wins, wide(grad_out / np.maximum(counts, 1)),
                out=grad_in.reshape(n, c, oh, k, ow * k))
    return grad_in


class GlobalAvgPool2D(Module):
    """Global average pooling: (N, C, H, W) -> (N, C)."""

    kind = "pool"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "gap")
        self._cache: Optional[Tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        n, c, h, w = self._cache
        check_grad_out(self.name, grad_out, (n, c))
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, (n, c, h, w)).copy()

    def output_shape(self, input_shape):
        c, _h, _w = input_shape
        return (c,)

    def flops(self, batch: int, input_shape=None) -> int:
        if input_shape is None:
            return 0
        c, h, w = input_shape
        return batch * c * h * w  # one add per element (division amortized)
