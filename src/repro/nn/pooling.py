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


#: input bytes per band of a training forward: a band's winners are found
#: while it is in cache
_BAND_BYTES = 1 << 20


class MaxPool2D(Module):
    """Max pooling. Fast path for the ubiquitous non-overlapping case.

    A training forward is the eval forward plus its *winners*, the one
    state ``backward`` reads: bit ``i*k + j`` of a window is set where its
    tap ``(i, j)`` equals its maximum, ``np.packbits``-little-endian in
    ``ceil(k*k / 8)`` bytes a window (one byte for 2x2), shaped ``out.shape
    + (bytes,)`` on every path, so it slices by image and by window row.
    A non-overlapping 2x2 pool finds them a band of input planes at a time,
    while the band is in cache. The forward keeps no reference to its input
    or output. NaN never wins (``np.fmax``, as in ``ReLU``), so pooling before
    or after a ReLU gives the same output and gradients (``core.Sequential``
    runs it first). Every window's maxima share its gradient, on the fast
    path and on overlapping or ragged windows alike, so a window's gradient
    is the same whatever the image's size.
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = None      # last step's, gone before this one's is made
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh, ow = conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0)
        if not self._is_fast_path(h, w) or self.training and k != 2:
            # Overlapping or ragged windows (and a training k x k pool other
            # than 2x2): the same fmax passes, rows of a window first, then
            # its columns, tap image by tap image.
            taps = _taps(x, k, s, oh, ow)
            out = reduce(np.fmax, [reduce(np.fmax, taps[j::k])
                                   for j in range(k)])
            if k == 1:                  # the identity: a copy, not a view
                out = out.copy()
            if self.training:
                self._cache = (_pack([tap == out for tap in taps]), x.shape)
            return out
        # Non-overlapping: the max over block rows (contiguous runs of w
        # floats), then block columns: 2(k-1) elementwise passes, not a 6-D
        # strided reduce. Eval forwards (serving) keep nothing.
        if not self.training:
            blocks = x.reshape(n, c, oh, k, ow, k)
            rows = reduce(np.fmax, [blocks[:, :, :, i] for i in range(k)])
            return reduce(np.fmax, [rows[..., j] for j in range(k)])
        # A training 2x2 pool: a band of input planes at a time, its winners
        # found while it is in cache.
        blocks = np.ascontiguousarray(x).reshape(n * c, oh, 2, ow, 2)
        out = np.empty((n * c, oh, ow), x.dtype)
        wins = np.empty(out.shape, np.uint8)
        step = max(1, _BAND_BYTES // (h * w * x.itemsize))
        rows = np.empty((min(step, n * c), oh, ow, 2), x.dtype)    # scratch
        for p in range(0, n * c, step):
            band, o = blocks[p:p + step], out[p:p + step]
            r = rows[:len(band)]
            np.fmax(band[:, :, 0], band[:, :, 1], out=r)
            np.fmax(r[..., 0], r[..., 1], out=o)
            _winners(band, o, wins[p:p + step], r)
        self._cache = (wins.reshape(n, c, oh, ow, 1), x.shape)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        wins, shape = self._cache
        check_grad_out(self.name, grad_out, wins.shape[:4])
        # Cells no window reaches get 0; on the fast path every cell is one
        # window's.
        grad_in = (np.empty if self._is_fast_path(*shape[2:]) else np.zeros)(
            shape, grad_out.dtype)
        return max_pool_grad(wins, grad_out, self.kernel_size, self.stride,
                             grad_in)

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


def _taps(a: np.ndarray, k: int, s: int, oh: int, ow: int
          ) -> List[np.ndarray]:
    """Tap ``(i, j)`` of every ``k x k`` / stride ``s`` window of ``a``, one
    strided ``(oh, ow)`` image each, at index ``i*k + j``."""
    return [a[:, :, i:i + s * oh:s, j:j + s * ow:s]
            for i in range(k) for j in range(k)]


def _pack(wins: List[np.ndarray]) -> np.ndarray:
    """The winners format of tap-order bool images."""
    return np.packbits(np.stack(wins, axis=-1), axis=-1, bitorder="little")


def _winners(blocks: np.ndarray, out: np.ndarray, wins: np.ndarray,
             scratch: np.ndarray) -> None:
    """``wins`` := the winners' bytes of ``(planes, oh, 2, ow, 2)``
    ``blocks`` whose maxima are ``out``. A window row is compared whole
    with ``out`` repeated along the width (in ``scratch``, ``out.shape +
    (2,)``); each row's two bools, read as one ``uint16``, are folded into
    the window's byte by shifts."""
    p, oh, _, ow, _ = blocks.shape
    wide = np.stack([out, out], axis=-1, out=scratch).reshape(p, oh, 1, -1)
    row = (blocks.reshape(p, oh, 2, 2 * ow) == wide).view(np.uint16)
    both = row[:, :, 1] << 2            # taps (1, 0), (1, 1): bits 2, 10
    both |= row[:, :, 0]                # taps (0, 0), (0, 1): bits 0, 8
    # bits 8, 10 -> 1, 3: tap (i, j) is bit 2i + j of the byte
    np.bitwise_or(both, both >> 7, out=wins, casting="unsafe")


def max_pool_grad(wins: np.ndarray, grad_out: np.ndarray, k: int, s: int,
                  grad_in: np.ndarray) -> np.ndarray:
    """``grad_in`` := dL/dx of a ``k x k`` / stride ``s`` max-pool from its
    winners (``MaxPool2D``'s format): a window's winners count, ``grad_out``
    is divided by the count once (an all-NaN window has none and gets 0) and
    each tap is the product of its bit and that quotient, written where
    windows tile and added where they overlap (``grad_in`` holds zeros
    where no window reaches). A 2x2 tiling decodes each window row's two
    bits into two bytes by shifts and multiplies whole rows."""
    n, c, oh, ow = grad_out.shape
    if k == s == 2 and grad_in.shape[2:] == (2 * oh, 2 * ow):
        byte = wins[..., 0].astype(np.uint16)
        # row i's bits 2i, 2i + 1 -> bytes 0, 1 of a uint16: its two taps
        rows = [(byte >> 2 * i) * np.uint16(0x81) & np.uint16(0x101)
                for i in range(2)]
        counts = rows[0] + rows[1]      # bytes: each column's winners
        counts *= np.uint16(0x101)      # high byte: both columns'
        counts >>= 8                    # uint16: float32 gradients stay
        q = grad_out / np.maximum(counts, 1, out=counts)
        wide = np.stack([q, q], axis=-1).reshape(n, c, oh, 2 * ow)
        cells = grad_in.reshape(n, c, oh, 2, 2 * ow)
        for i in range(2):
            np.multiply(rows[i].view(np.uint8).reshape(n, c, oh, 2 * ow),
                        wide, out=cells[:, :, :, i])
        return grad_in
    bits = np.unpackbits(wins, axis=-1, count=k * k, bitorder="little")
    # counted in grad_out's dtype, so a float32 gradient stays float32
    counts = np.zeros(grad_out.shape, grad_out.dtype)
    for t in range(k * k):
        counts += bits[..., t]
    q = grad_out / np.maximum(counts, 1, out=counts)
    # a tap's cells are distinct: overlapping windows add up tap by tap
    for t, tap in enumerate(_taps(grad_in, k, s, oh, ow)):
        if s < k:
            tap += bits[..., t] * q
        else:
            np.multiply(bits[..., t], q, out=tap)
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
