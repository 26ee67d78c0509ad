"""Winograd F(2x2, 3x3) / F(4x4, 3x3) convolution (paper SVIII-A future work).

"the state of the art in deep learning kernel implementations is rapidly
evolving with new algorithms like Winograd [43] and FFT based algorithms. We
did not experiment with such algorithms in this work; studying the impact on
per-node performance and scale out behaviour of these algorithms is a
direction for future research."

This module is that experiment. F(m x m, 3x3) computes each m x m output
tile from an (m+2) x (m+2) input tile using (m+2)^2 elementwise multiplies
instead of the 9 m^2 a direct 3x3 convolution needs — 2.25x fewer for
m = 2 and 4x fewer for m = 4 — at the cost of the tile transforms and a
numerically different (slightly less accurate in fp32) summation order.

To make the multiply reduction pay on a BLAS backend the forward is
structured as GEMMs, not elementwise products (Lavin & Gray 2015, sec. 5):
both small tile transforms are applied as one (tiles, alpha^2) x
(alpha^2, alpha^2) Kronecker-product GEMM, and the Winograd-domain product
becomes alpha^2 batched (F, C) x (C, tiles) GEMMs — one per transform-domain
position.

The layer is a 3x3/stride-1 :class:`Conv2D` with another forward: identical
parameters and accounting, identical gradients (backward is ``Conv2D``'s own,
inherited, on the cached input — gradient math does not depend on the forward
algorithm), and a forward pass that agrees with the direct computation to
fp32 tolerance.

It is the *whole-image* form: every tile of the batch is gathered,
transformed and multiplied at once, through fresh arrays four to nine times
the activation, which is why it loses to the direct conv on the large layers
it should win. What serving and training run is the same algorithm band by
band, ``nn.im2col``'s F(4x4, 3x3) lowering form, picked from shapes; this
layer is the reference that form is tested against and the SVIII-A ablation
(``benchmarks/test_ablation_extensions.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.module import run_layers
from repro.nn.conv import Conv2D
from repro.nn.im2col import check_input
from repro.utils.checks import require_count

# Winograd F(2x2, 3x3) transform matrices (Lavin & Gray 2015, sec. 4.1).
_BT = np.array([[1, 0, -1, 0],
                [0, 1, 1, 0],
                [0, -1, 1, 0],
                [0, 1, 0, -1]], dtype=np.float32)
_G = np.array([[1.0, 0.0, 0.0],
               [0.5, 0.5, 0.5],
               [0.5, -0.5, 0.5],
               [0.0, 0.0, 1.0]], dtype=np.float32)
_AT = np.array([[1, 1, 1, 0],
                [0, 1, -1, -1]], dtype=np.float32)

# Winograd F(4x4, 3x3) transform matrices (interpolation points
# {0, +-1, +-2}; the standard choice used by e.g. cuDNN and NNPACK). G's
# sixths are not float32 numbers: they round once, in ``_kron_transforms``.
_BT4 = np.array([[4, 0, -5, 0, 1, 0],
                 [0, -4, -4, 1, 1, 0],
                 [0, 4, -4, -1, 1, 0],
                 [0, -2, -1, 2, 1, 0],
                 [0, 2, -1, -2, 1, 0],
                 [0, 4, 0, -5, 0, 1]], dtype=np.float32)
_G4 = np.array([[1 / 4, 0, 0],
                [-1 / 6, -1 / 6, -1 / 6],
                [-1 / 6, 1 / 6, -1 / 6],
                [1 / 24, 1 / 12, 1 / 6],
                [1 / 24, -1 / 12, 1 / 6],
                [0, 0, 1]], dtype=np.float64)
_AT4 = np.array([[1, 1, 1, 1, 1, 0],
                 [0, 1, -1, 2, -2, 0],
                 [0, 1, 1, 4, 4, 0],
                 [0, 1, -1, 8, -8, 1]], dtype=np.float32)

_TRANSFORMS: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {
    2: (_BT, _G, _AT),
    4: (_BT4, _G4, _AT4),
}

# Kronecker-lifted transforms: applying S y S^T to every trailing 2-D tile
# equals one GEMM with kron(S, S) on the flattened tiles. Built lazily, cast
# once and cached per (tile size, dtype); ``nn.im2col``'s banded F(4x4, 3x3)
# form takes its matrices from here too.
_KRON: Dict[Tuple[int, np.dtype], Tuple[np.ndarray, ...]] = {}


def _kron_transforms(tile: int, dtype) -> Tuple[np.ndarray, ...]:
    """``(kron(B^T, B^T), kron(G, G), kron(A^T, A^T))`` in ``dtype``."""
    key = tile, np.dtype(dtype)
    if key not in _KRON:
        _KRON[key] = tuple(np.kron(s, s).astype(dtype)
                           for s in _TRANSFORMS[tile])
    return _KRON[key]


def transform_filters(weight: np.ndarray) -> np.ndarray:
    """``U = G g G^T`` for every (out_channel, in_channel) 3x3 filter.

    Input ``(F, C, 3, 3)`` -> output ``(F, C, 4, 4)``. Filters are
    transformed once per iteration (not per tile), so this cost amortizes
    over the whole feature map.
    """
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ValueError(f"expected (F, C, 3, 3) filters, got {weight.shape}")
    return np.einsum("ij,fcjk,lk->fcil", _G, weight, _G)


def transform_input_tiles(tiles: np.ndarray) -> np.ndarray:
    """``V = B^T d B`` for a batch of 4x4 input tiles (last two dims)."""
    if tiles.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing 4x4 tiles, got {tiles.shape}")
    return np.einsum("ij,...jk,lk->...il", _BT, tiles, _BT)


def inverse_transform(m: np.ndarray) -> np.ndarray:
    """``Y = A^T M A``: 4x4 Winograd-domain products -> 2x2 output tiles."""
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing 4x4 products, got {m.shape}")
    return np.einsum("ij,...jk,lk->...il", _AT, m, _AT)


def direct_multiplies(batch: int, out_channels: int, in_channels: int,
                      oh: int, ow: int) -> int:
    """Elementwise multiplies of direct 3x3 convolution."""
    return batch * out_channels * in_channels * oh * ow * 9


def winograd_multiplies(batch: int, out_channels: int, in_channels: int,
                        oh: int, ow: int, tile: int = 2) -> int:
    """Elementwise multiplies of F(m x m, 3x3): (m+2)^2 per (tile, F, C).

    The ratio direct/winograd tends to 36/16 = 2.25 for ``tile=2`` and
    144/36 = 4 for ``tile=4`` when the tile grid divides the output evenly.
    """
    th = (oh + require_count("tile", tile) - 1) // tile
    tw = (ow + tile - 1) // tile
    return batch * out_channels * in_channels * th * tw * (tile + 2) ** 2


class WinogradConv2D(Conv2D):
    """3x3/stride-1 convolution computed with Winograd F(m x m, 3x3).

    Same weight layout and gradients as :class:`~repro.nn.conv.Conv2D`
    restricted to ``kernel_size=3, stride=1``; only the forward arithmetic
    differs. ``tile_size=2`` (default) is the conservative F(2x2, 3x3);
    ``tile_size=4`` is F(4x4, 3x3) — 4x fewer multiplies but a wider
    transform, so it wins at larger tile counts and loses accuracy headroom
    (still well within fp32 tolerance of the direct conv). ``flops(batch)``
    reports the *mathematical* conv FLOPs (what an SDE-style counter
    attributes to the layer); ``multiply_reduction()`` reports the
    algorithmic saving.
    """

    kind = "conv"  # same performance-model class as a direct conv

    def __init__(self, in_channels: int, out_channels: int,
                 pad: Optional[int] = None, name: Optional[str] = None,
                 rng=None, tile_size: int = 2) -> None:
        if tile_size not in _TRANSFORMS:
            raise ValueError(
                f"tile_size must be one of {sorted(_TRANSFORMS)}, "
                f"got {tile_size}")
        super().__init__(in_channels, out_channels, 3, stride=1, pad=pad,
                         name=name or "wconv", rng=rng)
        self.tile_size = tile_size

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray, then=()) -> np.ndarray:
        check_input(self.name, x, self.in_channels)
        self._cache = None      # last step's, gone before this one's is made
        n, c, h, w = x.shape
        p, m = self.pad, self.tile_size
        a = m + 2                                     # input tile edge
        oh, ow = h + 2 * p - 2, w + 2 * p - 2
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"{self.name}: input {h}x{w} with pad {p} yields empty output")
        th, tw = (oh + m - 1) // m, (ow + m - 1) // m
        kb, kg, ka = _kron_transforms(
            m, np.result_type(self.weight.data, x))
        # Pad for "same"-style borders plus whatever extra rows/columns the
        # tile grid needs to cover the output exactly. Channel goes first so
        # the flattened tile axis factors as (C, N*th*tw) with no transpose.
        ph = m * th + 2 - h
        pw = m * tw + 2 - w
        xp = np.pad(x.transpose(1, 0, 2, 3),
                    ((0, 0), (0, 0), (p, ph - p), (p, pw - p)))
        # Overlapping a x a input tiles with stride m: (C, N, th, tw, a, a).
        tiles = np.lib.stride_tricks.sliding_window_view(
            xp, (a, a), axis=(2, 3))[:, :, ::m, ::m]
        tiles = np.ascontiguousarray(tiles).reshape(-1, a * a)
        # Both tile transforms are single GEMMs against the Kronecker-lifted
        # matrices; the Winograd-domain product is a^2 batched (F, C) x
        # (C, N*th*tw) GEMMs, one per transform-domain position. The filter
        # transform is a GEMM too, recomputed per call: (a^2, F, C).
        nt = n * th * tw
        v = (kb @ tiles.T).reshape(a * a, c, nt)
        u = (kg @ self.weight.data.reshape(-1, 9).T).reshape(a * a, -1, c)
        prod = np.matmul(u, v)                        # (a^2, F, N*th*tw)
        y = ka @ prod.reshape(a * a, -1)              # (m^2, F*N*th*tw)
        y = y.reshape(m, m, self.out_channels, n, th, tw) \
            .transpose(3, 2, 4, 0, 5, 1) \
            .reshape(n, self.out_channels, m * th, m * tw)
        out = y[:, :, :oh, :ow] + self.bias.data[None, :, None, None]
        self._keep(x)       # Conv2D's backward lowers the input again
        return run_layers(then, np.ascontiguousarray(out))

    def multiply_reduction(self, batch: int, input_shape) -> float:
        """Direct-conv multiplies / Winograd multiplies for this layer."""
        _c, h, w = input_shape
        oh, ow = h + 2 * self.pad - 2, w + 2 * self.pad - 2
        return (direct_multiplies(batch, self.out_channels, self.in_channels,
                                  oh, ow)
                / winograd_multiplies(batch, self.out_channels,
                                      self.in_channels, oh, ow,
                                      tile=self.tile_size))
