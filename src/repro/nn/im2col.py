"""im2col / col2im: the lowering that turns convolution into GEMM.

MKL's DNN primitives (and most CPU conv implementations of the paper's era)
lower convolution onto a matrix multiply; we do the same so that NumPy's BLAS
plays the role of MKL. ``im2col`` gathers through a zero-copy strided view of
the zero-padded image, and ``col2im`` scatters back with a small loop over
the kernel footprint.

Layout convention: images are ``(N, C, H, W)``; columns are per-image and
channel-major, ``(N, C * kh * kw, out_h * out_w)``, so a conv is
``W @ cols``: a batched ``(F, C*kh*kw) x (C*kh*kw, out_h*out_w)`` GEMM whose
``(N, F, out_h*out_w)`` result already is NCHW. The gather and the scatter
move runs of ``out_w`` floats, not ``kw``, and no transpose is needed on
either side of the GEMM. This is the only layout in the tree: ``Conv2D``,
``Deconv2D`` and the backward passes of the Winograd and FFT layers share it,
and issue their GEMMs through ``_batch_matmul`` / ``_batch_outer`` below.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


#: Below this many columns per image a GEMM no longer amortises streaming its
#: weight operand (the paper ClimateNet's 4x4 and 8x8 layers hold up to 95 MB
#: of weights against 16-64 columns), so the batch shares one GEMM instead.
_FOLD_BELOW = 128


def _batch_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a (M, K)`` applied to every image of ``b (N, K, P)``: ``(N, M, P)``."""
    n, k, p = b.shape
    if n == 1 or p >= _FOLD_BELOW:
        return np.matmul(a, b)
    # One GEMM on (K, N*P): the re-packed operands are the small ones here.
    out = a @ b.transpose(1, 0, 2).reshape(k, n * p)
    return np.ascontiguousarray(out.reshape(-1, n, p).transpose(1, 0, 2))


def _batch_outer(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_n g[n] @ b[n].T`` for ``g (N, M, P)``, ``b (N, K, P)``: ``(M, K)``,
    the weight-gradient contraction over images and positions."""
    n, _, p = b.shape
    if n == 1 or p >= _FOLD_BELOW:
        return np.matmul(g, b.transpose(0, 2, 1)).sum(axis=0)
    return np.tensordot(g, b, axes=([0, 2], [0, 2]))


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - k) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, k={k}, "
            f"stride={stride}, pad={pad}")
    return out


def deconv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride - 2 * pad + k
    if out <= 0:
        raise ValueError(
            f"non-positive deconv output size for input={size}, k={k}, "
            f"stride={stride}, pad={pad}")
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Lower ``(N, C, H, W)`` into ``(N, C*kh*kw, oh*ow)`` patch columns."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = x.strides
    # Tap (i, j) of every patch is one strided (oh, ow) image; the reshape is
    # the only copy (none at all for a 1x1/stride-1 kernel).
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint scatter of :func:`im2col`: accumulate columns back to an image.

    Overlapping patches sum, which is exactly the adjoint of the im2col
    gather — this is the conv backward-data operation, and (via the paper's
    SIII-C trick) also the deconvolution forward operation.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    expected = (n, c * kh * kw, oh * ow)
    if cols.shape != expected:
        raise ValueError(f"cols shape {cols.shape} != expected {expected}")
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # Loop only over the (small) kernel footprint; each iteration is a fully
    # vectorized strided add over all patch positions.
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out
