"""im2col / col2im: the lowering that turns convolution into GEMM.

MKL's DNN primitives (and most CPU conv implementations of the paper's era)
lower convolution onto a matrix multiply; we do the same so that NumPy's BLAS
plays the role of MKL. ``im2col`` gathers through a zero-copy strided view of
the zero-padded image, and ``col2im`` scatters back with a small loop over
the kernel footprint.

Layout convention: images are ``(N, C, H, W)``; columns are per-image and
channel-major, ``(N, C*kh*kw, oh*ow)``, so a conv is a batched ``W (F,
C*kh*kw) @ cols`` GEMM whose ``(N, F, oh*ow)`` result already is NCHW. The
gather and the scatter move runs of ``ow`` floats, not ``kw``, and no
transpose is needed on either side of the GEMM (the only layout in the tree).

The layers do not call ``im2col`` / ``col2im`` themselves. They call the
three *fused* forms below, each a lowering and its GEMM in one function:

- :func:`lowered_matmul`, ``W @ im2col(x)``: conv forward, deconv
  backward-data;
- :func:`matmul_col2im`, ``col2im(W^T @ g)``: deconv forward, conv
  backward-data;
- :func:`lowered_outer`, ``sum_n g[n] @ im2col(x)[n]^T``: the weight gradient
  of both, summed over bands (or, in the tile domain, below: Winograd).

A fused form runs over **bands** of output rows: the columns of a band are
gathered into one reused buffer of about ``_BAND_BYTES``, multiplied, and
(for ``matmul_col2im``) scattered while still in cache, so the full column
matrix, ``k*k`` times the activation it lowers, is never built and an
activation is read once and written once. Only a layer whose whole-batch
columns are that small anyway, or whose images have too few columns to carry a
GEMM of their own (``_FOLD_BELOW``), goes in one shot through ``im2col`` /
``col2im`` and ``_batch_matmul`` / ``_batch_outer``. Those two *fold* the
batch into one GEMM where the weight operand outweighs an image's columns
(``_folds``: under ``_FOLD_BELOW`` columns and more weight rows than columns)
and run one GEMM per image otherwise: re-packing a batch to share 2 KB of
weights costs three times the GEMMs.

Which form a pass runs, over which bands, is one decision, :func:`plan`,
from operand shapes alone: each fused function asks it once, and the form
bodies below run the bands it gives them. A banded pass is *separable* where
the rows-moved rule (``_separable``) says so, *Winograd* where the multiplies
rule (``_winograd``) does, else *direct*. Wrap ``plan`` to see what a pass
runs (its ``op`` names the pass); patch it to force a form.

``lowered_matmul`` also takes an ``epilogue``: an eval ``Conv2D`` passes the
band-local layers behind it (a leading non-overlapping max-pool as ``pool``,
then bias, ReLU), and each band of GEMM output goes through them while it is
in cache, so the conv's own output is never an array. Such a band is budgeted
for the output rows it holds next to its columns and is a whole number of
pool windows high. ``matmul_col2im`` takes one too (a ``Deconv2D``'s bias and
elementwise followers), applied to each band of the image as it is finished.

A banded ``k x k`` layer with a *thin* side runs the **separable** form of
the first two: only the row taps are lowered and the GEMM's other dimension
carries the column taps, so ``k``-fold fewer rows are gathered or scattered
and the GEMM is squarer. ``matmul_col2im`` copies, per row phase ``r <
stride``, the ``T`` row-shifted slabs of ``g`` (zero past the image edge: no
padded copy of anything), multiplies by that phase's taps ``(C*k, T*M)`` and
adds column tap ``j`` of the product, dense and shifted ``j // stride``, into
the plane of column phase ``j % stride``; weaving the planes finishes the
band (of the image's ``stride``-row groups), which goes through the epilogue
into the result. ``lowered_matmul`` is the adjoint: per column phase it
gathers the ``k`` row taps of every ``stride``-th column, multiplies by
``(M*U, C*k)`` and sums the ``U`` shifted slices of the product into the band.

A banded 3x3 / stride-1 layer with channels on both sides and tiles enough
for them runs ``lowered_matmul`` and ``lowered_outer`` as **Winograd F(4x4,
3x3)** (Lavin & Gray 2015; the paper's SVIII-A defers it): 36 multiplies per
16 outputs and channel pair, not 144. Per band of whole tile rows the input
rows are copied between zero edges, viewed as 6x6 tiles at stride 4 and
gathered tap-major, and ``kron(B^T, B^T)`` is one GEMM (``_tiles``, shared;
two scratches share ``_BAND_BYTES``). Forward, the 36 transform-domain
products are one batched ``(M, C) @ (C, tiles)``, ``kron(A^T, A^T)`` is one
GEMM, and the woven 4x4 blocks go to the epilogue like any band (a ``pool``
of a side dividing 4 is the ``fmax`` of whole 4x4-block slabs, before the
weave). The weight gradient is the adjoint: the band's 4x4 blocks of ``g``
(zero past a ragged edge) times ``kron(A^T, A^T)^T``, one batched ``(M,
tiles) @ (tiles, C)`` summed over bands, and ``kron(G, G)^T`` once at the
end. Whole-image Winograd (``nn.winograd.WinogradConv2D``, the reference)
streams ~100 MB of tiles through first-touch page faults and loses to the
direct form; a band's two scratches stay in cache. The kernels are
transformed per call (a ``(36, 9) @ (9, M*C)`` GEMM); nothing is packed
between bands. A training forward (``keep``) makes all bands' tiles in one
array, 2.25 times its input, which its layer holds in place of the input
(a :class:`Kept`) until its next forward: the weight gradient reads them,
band by band (one plan, the same bands), and does not make them again.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np


#: Below this many columns per image a GEMM no longer amortises streaming its
#: weight operand (the paper ClimateNet's 4x4 and 8x8 layers hold up to 95 MB
#: of weights against 16-64 columns), so the batch shares one GEMM instead,
#: where the weights have more rows than the image has columns (``_folds``:
#: a 16-filter layer's weights are smaller than the batch it would re-pack).
_FOLD_BELOW = 128

#: Column bytes a band of a fused lowering gathers at a time. 1-16 MiB
#: measure alike on the large layers (the ClimateNet decoder, HEP ``conv2``);
#: 128-512 KiB lose 10-100 % on mid-size ones to per-band call overhead.
_BAND_BYTES = 4 << 20

#: Below this thin side (the GEMM dimension ``k*k`` does not multiply: a
#: deconv's ``C_in``, a conv's ``F``) a banded layer may take the separable
#: form. From here on the direct GEMM is deep enough, and re-packing weights
#: by phase costs what the rows save (``dec_deconv1``, 432 -> 216: 0.8-0.9x).
_THIN_BELOW = 128

#: From this thin side on the F(4x4, 3x3) form pays for its transforms:
#: 32 -> 32 runs 1.3-1.4x the direct form, 16 -> 32 ties it.
_WINOGRAD_FROM = 32

#: ``(first image, end image, first output row, end output row)`` of one band
_Band = Tuple[int, int, int, int]


def _separable(thin: int, wide: int, k: int, stride: int,
               gathers: bool) -> bool:
    """The rows-moved rule: whether a banded ``k x k`` layer lowers only its
    row taps. Per GEMM column a scatter moves ``wide*k*k`` rows, separably
    ``thin*k + wide*k*stride``; a gather ``wide*k*k``, separably ``(wide +
    thin)*k``, and must halve them to pay: its direct form only copies."""
    fewer = 2 * (wide + thin) <= wide * k if gathers \
        else thin <= wide * (k - stride)
    return fewer and thin < _THIN_BELOW


def _winograd(n: int, c: int, m: int, oh: int, ow: int) -> bool:
    """The multiplies rule: whether a banded 3x3 / stride-1 layer of ``c``
    channels and ``m`` filters runs as F(4x4, 3x3). A tile of 16 outputs
    costs ``36*c*m`` multiplies for ``144*c*m`` and ``1296*c + 576*m`` in
    transforms, which a thin side does not pay back; the 36 transformed
    kernels, four times the weights, must not outweigh the tiles they are
    streamed for."""
    tiles = n * -(-oh // 4) * -(-ow // 4)
    return min(c, m) >= _WINOGRAD_FROM and tiles >= max(c, m)


def _folds(n: int, rows: int, p: int) -> bool:
    """Whether ``n`` images of ``p`` columns share one GEMM: where a weight
    operand of ``rows`` rows outweighs the columns it is streamed for."""
    return n > 1 and p < _FOLD_BELOW and rows > p


def _batch_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a (M, K)`` applied to every image of ``b (N, K, P)``: ``(N, M, P)``."""
    n, k, p = b.shape
    if not _folds(n, a.shape[0], p):
        return np.matmul(a, b)
    # One GEMM on (K, N*P): the re-packed operands are the small ones here.
    out = a @ b.transpose(1, 0, 2).reshape(k, n * p)
    return np.ascontiguousarray(out.reshape(-1, n, p).transpose(1, 0, 2))


def _batch_outer(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_n g[n] @ b[n].T`` for ``g (N, M, P)``, ``b (N, K, P)``: ``(M, K)``,
    the weight-gradient contraction over images and positions."""
    n, _, p = b.shape
    if not _folds(n, g.shape[1], p):
        return np.matmul(g, b.transpose(0, 2, 1)).sum(axis=0)
    return np.tensordot(g, b, axes=([0, 2], [0, 2]))


def check_input(name: str, x: np.ndarray, channels: int) -> None:
    """Reject, by layer name, all but a non-empty ``(N, channels, H, W)``."""
    if x.ndim != 4 or not x.shape[0]:
        raise ValueError(f"{name}: expected (N, {channels}, H, W) with "
                         f"N >= 1, got {x.shape}")
    if x.shape[1] != channels:
        raise ValueError(f"{name}: expected {channels} input channels, "
                         f"got {x.shape[1]}")


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


# -- the lowering and its adjoint --------------------------------------------

def _patches(x: np.ndarray, kh: int, kw: int, stride: int,
             pad: int) -> np.ndarray:
    """Zero-copy ``(N, C, kh, kw, oh, ow)`` view of the zero-padded ``x``:
    tap ``(i, j)`` of every patch is one strided ``(oh, ow)`` image."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow),
        (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)


def _scatter_add(out: np.ndarray, cols6: np.ndarray, stride: int) -> None:
    """``out[:, :, y*stride + i, x*stride + j] += cols6[:, :, i, j, y, x]``."""
    _, _, kh, kw, oh, ow = cols6.shape
    # Loop only over the (small) kernel footprint; each iteration is a fully
    # vectorized strided add over all patch positions.
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Lower ``(N, C, H, W)`` into ``(N, C*kh*kw, oh*ow)`` patch columns."""
    view = _patches(x, kh, kw, stride, pad)
    n, c, _, _, oh, ow = view.shape
    # The reshape is the only copy (none at all for a 1x1/stride-1 kernel).
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
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    _scatter_add(out, cols.reshape(n, c, kh, kw, oh, ow), stride)
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


# -- the fused, banded forms the layers call ---------------------------------

def _bands(n: int, rows: int, oh: int, ow: int, itemsize: int,
           multiple: int = 1) -> Optional[List[_Band]]:
    """Cut the ``(n, rows, oh*ow)`` columns of a layer into bands of about
    ``_BAND_BYTES``, a ``multiple`` of output rows high (``oh`` is one);
    ``None`` when the layer goes in one shot."""
    row_bytes = rows * ow * itemsize
    if n * oh * row_bytes <= _BAND_BYTES or oh * ow < _FOLD_BELOW:
        return None
    # A band, like an image, needs _FOLD_BELOW columns to pay for streaming
    # the weights, however many bytes that takes.
    return _cut(n, oh, max(_BAND_BYTES // row_bytes, -(-_FOLD_BELOW // ow)),
                multiple)


def _cut(n: int, oh: int, height: int, multiple: int = 1) -> List[_Band]:
    """Bands of about ``height`` rows of ``n`` images of ``oh`` rows."""
    if height >= oh:
        # Bands of whole images, evened out to within one (first largest).
        count = -(-n // (height // oh))
        cuts = [-(-n * j // count) for j in range(count + 1)]
        return [(i0, i1, 0, oh) for i0, i1 in zip(cuts, cuts[1:])]
    height = -(-oh // -(-oh // height))           # even out a ragged tail
    height = -(-height // multiple) * multiple
    return [(i, i + 1, r, min(r + height, oh))
            for i in range(n) for r in range(0, oh, height)]


class Plan(NamedTuple):
    """What one pass runs: ``form``, ``one-shot`` (no ``bands``), ``direct``,
    ``separable`` or ``winograd``, over ``bands`` of output rows, the first
    the largest (a separable ``matmul_col2im``'s: ``stride``-row groups)."""
    form: str
    bands: Optional[Tuple[_Band, ...]] = None


class Kept(NamedTuple):
    """What :func:`lowered_matmul` made of an input of ``shape`` by
    ``plan``, in ``dtype``, for :func:`lowered_outer` to take in its place:
    one-shot columns, or the Winograd form's tiles, ``band -> (36, C,
    tiles)`` slices of one array."""
    shape: Tuple[int, int, int, int]
    dtype: np.dtype
    plan: Plan
    data: object


def plan(op: Callable, x_shape: Tuple[int, int, int, int], w_rows: int,
         k: int, stride: int, pad: int, dtype, held: int = 0,
         multiple: int = 1) -> Plan:
    """The lowering decision: what ``op`` (a fused function below) runs to
    lower images of ``x_shape`` by a ``k x k`` / ``stride`` / ``pad`` kernel
    against ``w_rows`` channels (``lowered_matmul``'s weight rows, ``g``'s
    channels), its columns in ``dtype``; a band also budgets ``held``
    output rows next to them and is a ``multiple`` of rows high."""
    n, c, h, w = x_shape
    oh, ow = (conv_output_size(d, k, stride, pad) for d in (h, w))
    size, form = np.dtype(dtype).itemsize, "direct"
    if op is matmul_col2im:
        bands = _bands(n, c * k * k, oh, ow, size)
        if bands and _separable(w_rows, c, k, stride, False):
            # the image's stride-row groups; row phase 0 holds the most taps
            rows = -(-(pad + h) // stride) - pad // stride
            form, bands = "separable", _bands(
                n, -(-k // stride) * w_rows + c * k, rows, ow, size) \
                or [(0, n, 0, rows)]
    else:           # a 1x1 / stride-1 lowering is a view of x: no bytes
        bands = None if k == stride == 1 and not pad else _bands(
            n, c * k * k + held, oh, ow, size, multiple)
        if bands and (k, stride) == (3, 1) and _winograd(n, c, w_rows, oh, ow):
            # whole tile rows: two scratches 36*max(c, w_rows) deep a tile
            tiles = _BAND_BYTES // (72 * max(c, w_rows) * -(-ow // 4) * size)
            form, bands = "winograd", [
                (i0, i1, 4 * t0, min(4 * t1, oh)) for i0, i1, t0, t1 in _cut(
                    n, -(-oh // 4), max(tiles, 1),
                    multiple // math.gcd(4, multiple))]
        elif bands and op is lowered_matmul \
                and _separable(w_rows, c, k, stride, True):
            form = "separable"
    return Plan(form, tuple(bands)) if bands else Plan("one-shot")


def _band_buffer(bands: List[_Band], rows: int, ow: int, dtype) -> np.ndarray:
    """Flat scratch that holds the columns of any one of ``bands`` (the
    first is the largest); every band reuses it."""
    i0, i1, r0, r1 = bands[0]
    return np.empty((i1 - i0) * rows * (r1 - r0) * ow, dtype)


def _band_cols(buf: np.ndarray, band: _Band, rows: int, ow: int) -> np.ndarray:
    """The front of ``buf`` as the ``(nb, rows, P)`` columns of ``band``."""
    i0, i1, r0, r1 = band
    shape = (i1 - i0, rows, (r1 - r0) * ow)
    return buf[:shape[0] * shape[1] * shape[2]].reshape(shape)


def _gather(buf: np.ndarray, patches: np.ndarray, band: _Band) -> np.ndarray:
    """im2col of one band of ``patches`` into ``buf``: ``(nb, C*kh*kw, P)``."""
    i0, i1, r0, r1 = band
    src = patches[i0:i1, :, :, :, r0:r1]
    _, c, kh, kw, _, ow = src.shape
    cols = _band_cols(buf, band, c * kh * kw, ow)
    np.copyto(cols.reshape(src.shape), src)
    return cols


def lowered_matmul(a: np.ndarray, x: np.ndarray, k: int, stride: int,
                   pad: int,
                   epilogue: Optional[Callable[[np.ndarray], np.ndarray]]
                   = None, multiple: int = 1, pool=None, keep: bool = False
                   ) -> Tuple[np.ndarray, Optional[Kept]]:
    """``a (M, C*k*k) @ im2col(x)`` as an ``(N, M, oh, ow)`` image, and the
    :class:`Kept` columns where it went in one shot and so built them or,
    with ``keep``, the Winograd form's tiles, all bands' in one array (a
    training forward keeps either for :func:`lowered_outer`), else ``None``.

    With an ``epilogue`` the result is ``epilogue(product)``, and the
    product is never stored: each ``(nb, M, rows, ow)`` band of it goes from
    a reused scratch through ``epilogue`` (which may write to its argument)
    into the output. ``epilogue`` must be band-local: every ``multiple`` rows
    of the product (``oh`` is a multiple) make one row of its result, from
    those rows alone. A ``pool`` (a non-overlapping max-pool) runs ahead of
    it, or in the tile form on the product's 4x4 blocks, if its side
    divides 4."""
    n, c, h, w = x.shape
    m, dtype = a.shape[0], np.result_type(a, x)
    oh, ow = (conv_output_size(d, k, stride, pad) for d in (h, w))
    made = plan(lowered_matmul, x.shape, m, k, stride, pad, x.dtype,
                m if epilogue else 0, multiple)
    (form, bands), tiles = made, {} if keep else None
    side, then = 1, epilogue        # of the windows the tile form pools
    if pool is not None:
        def epilogue(y: np.ndarray) -> np.ndarray:
            return then(pool.forward(y))
    if form == "one-shot":
        cols = im2col(x, k, k, stride, pad)
        out = _batch_matmul(a, cols).reshape(n, m, oh, ow)
        return (epilogue(out) if epilogue else out), \
            Kept(x.shape, x.dtype, made, cols)
    if form == "winograd":
        if pool is not None and 4 % pool.band_rows == 0:
            side, epilogue = pool.band_rows, then
        product = _tile_lowering(a, x, pad, bands, dtype, side, tiles)
    elif form == "separable":
        product = _row_lowering(a, x, k, stride, pad, bands, ow, dtype)
    else:
        patches = _patches(x, k, k, stride, pad)
        buf = _band_buffer(bands, c * k * k, ow, x.dtype)

        def product(band: _Band, y: np.ndarray) -> None:
            np.matmul(a, _gather(buf, patches, band), out=y)

    if epilogue is None:
        out = np.empty((n, m, oh * ow), dtype=dtype)
        for band in bands:
            i0, i1, r0, r1 = band
            # Each band's product lands in its slice of the NCHW output.
            product(band, out[i0:i1, :, r0 * ow:r1 * ow])
        return out.reshape(n, m, oh, ow), \
            Kept(x.shape, dtype, made, tiles) if tiles else None
    prod, out = _band_buffer(bands, m, ow, dtype), None
    for band in bands:
        i0, i1, r0, r1 = band
        y = _band_cols(prod, (i0, i1, r0 // side, r1 // side), m, ow // side)
        product(band, y)
        y = epilogue(y.reshape(i1 - i0, m, (r1 - r0) // side, ow // side))
        if out is None:         # the epilogue decides channels and width
            out = np.empty((n, y.shape[1], oh // multiple, y.shape[3]),
                           y.dtype)
        out[i0:i1, :, r0 // multiple:r1 // multiple] = y
    return out, None


def _tiles(x, pad, m, bands, dtype, kept=None):
    """What both F(4x4, 3x3) forms share (module docstring): a scratch deep
    enough for any of ``bands``; ``taps(band)``, the band's transformed
    tiles ``(36, C, tiles)``, read from ``x`` where it is their
    :class:`Kept`, else made in a second scratch or, given a ``kept`` dict
    to fill, in the band's slice of one array of all bands' tiles; and the
    kernel and output transforms."""
    # at call time: that module's layer subclasses Conv2D, which imports this
    from repro.nn.winograd import _kron_transforms
    n, c, h, w = x.shape
    tw = -(-(w + 2 * pad - 2) // 4)
    kb, kg, ka = _kron_transforms(4, dtype)
    i0, i1, r0, r1 = bands[0]
    most = (i1 - i0) * -(-(r1 - r0) // 4)       # tile rows of a band
    ping = np.empty(most * tw * 36 * max(c, m), dtype)
    if isinstance(x, Kept):
        return ping, None, x.data.__getitem__, kg, ka
    edged = np.empty((most * 4 + 2 * (i1 - i0)) * c * (4 * tw + 2), dtype)
    pong = np.empty(ping.size, dtype)
    if kept is not None:
        sizes = [36 * c * (i1 - i0) * -(-(r1 - r0) // 4) * tw
                 for i0, i1, r0, r1 in bands]
        kept.update(zip(bands, (t.reshape(36, c, -1) for t in np.split(
            np.empty(sum(sizes), dtype), np.cumsum(sizes[:-1])))))

    def taps(band: _Band) -> np.ndarray:
        i0, i1, r0, r1 = band
        nb, nt = i1 - i0, -(-(r1 - r0) // 4)
        # the band's input rows between zero edges: (nb, C, 4*nt+2, 4*tw+2)
        d = edged[:nb * c * (4 * nt + 2) * (4 * tw + 2)] \
            .reshape(nb, c, 4 * nt + 2, 4 * tw + 2)
        d.fill(0)
        lo, hi = max(r0 - pad, 0), min(r0 + 4 * nt + 2 - pad, h)
        d[:, :, lo - r0 + pad:hi - r0 + pad, pad:pad + w] = x[i0:i1, :, lo:hi]
        sn, sc, sh, sw = d.strides
        taps = np.lib.stride_tricks.as_strided(     # 6x6 tiles at stride 4
            d, (6, 6, c, nb, nt, tw), (sh, sw, sc, sn, 4 * sh, 4 * sw))
        v = ping[:taps.size].reshape(36, -1)
        np.copyto(v.reshape(taps.shape), taps)
        out = pong[:v.size] if kept is None else kept[band]
        return np.matmul(kb, v, out=out.reshape(v.shape)).reshape(36, c, -1)
    return ping, pong, taps, kg, ka


def _tile_lowering(a, x, pad, bands, dtype, k, kept=None):
    """The F(4x4, 3x3) product of :func:`lowered_matmul` (module docstring):
    ``product(band, y)`` filling ``y (nb, M, rows/k * ow/k)`` with the
    maxima of the product's ``k x k`` windows (``k`` divides 4; 1: the
    product itself), the band's tiles made in ``kept`` if given."""
    m, ow = a.shape[0], x.shape[3] + 2 * pad - 2
    ping, pong, taps, kg, ka = _tiles(x, pad, m, bands, dtype, kept)
    u = (kg @ a.reshape(-1, 9).T).reshape(36, m, -1)
    q = 4 // k                          # pooled outputs a block side

    def product(band: _Band, y: np.ndarray) -> None:
        i0, i1, r0, r1 = band
        nb, nt, tw = i1 - i0, -(-(r1 - r0) // 4), -(-ow // 4)
        z = np.matmul(u, taps(band),
                      out=ping[:36 * m * nb * nt * tw].reshape(36, m, -1))
        z = np.matmul(ka, z.reshape(36, -1),
                      out=pong[:16 * z[0].size].reshape(16, -1))
        if k > 1:   # MaxPool2D.forward's fmax passes: rows, then columns
            z = z.reshape(q, k, q, k, -1)
            rows = reduce(np.fmax, [z[:, i] for i in range(k)])
            z = reduce(np.fmax, [rows[:, :, j] for j in range(k)])
        # weave the blocks; a ragged edge is cropped on the way into y
        full = ping[:z.size].reshape(nb, m, nt, q, tw, q)
        full.transpose(3, 5, 1, 0, 2, 4)[...] = z.reshape(q, q, m, nb, nt, tw)
        y.reshape(nb, m, (r1 - r0) // k, ow // k)[...] = full.reshape(
            nb, m, q * nt, q * tw)[:, :, :(r1 - r0) // k, :ow // k]
    return product


def _tile_outer(g, x, pad, bands, dtype):
    """The F(4x4, 3x3) form of :func:`lowered_outer` (module docstring) for
    ``g (N, M, oh, ow)``: the forward's tiles, made again from ``x`` or
    kept (``x`` their :class:`Kept`), against ``g``'s 4x4 blocks."""
    (_, m, _, ow), c = g.shape, x.shape[1]
    ping, _, taps, kg, ka = _tiles(x, pad, m, bands, dtype)
    most = ping.size // (36 * max(c, m))            # tiles of a band
    blocks = np.empty(16 * m * most, dtype)
    du, part = np.zeros((36, m, c), dtype), np.empty((36, m, c), dtype)
    for band in bands:
        i0, i1, r0, r1 = band
        nb, nt, tw = i1 - i0, -(-(r1 - r0) // 4), -(-ow // 4)
        v, rows = taps(band), g[i0:i1, :, r0:r1]
        if rows.shape[2:] != (4 * nt, 4 * tw):      # zero past a ragged edge
            full = ping[:16 * m * nb * nt * tw].reshape(nb, m, 4 * nt, 4 * tw)
            full.fill(0)
            full[:, :, :r1 - r0, :ow] = rows
            rows = full
        dy = blocks[:rows.size].reshape(16, -1)
        dy.reshape(4, 4, m, nb, nt, tw)[...] = rows.reshape(
            nb, m, nt, 4, tw, 4).transpose(3, 5, 1, 0, 2, 4)
        dz = np.matmul(ka.T, dy, out=ping[:36 * dy[0].size].reshape(36, -1))
        du += np.matmul(dz.reshape(36, m, -1), v.transpose(0, 2, 1), out=part)
    return (du.reshape(36, -1).T @ kg).reshape(m, c * 9)


def _row_lowering(a, x, k, s, pad, bands, ow, dtype):
    """The separable product of :func:`lowered_matmul` (module docstring):
    ``product(band, y)`` fills ``y (nb, M, rows*ow)``. Column phase ``b``
    holds taps ``b + s*u``; ``xw`` columns of it feed ``ow`` outputs."""
    n, c, h, w = x.shape
    m = a.shape[0]
    a = a.reshape(m, c, k, k)
    phases = [np.ascontiguousarray(a[..., b::s].transpose(0, 3, 1, 2), dtype)
              .reshape(-1, c * k) for b in range(min(s, k))]
    xw = ow + phases[0].shape[0] // m - 1
    buf = _band_buffer(bands, c * k, xw, x.dtype)
    prod = _band_buffer(bands, phases[0].shape[0], xw, dtype)

    def product(band: _Band, y: np.ndarray) -> None:
        i0, i1, r0, r1 = band
        y = y.reshape(i1 - i0, m, r1 - r0, ow)
        for b, a_b in enumerate(phases):
            cols = _band_cols(buf, band, c * k, xw)
            cols.fill(0)
            x_lo, x_hi = max(0, -((b - pad) // s)), \
                min(xw, (w - 1 + pad - b) // s + 1)
            taps = cols.reshape(i1 - i0, c, k, r1 - r0, xw)
            for i in range(k):
                lo = max(r0, -((i - pad) // s))
                hi = max(min(r1, (h - 1 + pad - i) // s + 1), lo)
                taps[:, :, i, lo - r0:hi - r0, x_lo:x_hi] = x[
                    i0:i1, :, lo * s + i - pad:hi * s + i - pad:s,
                    x_lo * s + b - pad:x_hi * s + b - pad:s]
            z = _band_cols(prod, band, a_b.shape[0], xw)
            np.matmul(a_b, cols, out=z)
            z = z.reshape(i1 - i0, m, -1, r1 - r0, xw)
            for u in range(z.shape[2]):     # the first slice starts the sum
                np.add(y if b + u else 0, z[:, :, u, :, u:u + ow], out=y)
    return product


def _separable_col2im(a, g, x_shape, k, s, pad, bands, dtype, epilogue):
    """The separable form of :func:`matmul_col2im` (module docstring). Row
    phase ``r`` holds taps ``r + s*t`` and output rows ``s*q + r``; bands
    are cut over ``q``, so a band is final when its planes are woven."""
    n, c, h, w = x_shape
    m, oh, ow = g.shape[1:]
    a = a.reshape(c, k, k, m)
    phases = [np.ascontiguousarray(a[:, r::s].transpose(0, 2, 1, 3), dtype)
              .reshape(c * k, -1) for r in range(min(s, k))]
    q0 = pad // s                   # rows s*q .. s*q + s - 1 meet the image
    xw = max(ow + (k - 1) // s, -(-(pad + w) // s))         # plane width
    slabs = _band_buffer(bands, phases[0].shape[1], ow, dtype)  # the deepest
    prod = _band_buffer(bands, c * k, ow, dtype)
    planes, woven = (_band_buffer(bands, c, s * s * xw, dtype)
                     for _ in range(2))
    out = np.empty(x_shape, dtype)
    for band in bands:
        i0, i1, r0, r1 = band
        nb, nq, qa = i1 - i0, r1 - r0, r0 + q0
        acc = _band_cols(planes, band, c, s * s * xw) \
            .reshape(nb, c, nq, s, s, xw)
        acc.fill(0)
        for r, a_r in enumerate(phases):
            cols = _band_cols(slabs, band, a_r.shape[1], ow)
            slab = cols.reshape(nb, -1, m, nq, ow)
            for t in range(slab.shape[1]):
                lo = max(qa, t)
                hi = max(min(qa + nq, oh + t), lo)
                slab[:, t, :, :lo - qa] = 0
                slab[:, t, :, hi - qa:] = 0
                slab[:, t, :, lo - qa:hi - qa] = g[i0:i1, :, lo - t:hi - t]
            y = _band_cols(prod, band, c * k, ow)
            np.matmul(a_r, cols, out=y)
            y = y.reshape(nb, c, k, nq, ow)
            for j in range(k):
                acc[:, :, :, r, j % s, j // s:j // s + ow] += y[:, :, j]
        full = acc.reshape(nb, c, nq, s, xw, s)     # s == 1: nothing to do
        if s > 1:
            full = _band_cols(woven, band, c, s * s * xw).reshape(full.shape)
            for b in range(s):
                full[..., b] = acc[:, :, :, :, b]
        lo, hi = max(qa * s, pad), min((qa + nq) * s, pad + h)
        y = full.reshape(nb, c, nq * s, xw * s)[
            :, :, lo - qa * s:hi - qa * s, pad:pad + w]
        out[i0:i1, :, lo - pad:hi - pad] = epilogue(y) if epilogue else y
    return out


def matmul_col2im(a: np.ndarray, g: np.ndarray,
                  x_shape: Tuple[int, int, int, int], k: int, stride: int,
                  pad: int,
                  epilogue: Optional[Callable[[np.ndarray], np.ndarray]]
                  = None) -> np.ndarray:
    """``col2im(a (C*k*k, M) @ g)`` for ``g (N, M, oh, ow)``: an image of
    ``x_shape``, each band of columns scattered while it is still in cache;
    with an elementwise ``epilogue``, what that makes of the image, applied
    to each whole-row band of it no later band adds to (one shot: to all)."""
    n, c, h, w = x_shape
    oh, ow = (conv_output_size(d, k, stride, pad) for d in (h, w))
    if g.shape[0] != n or g.shape[2:] != (oh, ow):
        raise ValueError(
            f"g shape {g.shape} does not lower an image of {x_shape}")
    dtype, rows = np.result_type(a, g), c * k * k
    form, bands = plan(matmul_col2im, x_shape, g.shape[1], k, stride, pad,
                       dtype)
    if form == "separable":
        return _separable_col2im(a, g, x_shape, k, stride, pad, bands, dtype,
                                 epilogue)
    g = g.reshape(n, -1, oh * ow)
    if form == "one-shot":
        out = col2im(_batch_matmul(a, g), x_shape, k, k, stride, pad)
        return epilogue(out) if epilogue else out
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    done = np.empty(x_shape, dtype) if epilogue else out[
        :, :, pad:pad + h, pad:pad + w]
    buf = _band_buffer(bands, rows, ow, dtype)
    for band in bands:
        i0, i1, r0, r1 = band
        cols = _band_cols(buf, band, rows, ow)
        np.matmul(a, g[i0:i1, :, r0 * ow:r1 * ow], out=cols)
        _scatter_add(out[i0:i1, :, r0 * stride:],
                     cols.reshape(-1, c, k, k, r1 - r0, ow), stride)
        if epilogue:    # no later band reaches the rows above r1 * stride
            lo, hi = np.clip((r0 * stride, r1 * stride if r1 < oh else h + pad),
                             pad, h + pad)
            done[i0:i1, :, lo - pad:hi - pad] = epilogue(
                out[i0:i1, :, lo:hi, pad:pad + w])
    return done


def lowered_outer(g, x, k: int, stride: int, pad: int) -> np.ndarray:
    """``sum_n g[n] @ im2col(x)[n].T`` for ``g (N, M, oh, ow)``: the
    ``(M, C*k*k)`` weight gradient. ``x`` is the input or, in its place,
    what :func:`lowered_matmul` made of it (:class:`Kept`): nothing to plan
    or lower. The sum is in ``result_type(g, x)``, a ``Kept``'s dtype its
    data's: columns in ``x``'s, tiles in the forward's ``result_type(a,
    x)`` (a wider ``g`` promotes them). Each row of ``g`` is read once, in
    bands ``g[i0:i1, :, r0:r1]`` (one shot: ``_BAND_BYTES`` of whole
    images), each used up before the next: ``g`` may be anything with
    ``shape``, ``dtype`` and such slices."""
    n, c, h, w = x.shape
    oh, ow = (conv_output_size(d, k, stride, pad) for d in (h, w))
    if g.shape[0] != n or math.prod(g.shape[2:]) != oh * ow:
        raise ValueError(
            f"g shape {g.shape} does not lower an image of {x.shape}")
    m, dtype = g.shape[1], np.result_type(g.dtype, x.dtype)
    if isinstance(g, np.ndarray):
        g = g.reshape(n, m, oh, ow)
    kept = isinstance(x, Kept)
    form, bands = x.plan if kept else plan(
        lowered_outer, x.shape, m, k, stride, pad, x.dtype)
    if form == "one-shot":
        cols = x.data if kept else im2col(x, k, k, stride, pad)
        if _folds(n, m, oh * ow):
            return _batch_outer(g[0:n, :, 0:oh].reshape(n, m, -1), cols)
        # _batch_outer's per-image products, summed in image order
        prods = np.empty((n, m, cols.shape[1]), dtype)
        for i0, i1, _, _ in _cut(n, oh, max(
                _BAND_BYTES // (g.dtype.itemsize * m * ow), oh)):
            np.matmul(g[i0:i1, :, 0:oh].reshape(i1 - i0, m, -1),
                      cols[i0:i1].transpose(0, 2, 1), out=prods[i0:i1])
        return prods.sum(axis=0)
    if form == "winograd":
        return _tile_outer(g, x, pad, bands, dtype)
    patches = _patches(x, k, k, stride, pad)
    acc = np.zeros((m, c * k * k), dtype)
    buf = _band_buffer(bands, c * k * k, ow, x.dtype)
    for band in bands:
        i0, i1, r0, r1 = band
        acc += _batch_outer(g[i0:i1, :, r0:r1].reshape(i1 - i0, m, -1),
                            _gather(buf, patches, band))
    return acc
