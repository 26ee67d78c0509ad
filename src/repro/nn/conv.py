"""2-D convolution layer (im2col + GEMM), with full backward pass.

The GEMM is ``W (F, C*k*k) @ cols (N, C*k*k, oh*ow)``: its ``(N, F, oh*ow)``
result is the NCHW output after a free reshape, and the output gradient is
consumed through the same free reshape, so neither pass transposes or
re-packs an activation. Lowering and GEMM are one call into ``nn.im2col``'s
fused forms, which run them band by band over the output rows: forward is
``lowered_matmul``, the weight gradient ``lowered_outer``, the data gradient
``matmul_col2im`` or, at stride 1, the convolution it is (``Conv2D.backward``
picks by operand shapes). A layer too big for one band never holds its
column matrix: ``backward`` lowers the cached input again, a band at a time;
a small one goes in one shot, and its training forward keeps the columns.
``nn.im2col.plan`` picks each pass's form: separable for few filters
(``enc_conv1``: 16 -> 16, 5x5/2), Winograd F(4x4, 3x3) for a 3x3 / stride-1
layer with channels and tiles enough (HEP ``conv2``, 128 -> 128 at 112x112).

In eval, ``forward(x, then)`` is the head of a **fused group**: bias and the
band-local layers ``then`` (``core.Sequential`` collects them) are applied
to each band of GEMM output by their own ``forward``, and only what the last
of them returns is stored. The first-touch page faults of a fresh 51 MB
output cost HEP ``conv1`` twice its GEMM; its group now writes 12.8 MB. A
leading max-pool runs before the bias, in the Winograd form before the weave.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.initializers import he_normal, zeros
from repro.core.module import (
    Module, check_grad_out, check_sizes, run_layers)
from repro.core.parameter import Parameter
from repro.nn.im2col import (
    check_input, conv_output_size, lowered_matmul, lowered_outer,
    matmul_col2im)
from repro.nn.pooling import max_pool_grad
from repro.utils.rng import SeedLike


class Conv2D(Module):
    """Convolution over ``(N, C, H, W)`` inputs.

    The HEP network uses 3x3/stride-1 convs with 128 filters; the climate
    encoder uses strided convs for downsampling (paper SIII-A/B). Weight
    layout is ``(out_channels, in_channels, kh, kw)``.
    """

    kind = "conv"
    takes_followers = True
    skips_input_grad = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, pad: Optional[int] = None,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "conv")
        (self.in_channels, self.out_channels, self.kernel_size,
         self.stride) = check_sizes(
            self.name, in_channels=in_channels, out_channels=out_channels,
            kernel_size=kernel_size, stride=stride)
        # Default padding preserves spatial size for stride 1 ("same").
        self.pad, = check_sizes(
            self.name, pad=(kernel_size - 1) // 2 if pad is None else pad)

        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel_size, kernel_size),
                      fan_in, rng), name="weight")
        self.bias = Parameter(zeros(out_channels), name="bias")
        self._cache: Optional[Tuple] = None

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray, then: Sequence[Module] = ()
                ) -> np.ndarray:
        """The convolution of ``x``; with ``then`` (band-local layers, see
        ``Module.band_rows``) what those make of it, layer by layer."""
        check_input(self.name, x, self.in_channels)
        self._cache = None      # last step's, gone before this one's is made
        _n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        bias = self.bias.data[:, None, None]
        f = math.prod(layer.band_rows for layer in then)
        # Fuse only an eval forward (training followers keep whole-tensor
        # masks) whose pools stay off their ragged path.
        if then and f and not (self.training
                               or conv_output_size(h, k, s, p) % f
                               or conv_output_size(w, k, s, p) % f):
            # A leading max-pool runs first and the bias after it: max
            # commutes with a per-channel add, rounding included.
            pool, rest = (then[0], then[1:]) if then[0].window_max \
                else (None, then)

            def epilogue(band: np.ndarray) -> np.ndarray:
                band += bias
                return run_layers(rest, band)

            if pool:        # its eval state, whether or not its forward runs
                pool._cache = None
            return lowered_matmul(w_mat, x, k, s, p, epilogue, f, pool)[0]
        out, kept = lowered_matmul(w_mat, x, k, s, p,  # (N, F, oh, ow)
                                   keep=self.training)
        out += bias
        self._keep(x, kept)
        return run_layers(then, out)

    def _keep(self, x: np.ndarray, kept=None) -> None:
        """Fill the one cache slot with what the weight gradient reads: what
        the forward made of ``x`` (one-shot columns, Winograd tiles: a
        ``Kept`` of ``lowered_matmul``) in its place, else ``x`` to lower
        again. Eval forwards (inference serving) never run backward: they
        pin nothing."""
        self._cache = (kept or x) if self.training else None

    def backward(self, grad_out: np.ndarray, input_grad: bool = True,
                 pool: Optional[Module] = None) -> Optional[np.ndarray]:
        """Accumulate the parameter gradients; return the data gradient.

        The data gradient has two forms. *Scatter*: ``col2im(W^T @ g)``, an
        ``F``-deep GEMM and ``k*k`` read-modify-write passes over a padded
        image; any stride. *Gather*, for ``stride == 1`` and ``pad <= k - 1``:
        the convolution of ``grad_out`` (padded ``k - 1 - pad``) with the
        kernels flipped and their channel axes swapped (paper SIII-C, read
        backwards), one gather and one ``F*k*k``-deep GEMM. The flip copies
        the weights, so gather runs only where those are no larger than
        ``grad_out``: at ClimateNet widths (1024 -> 1024 at 16x16) it loses.
        Same sums in another order: the two agree to rounding.

        With a ``pool`` (the max-pool behind a first conv), ``grad_out`` is
        its output gradient; with ``input_grad=False`` on the pool's fast
        path the pool's gradient is made a band at a time from the winners
        its forward kept, never whole.
        """
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x = self._cache                 # the input, or its Kept
        shape = (x.shape[0],) + self.output_shape(x.shape[1:])
        if pool is not None and (input_grad or pool._cache is None
                                 or not pool._is_fast_path(*shape[2:])):
            grad_out, pool = pool.backward(grad_out), None
        g = _Bands(grad_out, pool, self.name, shape)
        k, s, p = self.kernel_size, self.stride, self.pad
        weight = self.weight.data
        self.weight.grad += lowered_outer(g, x, k, s, p).reshape(weight.shape)
        # per image as its bands were read, then over images in image order
        self.bias.grad += np.add.accumulate(g.sums)[-1]
        if not input_grad:
            return None
        if s == 1 and p < k and weight.size <= grad_out.size:
            flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            return lowered_matmul(flipped.reshape(self.in_channels, -1),
                                  grad_out, k, 1, k - 1 - p)[0]
        w_mat = weight.reshape(self.out_channels, -1)
        return matmul_col2im(w_mat.T, grad_out, x.shape, k, s, p)

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        return (self.out_channels,
                conv_output_size(h, k, s, p),
                conv_output_size(w, k, s, p))

    def flops(self, batch: int, input_shape=None) -> int:
        """Forward FLOPs: 2 (MAC) x F x C x k^2 per output pixel, plus bias."""
        if input_shape is None:
            raise ValueError(
                f"{self.name}: conv FLOPs depend on spatial size; pass "
                "input_shape or use repro.flops.count_net")
        _c, h, w = input_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w, k, s, p)
        macs = batch * self.out_channels * oh * ow * self.in_channels * k * k
        bias_adds = batch * self.out_channels * oh * ow
        return 2 * macs + bias_adds


class _Bands:
    """``Conv2D.backward``'s output gradient as ``lowered_outer`` reads it,
    a band ``[i0:i1, :, r0:r1]`` at a time, its sums per image and channel
    added to ``sums``. Given a fast-path ``pool``, ``g`` is the pool's output
    gradient and a band is made from it and the pool's winners, sliced to
    the band's images and window rows, in one scratch (whole windows)."""

    def __init__(self, g: np.ndarray, pool: Optional[Module], name: str,
                 shape: Tuple[int, ...]) -> None:
        self.g, self.pool, self.shape, self.dtype = g, pool, shape, g.dtype
        if pool is not None:
            (self.wins, _), pool._cache = pool._cache, None
            name, shape = pool.name, self.wins.shape[:4]
            self.buf = np.empty(0)
        check_grad_out(name, g, shape)      # by the layer whose output it is
        self.sums = np.zeros(self.shape[:2], g.dtype)

    def __getitem__(self, index) -> np.ndarray:
        images, _, rows = index
        band = self.g[index] if self.pool is None else self.made(images, rows)
        self.sums[images] += band.reshape(*band.shape[:2], -1).sum(axis=2)
        return band

    def made(self, images: slice, rows: slice) -> np.ndarray:
        k, (_, m, _, ow) = self.pool.kernel_size, self.shape
        a, b = rows.start // k, -(-rows.stop // k)      # the windows' rows
        size = (images.stop - images.start) * m * (b - a) * k * ow
        if self.buf.size < size:
            self.buf = np.empty(size, self.dtype)
        band = self.buf[:size].reshape(-1, m, (b - a) * k, ow)
        max_pool_grad(self.wins[images, :, a:b], self.g[images, :, a:b],
                      k, k, band)
        return band[:, :, rows.start - a * k:rows.stop - a * k]
