"""Transposed convolution (deconvolution) via the conv forward/backward swap.

Paper SIII-C: *"We used the fact that the convolutions in the backward pass
can be used to compute the deconvolutions of the forward pass and vice-versa
in order to develop optimized deconvolution implementations."*

Concretely, with weights ``(in_channels, out_channels, kh, kw)``:

- deconv **forward**  == conv **backward-data** (a GEMM, then overlap-add);
- deconv **backward-data** == conv **forward** (im2col followed by a GEMM);
- deconv **weight gradient** uses the same im2col columns as conv's.

This makes the deconv layers "perform very similarly to the corresponding
convolution layers", which is the property Fig 5b relies on.

Both passes use ``nn.im2col``'s per-image channel-major layout and its fused,
banded forms, so the swap is literal: forward is ``matmul_col2im``,
``col2im(W^T @ x)`` on ``x`` viewed ``(N, C_in, h*w)``, and backward-data is
``lowered_matmul``, ``W @ im2col(grad_out)``, already ``(N, C_in, h, w)``. The
``(N, F*k*k, h*w)`` column matrix (``k*k`` times the output) is never built
and no transposed copy of an activation is made. A wide layer scatters each
band's ``k*k`` tap images into a padded output; ``nn.im2col.plan`` gives a
thin one (``dec_deconv3-5``) the separable form. Either way the output rows
no later band adds to are *finished*: an eval ``forward(x, then)`` heads a
fused group like ``Conv2D``'s, bias and *elementwise* followers (``band_rows
== 1``) run by their own ``forward`` on each finished band (one shot: on the
whole image). One implementation serves training and inference."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.initializers import he_normal, zeros
from repro.core.module import (
    Module, check_grad_out, check_sizes, run_layers)
from repro.core.parameter import Parameter
from repro.nn.im2col import (
    check_input, deconv_output_size, lowered_matmul, lowered_outer,
    matmul_col2im)
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike


class Deconv2D(Module):
    """Transposed convolution over ``(N, C, H, W)`` inputs.

    The climate decoder (paper Table II: "5xDeconv") upsamples the coarse
    encoder features back to the 768x768x16 input resolution.
    """

    kind = "deconv"
    takes_followers = True
    skips_input_grad = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, pad: Optional[int] = None,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "deconv")
        (self.in_channels, self.out_channels, self.kernel_size,
         self.stride) = check_sizes(
            self.name, in_channels=in_channels, out_channels=out_channels,
            kernel_size=kernel_size, stride=stride)
        if pad is None:
            # the default pad (kernel_size - stride) // 2 needs a kernel at
            # least as wide as the stride
            require_count(f"{self.name}: kernel_size - stride (pad=None)",
                          self.kernel_size - self.stride, least=0)
        self.pad, = check_sizes(
            self.name, pad=(kernel_size - stride) // 2 if pad is None else pad)

        # Same fan-in convention as the matching conv direction.
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal((in_channels, out_channels, kernel_size, kernel_size),
                      fan_in, rng), name="weight")
        self.bias = Parameter(zeros(out_channels), name="bias")
        self._cache: Optional[np.ndarray] = None

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray, then: Sequence[Module] = ()
                ) -> np.ndarray:
        """Conv backward-data applied as a forward op (the swap trick);
        with ``then`` what those layers make of it, layer by layer."""
        check_input(self.name, x, self.in_channels)
        self._cache = None      # last step's, gone before this one's is made
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        out_shape = (n, self.out_channels,
                     deconv_output_size(h, k, s, p),
                     deconv_output_size(w, k, s, p))
        # The free .T view of the stored weights, not a packed copy:
        # nothing to cache or to go stale under in-place weight edits.
        w_mat = self.weight.data.reshape(c, -1)   # (C_in, F*k*k)
        bias = self.bias.data[:, None, None]
        # The elementwise followers of an eval forward ride each finished
        # band (training ones keep whole-tensor masks); the rest run after.
        fused = next((i for i, layer in enumerate(then) if self.training
                      or layer.band_rows != 1), len(then))
        # Tap (ki, kj) of input pixel (i, j) lands on output pixel
        # (i*s + ki - p, j*s + kj - p): exactly the conv's col2im scatter.
        out = matmul_col2im(
            w_mat.T, x, out_shape, k, s, p,
            lambda band: run_layers(then[:fused], band + bias))
        # As in Conv2D: eval-mode forwards never run backward, so don't pin
        # the input in memory.
        self._cache = x if self.training else None
        return run_layers(then[fused:], out)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True,
                 pool: Optional[Module] = None) -> Optional[np.ndarray]:
        """Conv forward applied as a backward op, plus the weight gradient."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x = self._cache
        if pool is not None:
            grad_out = pool.backward(grad_out)
        check_grad_out(self.name, grad_out,
                       (x.shape[0],) + self.output_shape(x.shape[1:]))
        k, s, p = self.kernel_size, self.stride, self.pad
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        # (N, C_in, h, w), and grad_out's Kept columns if one shot built them
        grad_in, g_kept = lowered_matmul(w_mat, grad_out, k, s, p) \
            if input_grad else (None, None)
        # Weight gradient couples the input activations with gathered grads.
        self.weight.grad += lowered_outer(x, g_kept or grad_out, k, s, p) \
            .reshape(self.weight.data.shape)
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        return grad_in

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
                deconv_output_size(h, k, s, p),
                deconv_output_size(w, k, s, p))

    def flops(self, batch: int, input_shape=None) -> int:
        """Forward FLOPs: identical GEMM volume to the mirrored convolution."""
        if input_shape is None:
            raise ValueError(
                f"{self.name}: deconv FLOPs depend on spatial size; pass "
                "input_shape or use repro.flops.count_net")
        _c, h, w = input_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = deconv_output_size(h, k, s, p)
        ow = deconv_output_size(w, k, s, p)
        macs = batch * self.in_channels * h * w * self.out_channels * k * k
        bias_adds = batch * self.out_channels * oh * ow
        return 2 * macs + bias_adds
