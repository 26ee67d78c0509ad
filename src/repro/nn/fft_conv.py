"""FFT-based convolution (paper SVIII-A future work).

The paper: "the state of the art in deep learning kernel implementations is
rapidly evolving with new algorithms like Winograd [43] and FFT based
algorithms. We did not experiment with such algorithms in this work;
studying the impact on per-node performance ... is a direction for future
research."

:class:`FFTConv2D` is a drop-in replacement for :class:`repro.nn.Conv2D`
whose forward pass evaluates the cross-correlation in the frequency domain
(O(HW log HW) per channel pair instead of O(HW k^2)); the backward pass
is ``Conv2D``'s own, inherited, on the cached input, so gradients stay
bit-compatible with the GEMM path. The ablation benchmark measures where
the FFT path's crossover sits in kernel size — the study the paper defers.
"""

from __future__ import annotations

import numpy as np

from repro.core.module import run_layers
from repro.nn.conv import Conv2D
from repro.nn.im2col import check_input, conv_output_size


class FFTConv2D(Conv2D):
    """Convolution layer with an FFT forward path."""

    kind = "conv"

    def forward(self, x: np.ndarray, then=()) -> np.ndarray:
        # here, not at module level: `import repro` reaches this module, and
        # no serving or training process should pay for scipy.fft
        from scipy import fft as sp_fft
        check_input(self.name, x, self.in_channels)
        self._cache = None      # last step's, gone before this one's is made
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w, k, s, p)
        # Zero-pad input; linear correlation needs fft size >= H+k-1.
        hp, wp = h + 2 * p, w + 2 * p
        fh, fw = hp + k - 1, wp + k - 1
        xp = np.zeros((n, c, hp, wp), dtype=np.float32)
        xp[:, :, p:p + h, p:p + w] = x
        fx = sp_fft.rfft2(xp, s=(fh, fw))                  # (N, C, fh, fw')
        # Cross-correlation == convolution with the flipped kernel.
        wf = self.weight.data[:, :, ::-1, ::-1]
        fwt = sp_fft.rfft2(wf, s=(fh, fw))                 # (F, C, fh, fw')
        prod = np.einsum("ncxy,fcxy->nfxy", fx, fwt)
        full = sp_fft.irfft2(prod, s=(fh, fw))             # (N, F, fh, fw)
        # 'full' correlation: the valid region starts at offset k-1.
        valid = full[:, :, k - 1:k - 1 + hp - k + 1, k - 1:k - 1 + wp - k + 1]
        out = valid[:, :, ::s, ::s][:, :, :oh, :ow].astype(np.float32)
        out += self.bias.data[None, :, None, None]
        self._keep(x)   # Conv2D's backward lowers it again: GEMM gradients
        return run_layers(then, np.ascontiguousarray(out))
