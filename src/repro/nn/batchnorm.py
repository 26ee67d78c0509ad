"""Batch normalization — the layer the paper deliberately avoids.

Paper SI (contributions): "We develop Deep Learning models which ... are also
scalable to a large number of nodes. This includes for example to not use
layers with large dense weights such as batch normalization or fully
connected units." BatchNorm is provided here so that design choice can be
*measured* rather than asserted: the ablation benchmark inserts BN into the
HEP network and quantifies (a) the extra cross-node reductions each BN layer
needs in synchronous data parallelism (batch statistics are a per-iteration
all-reduce of 2C values *in the forward pass*, i.e. a sync point in the
middle of compute), and (b) the mismatch between per-group statistics under
the hybrid scheme.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.module import Module, check_sizes
from repro.core.parameter import Parameter
from repro.utils.checks import require_real


class BatchNorm2D(Module):
    """Per-channel batch normalization over ``(N, C, H, W)`` inputs.

    Training mode normalizes with batch statistics and maintains exponential
    running averages; eval mode uses the running averages. ``gamma``/``beta``
    are trainable.
    """

    kind = "batchnorm"

    def __init__(self, channels: int, momentum: float = 0.9,
                 eps: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name=name or "batchnorm")
        self.channels, = check_sizes(self.name, channels=channels)
        self.momentum = require_real("momentum", momentum, "[0, 1)")
        self.eps = require_real("eps", eps, "(0, inf)")
        self.gamma = Parameter(np.ones(channels, dtype=np.float32),
                               name="gamma")
        self.beta = Parameter(np.zeros(channels, dtype=np.float32),
                              name="beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: Optional[Tuple] = None

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.channels}, H, W), "
                f"got {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            # The running average tracks the *unbiased* variance: eval-mode
            # batches were not part of the statistic, so the population
            # estimate is the right normalizer at inference time.
            n_stat = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * n_stat / (n_stat - 1) if n_stat > 1 else var
            # In-place: the arrays are exposed via buffers() for
            # checkpointing and must keep their identity.
            self.running_mean *= m
            self.running_mean += ((1 - m) * mean).astype(np.float32)
            self.running_var *= m
            self.running_var += ((1 - m) * unbiased).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
            # Eval forwards are not training state: drop any cache left by a
            # previous training forward so a later backward() fails loudly
            # instead of silently using stale statistics.
            self._cache = None
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (self.gamma.data[None, :, None, None] * x_hat
               + self.beta.data[None, :, None, None])
        if self.training:
            self._cache = (x_hat, inv_std, x.shape)
        return out.astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward "
                               "(or forward ran in eval mode)")
        x_hat, inv_std, x_shape = self._cache
        n, _c, h, w = x_shape
        m = n * h * w  # samples per channel statistic
        g = grad_out
        self.gamma.grad += (g * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += g.sum(axis=(0, 2, 3))
        # dL/dx for y = gamma * (x - mu) / sqrt(var + eps) + beta:
        gamma = self.gamma.data[None, :, None, None]
        dx_hat = g * gamma
        sum_dx_hat = dx_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std[None, :, None, None] / m
              * (m * dx_hat - sum_dx_hat - x_hat * sum_dx_hat_xhat))
        return dx.astype(np.float32)

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> dict:
        return {"running_mean": self.running_mean,
                "running_var": self.running_var}

    def output_shape(self, input_shape):
        c = input_shape[0]
        if c != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, got {c}")
        return tuple(input_shape)

    def flops(self, batch: int, input_shape=None) -> int:
        """~8 FLOPs per element (means, variance, normalize, scale-shift)."""
        if input_shape is None:
            return 0
        n = batch
        for d in input_shape:
            n *= d
        return 8 * n

    def sync_stat_bytes(self) -> int:
        """Bytes a distributed BN must all-reduce per forward pass.

        Synchronized BN reduces the per-channel sum and sum-of-squares (2C
        floats) across all data-parallel workers *before* compute can
        continue — an extra mid-iteration sync point per BN layer, which is
        the scalability objection the paper raises.
        """
        return 2 * self.channels * 4

    def extra_sync_points(self) -> int:
        """Synchronization barriers added per training iteration (one in
        forward, one for the statistic gradients in backward)."""
        return 2
