"""Fully-connected layer and flattening.

The paper keeps dense layers tiny on purpose — the HEP net's only FC layer
projects the 128-dim pooled vector to 2 classes (SIII-A), because "large
dense weights" would dominate the model payload shipped to the parameter
servers (SI, contributions list).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.initializers import xavier_uniform, zeros
from repro.core.module import Module, check_sizes
from repro.core.parameter import Parameter
from repro.utils.rng import SeedLike


class Dense(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``."""

    kind = "dense"
    skips_input_grad = True

    def __init__(self, in_features: int, out_features: int,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "fc")
        in_features, out_features = check_sizes(
            self.name, in_features=in_features, out_features=out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform((out_features, in_features), in_features,
                           out_features, rng), name="weight")
        self.bias = Parameter(zeros(out_features), name="bias")
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}), got {x.shape}")
        self._cache = x if self.training else None
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x = self._cache
        self.weight.grad += grad_out.T @ x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data if input_grad else None

    def params(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        if tuple(input_shape) != (self.in_features,):
            raise ValueError(
                f"{self.name}: expected ({self.in_features},), "
                f"got {tuple(input_shape)}")
        return (self.out_features,)

    def flops(self, batch: int, input_hw: Optional[Tuple[int, int]] = None
              ) -> int:
        return batch * (2 * self.in_features + 1) * self.out_features


class Flatten(Module):
    """(N, C, H, W) or (N, C) -> (N, -1)."""

    kind = "reshape"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "flatten")
        self._cache: Optional[Tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return grad_out.reshape(self._cache)

    def output_shape(self, input_shape):
        total = 1
        for dim in input_shape:
            total *= dim
        return (total,)
