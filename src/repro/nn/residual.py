"""Residual blocks (paper SIX: "our results ... extend to other kinds of
models such as ResNets [50]").

A :class:`ResidualBlock` wraps two 3x3 convolutions with an identity (or
1x1-projected) skip connection, keeping the explicit-backward contract so
residual networks drop into the same trainers, FLOP counter and parameter-
server machinery as the paper's nets.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.module import Module
from repro.core.parameter import Parameter
from repro.core.sequential import Sequential
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.pooling import GlobalAvgPool2D
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, spawn_rngs


class ResidualBlock(Module):
    """y = ReLU( conv2(ReLU(conv1(x))) + proj(x) )."""

    kind = "residual"

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "resblock")
        rngs = spawn_rngs(rng, 3)
        # Dotted sub-layer names make the parameter names globally unique
        # ("res1.conv1.weight") and idempotent under Sequential prefixing.
        self.conv1 = Conv2D(in_channels, out_channels, 3, stride=stride,
                            name=f"{self.name}.conv1", rng=rngs[0])
        self.relu1 = ReLU(name=f"{self.name}.relu1")
        self.conv2 = Conv2D(out_channels, out_channels, 3, stride=1,
                            name=f"{self.name}.conv2", rng=rngs[1])
        self.relu_out = ReLU(name=f"{self.name}.relu_out")
        if stride != 1 or in_channels != out_channels:
            self.proj: Optional[Conv2D] = Conv2D(
                in_channels, out_channels, 1, stride=stride, pad=0,
                name=f"{self.name}.proj", rng=rngs[2])
        else:
            self.proj = None
        for sub in (self.conv1, self.conv2, self.proj):
            if sub is None:
                continue
            for p in sub.params():
                if not p.name.startswith(sub.name + "."):
                    p.name = f"{sub.name}.{p.name}"

    # train/eval propagation and the checkpoint buffer walk come from
    # Module via this hook (sub-layer names already carry the block prefix).
    def children(self) -> List[Module]:
        subs: List[Module] = [self.conv1, self.relu1, self.conv2,
                              self.relu_out]
        if self.proj is not None:
            subs.append(self.proj)
        return subs

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.relu1.forward(self.conv1.forward(x))
        h = self.conv2.forward(h)
        skip = self.proj.forward(x) if self.proj is not None else x
        return self.relu_out.forward(h + skip)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(grad_out)
        g_main = self.conv1.backward(
            self.relu1.backward(self.conv2.backward(g)))
        g_skip = self.proj.backward(g) if self.proj is not None else g
        return g_main + g_skip

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        out = self.conv1.params() + self.conv2.params()
        if self.proj is not None:
            out += self.proj.params()
        return out

    def output_shape(self, input_shape):
        shape = self.conv1.output_shape(input_shape)
        return self.conv2.output_shape(shape)

    def flops(self, batch: int, input_shape=None) -> int:
        if input_shape is None:
            raise ValueError(f"{self.name}: residual FLOPs need input_shape")
        mid = self.conv1.output_shape(input_shape)
        total = self.conv1.flops(batch, input_shape=input_shape)
        total += self.conv2.flops(batch, input_shape=mid)
        if self.proj is not None:
            total += self.proj.flops(batch, input_shape=input_shape)
        # the residual add
        c, h, w = self.output_shape(input_shape)
        return total + batch * c * h * w


def build_resnet(in_channels: int = 3, n_classes: int = 2,
                 widths: Tuple[int, ...] = (16, 32, 64),
                 rng: SeedLike = None) -> Sequential:
    """A small residual classifier (one block per width, stride-2 between
    stages), same no-big-dense-layer design rule as the paper's nets."""
    require_count("in_channels", in_channels)
    require_count("n_classes", n_classes)
    if not widths:
        raise ValueError("need at least one stage width")
    rngs = spawn_rngs(rng, len(widths) + 2)
    layers: List[Module] = [
        Conv2D(in_channels, widths[0], 3, name="stem", rng=rngs[0]),
        ReLU(name="stem_relu"),
    ]
    channels = widths[0]
    for i, width in enumerate(widths):
        stride = 1 if i == 0 else 2
        layers.append(ResidualBlock(channels, width, stride=stride,
                                    name=f"res{i + 1}", rng=rngs[i + 1]))
        channels = width
    layers.append(GlobalAvgPool2D(name="gap"))
    layers.append(Dense(channels, n_classes, name="fc", rng=rngs[-1]))
    return Sequential(layers, name="resnet")
