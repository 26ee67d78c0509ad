"""Walk a network, tracking shapes, and count per-layer FLOPs.

Conventions (matching how SDE-based studies of this era reported numbers):

- a fused multiply-add counts as 2 FLOPs;
- the backward pass of a conv/dense layer costs ~2x the forward pass (one
  GEMM for the data gradient + one for the weight gradient), so one training
  iteration executes ~3x the forward FLOPs;
- ReLU and pooling comparisons are not counted as arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.module import Module
from repro.core.sequential import Sequential
from repro.utils.checks import require_count

#: backward/forward FLOP ratio for parameterized layers (dW GEMM + dX GEMM).
BACKWARD_FACTOR = 2.0


@dataclass(frozen=True)
class LayerFlops:
    """FLOP record for one layer at one batch size."""

    name: str
    kind: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    forward_flops: int
    params: int

    @property
    def backward_flops(self) -> int:
        if self.params == 0:
            # Stateless layers roughly mirror their forward cost.
            return self.forward_flops
        return int(BACKWARD_FACTOR * self.forward_flops)

    @property
    def training_flops(self) -> int:
        return self.forward_flops + self.backward_flops


@dataclass
class NetFlopReport:
    """Aggregate FLOP report for a full network at a fixed batch size."""

    batch: int
    layers: List[LayerFlops] = field(default_factory=list)

    @property
    def forward_flops(self) -> int:
        return sum(l.forward_flops for l in self.layers)

    @property
    def training_flops(self) -> int:
        return sum(l.training_flops for l in self.layers)

    @property
    def params(self) -> int:
        return sum(l.params for l in self.layers)

    def by_kind(self, kind: str) -> List[LayerFlops]:
        return [l for l in self.layers if l.kind == kind]

    def table(self) -> str:
        rows = [f"{'layer':20s} {'kind':12s} {'fwd GFLOP':>12s} "
                f"{'train GFLOP':>12s}"]
        for l in self.layers:
            rows.append(
                f"{l.name:20s} {l.kind:12s} {l.forward_flops / 1e9:>12.3f} "
                f"{l.training_flops / 1e9:>12.3f}")
        rows.append(
            f"{'TOTAL':20s} {'':12s} {self.forward_flops / 1e9:>12.3f} "
            f"{self.training_flops / 1e9:>12.3f}")
        return "\n".join(rows)


def count_layer(layer: Module, input_shape: Sequence[int],
                batch: int) -> LayerFlops:
    """FLOPs of a single layer given its (ex-batch) input shape."""
    require_count("batch", batch)
    input_shape = tuple(input_shape)
    output_shape = layer.output_shape(input_shape)
    if layer.kind in ("conv", "deconv", "pool", "residual", "lstm",
                      "batchnorm"):
        fwd = layer.flops(batch, input_shape=input_shape)
    else:
        fwd = layer.flops(batch)
    return LayerFlops(
        name=layer.name,
        kind=layer.kind,
        input_shape=input_shape,
        output_shape=tuple(output_shape),
        forward_flops=int(fwd),
        params=layer.num_params(),
    )


def count_net(net: Sequential, input_shape: Sequence[int],
              batch: int) -> NetFlopReport:
    """Per-layer FLOP report for a sequential network."""
    report = NetFlopReport(batch=batch)
    shape = tuple(input_shape)
    for layer in net:
        record = count_layer(layer, shape, batch)
        report.layers.append(record)
        shape = record.output_shape
    return report


def training_flops(net: Sequential, input_shape: Sequence[int],
                   batch: int) -> int:
    """Total FLOPs of one training iteration (forward + backward)."""
    return count_net(net, input_shape, batch).training_flops
