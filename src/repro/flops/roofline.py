"""Roofline analysis of the networks on the KNL node model.

The Fig 5 discussion hinges on which layers are compute-bound (the
many-channel convolutions at 3.5 TF/s) and which are bandwidth-bound (the
first few-channel convs at 1.25 TF/s, pooling, the ADAM update at 12.5% of
runtime). A roofline puts all of that on one chart: achievable FLOP/s =
min(peak, arithmetic_intensity x memory bandwidth).

This module computes per-layer arithmetic intensities from the FLOP records
and classifies each layer against the machine balance point, which the
single-node benchmark prints alongside the Fig 5 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.flops.counter import LayerFlops, NetFlopReport

if TYPE_CHECKING:  # circular at runtime: cluster.knl itself uses the counter
    from repro.cluster.knl import KNLNodeModel


@dataclass(frozen=True)
class RooflinePoint:
    """One layer on the roofline."""

    name: str
    kind: str
    flops: int                 # per iteration (forward)
    bytes_moved: int           # per iteration (forward)
    intensity: float           # FLOP / byte
    achievable: float          # min(peak, intensity * bandwidth), FLOP/s
    bound: str                 # "compute" | "memory"


def layer_bytes_moved(layer: LayerFlops, batch: int) -> int:
    """Bytes a layer streams per forward pass: inputs + outputs + weights.

    Activations are read once and written once; weights are read once (they
    fit in cache across the spatial loop, but must come in at least once).
    ``repro.nn``'s conv and deconv layers meet this on main memory since they
    lower band by band (``nn.im2col``): the ``k*k``-fold column matrix lives
    only in a reused cache-sized band buffer, never as a full array that is
    written once and read back.

    Inside a fused eval group (``core.Sequential``: a conv, then ``ReLU`` /
    non-overlapping max-pool applied to each band of its output; a deconv,
    then its ``ReLU`` on each finished band) the intermediate activations
    never reach main memory at all: only the head's input and the group's
    last output do. The per-layer sum is an upper bound on the group's
    traffic there, and exact in training.
    """
    n_in = 1
    for d in layer.input_shape:
        n_in *= d
    n_out = 1
    for d in layer.output_shape:
        n_out *= d
    return 4 * (batch * (n_in + n_out) + layer.params)


def machine_balance(node: "KNLNodeModel") -> float:
    """FLOP/byte at which the node transitions memory- to compute-bound."""
    return node.peak_flops / node.act_bandwidth


def roofline(report: NetFlopReport, node: "KNLNodeModel"
             ) -> List[RooflinePoint]:
    """Per-layer roofline points for a network at the report's batch size."""
    points = []
    for layer in report.layers:
        nbytes = layer_bytes_moved(layer, report.batch)
        flops = layer.forward_flops
        if nbytes <= 0:
            continue
        intensity = flops / nbytes
        achievable = min(node.peak_flops, intensity * node.act_bandwidth)
        bound = ("compute" if intensity >= machine_balance(node)
                 else "memory")
        points.append(RooflinePoint(
            name=layer.name, kind=layer.kind, flops=flops,
            bytes_moved=nbytes, intensity=intensity,
            achievable=achievable, bound=bound))
    return points


def bound_fractions(points: Sequence[RooflinePoint]) -> dict:
    """Fraction of total FLOPs in compute-bound vs memory-bound layers."""
    total = sum(p.flops for p in points)
    if total == 0:
        return {"compute": 0.0, "memory": 0.0}
    compute = sum(p.flops for p in points if p.bound == "compute")
    return {"compute": compute / total, "memory": 1.0 - compute / total}


def roofline_table(points: Sequence[RooflinePoint],
                   node: "KNLNodeModel") -> str:
    """Text table of the roofline, for benchmark/example output."""
    rows = [f"{'layer':20s} {'kind':10s} {'FLOP/byte':>10s} "
            f"{'achievable':>12s} {'bound':>8s}"]
    for p in points:
        rows.append(
            f"{p.name:20s} {p.kind:10s} {p.intensity:>10.1f} "
            f"{p.achievable / 1e12:>10.2f}TF {p.bound:>8s}")
    rows.append(f"machine balance: {machine_balance(node):.1f} FLOP/byte "
                f"(peak {node.peak_flops / 1e12:.1f} TF/s, "
                f"{node.act_bandwidth / 1e9:.0f} GB/s)")
    return "\n".join(rows)
