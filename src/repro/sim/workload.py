"""Workload descriptors: the two paper networks as simulation inputs.

A :class:`Workload` captures everything the timing models need — per-layer
FLOP records at the paper-native input size, gradient payload bytes per
trainable layer, solver type, input bytes — without carrying live weights
around: the paper ClimateNet's records are read off a net whose 75 M weights
are never drawn (``core.initializers.undrawn``), and the sweeps reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.flops.counter import LayerFlops, NetFlopReport, count_layer
from repro.utils.checks import require_count

#: bytes per single-precision scalar
F32 = 4


@dataclass(frozen=True)
class Workload:
    """A network as seen by the machine model."""

    name: str
    input_shape: Tuple[int, int, int]          # (C, H, W)
    layer_shapes: Tuple[Tuple, ...]            # opaque per-layer records
    trainable_layer_bytes: Tuple[int, ...]     # gradient payload per PS layer
    solver: str                                # "adam" | "momentum"
    #: flop records keyed by batch: filled lazily via report(batch)
    _base_records: Tuple[LayerFlops, ...] = ()

    @property
    def model_bytes(self) -> int:
        return sum(self.trainable_layer_bytes)

    @property
    def n_trainable_layers(self) -> int:
        return len(self.trainable_layer_bytes)

    @property
    def sync_points(self) -> int:
        """Synchronization points per iteration: one reduction per trainable
        layer during backprop (paper SVI-B2's '12 ms then synchronize')."""
        return self.n_trainable_layers

    def input_bytes(self, batch: int) -> int:
        c, h, w = self.input_shape
        return F32 * batch * c * h * w

    def report(self, batch: int) -> NetFlopReport:
        """Per-layer FLOP report at ``batch`` (records scale linearly)."""
        rep = NetFlopReport(batch=require_count("batch", batch))
        for rec in self._base_records:
            rep.layers.append(LayerFlops(
                name=rec.name, kind=rec.kind, input_shape=rec.input_shape,
                output_shape=rec.output_shape,
                forward_flops=rec.forward_flops * batch,
                params=rec.params))
        return rep

    def training_flops_per_image(self) -> int:
        return self.report(1).training_flops

    def trainable_records(self) -> Tuple[LayerFlops, ...]:
        """Per-layer records (batch 1) of the layers that own parameters —
        the layers with a dedicated PS, in network order."""
        return tuple(r for r in self._base_records if r.params > 0)

    def activation_bytes(self, batch: int) -> int:
        """Forward working set: sum of layer outputs.

        Activation and reshape layers run in place (Caffe/MKL style) so
        they do not add buffers.
        """
        total = 0
        for rec in self._base_records:
            if rec.kind in ("activation", "reshape"):
                continue
            n = 1
            for d in rec.output_shape:
                n *= d
            total += n
        return F32 * batch * total


def _records_from_net(net, input_shape) -> Tuple[LayerFlops, ...]:
    """Per-layer records at batch 1 for any module exposing the layer walk."""
    records: List[LayerFlops] = []
    shape = tuple(input_shape)
    for layer in net:
        rec = count_layer(layer, shape, batch=1)
        records.append(rec)
        shape = rec.output_shape
    return tuple(records)


def custom_workload(name: str, net, input_shape: Tuple[int, int, int],
                    solver: str = "adam") -> Workload:
    """Workload descriptor for any layer-iterable net (e.g. ``Sequential``).

    Lets the timing and serving models run on scaled-down nets without
    building the paper-size networks — tests and quickstarts use this.
    """
    records = _records_from_net(net, input_shape)
    layer_bytes = tuple(
        sum(p.nbytes for p in layer.params())
        for layer in net.trainable_layers())
    return Workload(
        name=name, input_shape=tuple(input_shape),
        layer_shapes=tuple((r.name, r.kind) for r in records),
        trainable_layer_bytes=layer_bytes, solver=solver,
        _base_records=records)


@lru_cache(maxsize=4)
def hep_workload() -> Workload:
    """The HEP network at the paper-native 224x224x3 input."""
    from repro.models.hep import HEP_PAPER_INPUT, build_hep_net

    return custom_workload("hep", build_hep_net(rng=0), HEP_PAPER_INPUT,
                           solver="adam")


def climate_records(net, input_shape) -> Tuple[LayerFlops, ...]:
    """Per-layer records at batch 1 of a ``ClimateNet``: the encoder, then
    the three heads and the decoder on its features."""
    records = list(_records_from_net(net.encoder, input_shape))
    feat_shape = records[-1].output_shape
    for head in (net.conf_head, net.cls_head, net.box_head):
        records.append(count_layer(head, feat_shape, batch=1))
    return tuple(records) + _records_from_net(net.decoder, feat_shape)


@lru_cache(maxsize=4)
def climate_workload() -> Workload:
    """The climate network at the paper-native 768x768x16 input."""
    from repro.core.initializers import undrawn
    from repro.models.climate import CLIMATE_PAPER_INPUT, build_climate_net

    with undrawn():     # shapes, FLOPs and bytes only: 61 MiB, not 692
        net = build_climate_net(rng=0)
    records = climate_records(net, CLIMATE_PAPER_INPUT)
    layer_bytes = tuple(
        sum(p.nbytes for p in layer.params())
        for layer in net.trainable_layers())
    return Workload(
        name="climate", input_shape=CLIMATE_PAPER_INPUT,
        layer_shapes=tuple((r.name, r.kind) for r in records),
        trainable_layer_bytes=layer_bytes, solver="momentum",
        _base_records=records)
