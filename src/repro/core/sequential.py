"""Sequential container: an ordered stack of modules with explicit backward."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.core.module import Module
from repro.core.parameter import Parameter


class Sequential(Module):
    """Feed-forward stack of layers.

    Both paper networks are (per-branch) pure feed-forward stacks, so a
    sequential container plus the small multi-head wrapper in
    :mod:`repro.models.climate` covers everything in Table II.

    ``forward`` and ``backward`` walk :meth:`schedule`, not ``self.layers``:
    a max-pool runs *before* the ReLUs it follows. ``max`` commutes with a
    non-decreasing map, so ``pool(relu(x)) == relu(pool(x))`` exactly, and so
    do the gradients (a window whose maximum is <= 0 gets none either way, a
    positive maximum has the same winners), while ReLU's forward, mask and
    backward touch a ``k*k``-th of the elements. ``self.layers``, names,
    parameters, FLOP counts and checkpoints keep list order; code that walks
    a net by hand next to a ``net.forward`` must walk the schedule.

    An eval forward runs in **fused groups**: a layer that takes followers
    (a ``Conv2D``, a ``Deconv2D``) is handed the run of band-local layers
    behind it in the schedule (``Module.band_rows``: a non-overlapping
    ``MaxPool2D``, ``ReLU``) and applies their own ``forward`` to each band
    of its output while that is in cache (a deconv: the elementwise ones;
    a conv's Winograd form runs a leading max-pool's ``fmax`` itself), so
    only the group's last activation is ever written. The result is the
    layer-by-layer one. A training forward is never grouped: its followers
    keep state over the whole tensor for ``backward`` (a ReLU its mask, a
    max-pool the taps that won each window, a byte a 2x2 window, found band
    by band in its own forward; neither keeps its input or output).
    """

    kind = "sequential"
    skips_input_grad = True

    def __init__(self, layers: Iterable[Module], name: str = "net") -> None:
        super().__init__(name=name)
        self.layers: List[Module] = list(layers)
        self._rename_duplicates()

    def _rename_duplicates(self) -> None:
        """Give duplicate layer names a numeric suffix so PS keys are unique."""
        seen: dict = {}
        for layer in self.layers:
            count = seen.get(layer.name, 0)
            seen[layer.name] = count + 1
            if count:
                layer.name = f"{layer.name}_{count}"
        # Prefix parameter names with the owning layer for global uniqueness.
        for layer in self.layers:
            for p in layer.params():
                if not p.name.startswith(layer.name + "."):
                    p.name = f"{layer.name}.{p.name}"

    # -- computation -------------------------------------------------------
    def schedule(self) -> List[Module]:
        """``self.layers`` in execution order: each ``window_max`` layer
        ahead of the run of ``commutes_with_max`` layers in front of it."""
        order: List[Module] = []
        for layer in self.layers:
            i = len(order)
            while layer.window_max and i and order[i - 1].commutes_with_max:
                i -= 1
            order.insert(i, layer)
        return order

    def forward(self, x: np.ndarray) -> np.ndarray:
        layers, i = self.schedule(), 0
        while i < len(layers):
            layer, j = layers[i], i + 1
            if layer.takes_followers and not self.training:
                while j < len(layers) and layers[j].band_rows:
                    j += 1
            # ``then`` only where there is one: a one-argument ``forward``
            # shadowing a layer's own stays callable everywhere else.
            x = layer.forward(x, layers[i + 1:j]) if j > i + 1 \
                else layer.forward(x)
            i = j
        return x

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """dL/d(input); ``None`` with ``input_grad=False`` if the first
        layer to run can skip it (``Module.skips_input_grad``; one that takes
        followers then also takes the max-pool behind it, ``pool=``)."""
        order, skip = self.schedule(), {}
        if order and not input_grad and order[0].skips_input_grad:
            skip["input_grad"] = False
            if order[0].takes_followers and order[1:] \
                    and order[1].window_max and order[1].band_rows:
                skip["pool"] = order.pop(1)
        for layer in reversed(order[1:]):
            grad_out = layer.backward(grad_out)
        return order[0].backward(grad_out, **skip) if order else grad_out

    # -- parameters --------------------------------------------------------
    def params(self) -> List[Parameter]:
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def trainable_layers(self) -> List[Module]:
        """Layers that own parameters — each gets a dedicated PS (paper Fig 4)."""
        return [layer for layer in self.layers if layer.params()]

    # -- children ----------------------------------------------------------
    # train/eval propagation and the checkpoint buffer walk come from
    # Module via this hook.
    def children(self) -> List[Module]:
        return list(self.layers)

    # -- accounting --------------------------------------------------------
    def flops(self, batch: int) -> int:
        return sum(layer.flops(batch) for layer in self.layers)

    def output_shape(self, input_shape):
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    # -- conveniences ------------------------------------------------------
    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def summary(self, input_shape) -> str:
        """Text table of layers, output shapes, params — used by Table II bench."""
        rows = [f"{'layer':24s} {'output shape':20s} {'params':>12s}"]
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
            rows.append(
                f"{layer.name:24s} {str(shape):20s} {layer.num_params():>12,d}")
        rows.append(f"{'TOTAL':24s} {'':20s} {self.num_params():>12,d}")
        return "\n".join(rows)
