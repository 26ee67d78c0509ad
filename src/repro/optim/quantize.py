"""Low-precision training with stochastic rounding (paper SVIII-A).

The paper: "There has been a lot of discussion surrounding training with
quantized weights and activations [44, 45]. The statistical implications of
low precision training are still being explored [46, 47], with various
forms of stochastic rounding being of critical importance in convergence."

This module provides fixed-point quantizers (nearest and stochastic) and a
gradient-quantizing optimizer wrapper, so the convergence effect the paper
anticipates can be measured (see
``benchmarks/test_ablation_futurework.py::test_low_precision_convergence``):
nearest rounding introduces a systematic bias that stalls training at low
bit widths; stochastic rounding is unbiased and keeps SGD converging.

Post-training quantization is the accuracy side of the same question:
:func:`compile_quantized` snaps a trained net's weights onto intN grids
(and, given a calibration set, fake-quantizes each layer's activations);
:func:`output_drift` says how far its outputs moved. Values stay float32,
so it prices accuracy, not speed.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.module import run_layers
from repro.core.parameter import Parameter
from repro.optim.base import Optimizer
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng


def quantization_step(scale: float, bits: int) -> float:
    """Lattice spacing of a symmetric fixed-point grid on [-scale, scale]."""
    bits = require_count("bits", bits, least=2)
    require_real("scale", scale, "(0, inf)")
    return 2.0 * scale / (2**bits - 2)


def quantize_nearest(x: np.ndarray, bits: int, scale: float) -> np.ndarray:
    """Round-to-nearest onto the fixed-point grid (biased at low bits)."""
    step = quantization_step(scale, bits)
    clipped = np.clip(x, -scale, scale)
    return (np.round(clipped / step) * step).astype(np.float32)


def quantize_stochastic(x: np.ndarray, bits: int, scale: float,
                        rng: SeedLike = None) -> np.ndarray:
    """Stochastic rounding: round up with probability equal to the
    fractional position between lattice points — unbiased:
    E[quantize(x)] == clip(x)."""
    step = quantization_step(scale, bits)
    rng = as_rng(rng)
    clipped = np.clip(x, -scale, scale)
    scaled = clipped / step
    floor = np.floor(scaled)
    frac = scaled - floor
    up = rng.random(size=x.shape) < frac
    return ((floor + up) * step).astype(np.float32)


class QuantizedGradSGD(Optimizer):
    """SGD whose gradients pass through a fixed-point quantizer first.

    ``mode`` is ``"stochastic"`` or ``"nearest"``; ``scale`` is either a
    fixed clip range or ``None`` for per-step dynamic scaling to the
    gradient's max-abs (the common practical choice).
    """

    def __init__(self, params: Iterable[Parameter], lr: float,
                 bits: int = 8, mode: str = "stochastic",
                 scale: Optional[float] = None, momentum: float = 0.0,
                 seed: SeedLike = None) -> None:
        super().__init__(params, lr)
        if mode not in ("stochastic", "nearest"):
            raise ValueError(f"unknown mode {mode!r}")
        self.bits = require_count("bits", bits, least=2)
        self.mode = mode
        self.scale = require_real("scale", scale, "(0, inf)", none_ok=True)
        self.momentum = require_real("momentum", momentum, "[0, 1)")
        self._rng = as_rng(seed)
        self._velocity: dict = {}

    def _quantize(self, g: np.ndarray) -> np.ndarray:
        scale = self.scale
        if scale is None:
            scale = float(np.abs(g).max())
            if scale == 0.0:
                return g
        if self.mode == "stochastic":
            return quantize_stochastic(g, self.bits, scale, rng=self._rng)
        return quantize_nearest(g, self.bits, scale)

    def _update(self, p: Parameter) -> None:
        g = self._quantize(p.grad)
        if self.momentum:
            v = self._velocity.setdefault(p.name, np.zeros_like(p.data))
            v *= self.momentum
            v -= self.lr * g
            p.data += v
        else:
            p.data -= self.lr * g


# -- post-training quantization ----------------------------------------------

def _walk(module) -> Iterator:
    """Every module in the tree, root first."""
    yield module
    for child in module.children():
        yield from _walk(child)


def _leaves(module) -> Iterator:
    """Modules with no children — the layers that transform tensors."""
    for mod in _walk(module):
        if not mod.children():
            yield mod


def _own_output(forward):
    """``forward(x)`` as ``forward(x, then=())``, keeping the layer boundary.

    An eval ``Sequential`` hands a conv the band-local layers behind it
    (``forward(x, then)``) so that the conv's own output is never stored. A
    hook that exists to see that output (capture, calibration, fake-quant)
    must not pass ``then`` down: it runs the one-argument ``forward`` and
    then the followers on the whole tensor, exactly the unfused net.
    """
    def bounded(x, then=()):
        return run_layers(then, forward(x))
    return bounded


@contextmanager
def _wrapped_forwards(layers, make_wrapper):
    """Shadow each layer's ``forward`` with ``make_wrapper(layer, orig)``
    (a one-argument callable) inside the block. The wrap is per instance
    (instance attributes shadow the class method for both ``layer(x)`` and
    the ``layer.forward(x)`` call Sequential makes); exit restores what was
    there, including an earlier instance-level wrap. A wrapped layer is
    never fused with its followers (:func:`_own_output`).
    """
    saved = []
    try:
        for layer in layers:
            saved.append((layer, vars(layer).get("forward")))
            layer.forward = _own_output(make_wrapper(layer, layer.forward))
        yield
    finally:
        for layer, prev in saved:
            if prev is None:
                del layer.forward
            else:
                layer.forward = prev


def _calibration_batches(calibration) -> List[np.ndarray]:
    if isinstance(calibration, np.ndarray):
        return [calibration]
    return [np.asarray(b, dtype=np.float32) for b in calibration]


def compile_quantized(net, bits: int = 8, calibration=None):
    """Deep-copy ``net`` post-training-quantized to ``bits``-bit grids.

    Weights: every parameter tensor is snapped onto its own symmetric
    grid (scale = per-tensor max |w|, nearest rounding) — values remain
    float32 but take at most ``2**bits - 1`` distinct levels. A tensor
    with a NaN or inf has no grid and is refused by name.

    Activations: given ``calibration`` (one ``(N, C, H, W)`` batch or an
    iterable of batches), each leaf layer's output range is observed and
    its forward wrapped to fake-quantize activations onto a grid scaled
    by the calibration maximum. Without calibration only weights are
    quantized (weight-only PTQ).

    The copy records ``quant_bits`` and per-leaf ``activation_scales``;
    :func:`output_drift` prices it against the base net.
    """
    bits = require_count("bits", bits, least=2)
    diverged = [p.name for p in net.params()
                if not np.isfinite(p.data).all()]
    if diverged:
        raise ValueError(
            f"non-finite values in {diverged}; nothing to quantize")
    qnet = copy.deepcopy(net)
    qnet.eval()
    for p in qnet.params():
        scale = float(np.max(np.abs(p.data))) if p.data.size else 0.0
        if scale > 0.0:
            p.data = np.asarray(quantize_nearest(p.data, bits, scale),
                                dtype=np.float32)
    act_scales: Dict[str, float] = {}
    if calibration is not None:
        leaves = list(_leaves(qnet))
        observed: Dict[int, float] = {}

        def observe(leaf, orig):
            def forward(x):
                out = orig(x)
                if isinstance(out, np.ndarray):
                    peak = float(np.max(np.abs(out))) if out.size else 0.0
                    observed[id(leaf)] = max(observed.get(id(leaf), 0.0),
                                             peak)
                return out
            return forward

        with _wrapped_forwards(leaves, observe):
            for batch in _calibration_batches(calibration):
                qnet.forward(batch)
        for leaf in leaves:
            scale = observed.get(id(leaf), 0.0)
            if scale <= 0.0:
                continue

            def fake_quant(x, _orig=leaf.forward, _scale=scale):
                out = _orig(x)
                if isinstance(out, np.ndarray):
                    out = quantize_nearest(out, bits, _scale)
                return out

            leaf.forward = _own_output(fake_quant)
            act_scales[leaf.name] = scale
    qnet.quant_bits = bits
    qnet.activation_scales = act_scales
    return qnet


def _flat_outputs(out) -> List[np.ndarray]:
    if isinstance(out, dict):
        return [np.asarray(v, dtype=np.float64).reshape(-1)
                for _, v in sorted(out.items())]
    return [np.asarray(out, dtype=np.float64).reshape(-1)]


def output_drift(base_out, quantized_out) -> float:
    """Mean relative L2 distance between matching output heads."""
    base = _flat_outputs(base_out)
    quant = _flat_outputs(quantized_out)
    if len(base) != len(quant):
        raise ValueError("outputs have different head structure")
    drifts = []
    for b, q in zip(base, quant):
        denom = float(np.linalg.norm(b))
        drifts.append(float(np.linalg.norm(q - b)) / denom
                      if denom > 0 else 0.0)
    return float(np.mean(drifts)) if drifts else 0.0
