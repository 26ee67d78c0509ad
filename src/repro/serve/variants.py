"""Model variants: fast replicas a fleet can downgrade to.

Paper SVIII-A defers low-precision inference and the per-node study of
"new algorithms like Winograd [43]". The second is no longer a variant:
the banded F(4x4, 3x3) form is what a 3x3 / stride-1
:class:`~repro.nn.conv.Conv2D` runs where its shapes pay
(``nn.im2col._winograd``), so there is nothing left to race. What remains
here is packaging: a *variant* is a ``net -> net`` transform the registry
applies at load time, a sibling of the base version the simulator can
downgrade to under overload.

- :func:`compile_quantized`, the built-in ``"quantized"`` kind, builds an
  intN post-training-quantized net: every parameter tensor is snapped onto
  its own symmetric fixed-point grid
  (:func:`repro.optim.quantize.quantize_nearest`, per-tensor scale =
  max |w|), and, given a calibration set, every leaf layer's activations
  are fake-quantized onto a grid scaled by the calibration maximum: the
  standard PTQ recipe, simulated in float32.
- Any other kind is a name registered with its own compiler
  (:meth:`~repro.serve.registry.ModelRegistry.register_variant`).

:func:`measure_profile` prices a variant against its base on real
:class:`~repro.serve.batching.BatchExecutor` timings: the
:class:`VariantProfile` (speedup, accuracy delta) the registry publishes
and the :class:`~repro.serve.latency.ServiceTimeModel` mirrors as a
per-variant batch-time scale. :class:`VariantPolicy` is the serving-side
knob: when a model's queue-seconds or attainment crosses the threshold,
the simulator serves the named variant and reverts with hysteresis.
"""

from __future__ import annotations

import copy
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.module import run_layers
from repro.optim.quantize import quantize_nearest


def check_kind(kind: str) -> None:
    """A variant kind is any non-empty name."""
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"a variant kind is a non-empty name, got {kind!r}")


# -- module-tree helpers ----------------------------------------------------

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


# -- quantized compilation --------------------------------------------------

def _calibration_batches(calibration) -> List[np.ndarray]:
    if isinstance(calibration, np.ndarray):
        return [calibration]
    return [np.asarray(b, dtype=np.float32) for b in calibration]


def compile_quantized(net, bits: int = 8, calibration=None):
    """Deep-copy ``net`` post-training-quantized to ``bits``-bit grids.

    Weights: every parameter tensor is snapped onto its own symmetric
    grid (scale = per-tensor max |w|, nearest rounding) — values remain
    float32 but take at most ``2**bits - 1`` distinct levels, the
    simulated-quantization convention of :mod:`repro.optim.quantize`.

    Activations: given ``calibration`` (one ``(N, C, H, W)`` batch or an
    iterable of batches), each leaf layer's output range is observed and
    its forward wrapped to fake-quantize activations onto a grid scaled
    by the calibration maximum. Without calibration only weights are
    quantized (weight-only PTQ).

    The copy records ``quant_bits`` and per-leaf ``activation_scales``;
    accuracy pricing against the base net is :func:`measure_profile`'s
    job, not this function's.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
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


# -- variant profile --------------------------------------------------------

@dataclass(frozen=True)
class VariantProfile:
    """Measured price tag of one variant against its base.

    ``speedup`` is real :class:`~repro.serve.batching.BatchExecutor`
    wall-clock (base seconds / variant seconds at ``batch_shape``);
    ``accuracy_delta`` is ``eval_fn(variant) - eval_fn(base)`` when an
    eval metric is supplied, otherwise the label-free mean relative
    output drift (L2, per flattened head) — an upper-bound proxy that is
    exactly 0.0 for bit-identical variants. ``bits`` is the quantized
    variant's grid width.
    """

    kind: str
    speedup: float
    accuracy_delta: float
    base_batch_s: float
    variant_batch_s: float
    batch_shape: Tuple[int, ...]
    bits: Optional[int] = None

    def __post_init__(self) -> None:
        check_kind(self.kind)
        if not self.speedup > 0:
            raise ValueError(f"speedup must be > 0, got {self.speedup}")

    @property
    def time_scale(self) -> float:
        """The per-variant batch-time multiplier the simulator applies."""
        return 1.0 / self.speedup


def _flat_outputs(out) -> List[np.ndarray]:
    if isinstance(out, dict):
        return [np.asarray(v, dtype=np.float64).reshape(-1)
                for _, v in sorted(out.items())]
    return [np.asarray(out, dtype=np.float64).reshape(-1)]


def output_drift(base_out, variant_out) -> float:
    """Mean relative L2 distance between matching output heads."""
    base = _flat_outputs(base_out)
    var = _flat_outputs(variant_out)
    if len(base) != len(var):
        raise ValueError("outputs have different head structure")
    drifts = []
    for b, v in zip(base, var):
        denom = float(np.linalg.norm(b))
        drifts.append(float(np.linalg.norm(v - b)) / denom
                      if denom > 0 else 0.0)
    return float(np.mean(drifts)) if drifts else 0.0


def measure_profile(base_net, variant_net, kind: str,
                    batch_shape: Tuple[int, ...],
                    repeats: int = 3, seed: int = 0,
                    eval_fn: Optional[Callable] = None) -> VariantProfile:
    """Price ``variant_net`` against ``base_net`` on real executor runs.

    Times one full :meth:`BatchExecutor.run_batch` per net (best of
    ``repeats`` after a warmup) on a
    seeded batch of ``batch_shape``, and measures the accuracy delta —
    ``eval_fn(net) -> float`` when given (held-out metric), label-free
    output drift otherwise.
    """
    from repro.serve.batching import BatchExecutor
    if len(batch_shape) != 4:
        raise ValueError(
            f"batch_shape must be (N, C, H, W), got {batch_shape}")
    rng = np.random.default_rng(seed)
    samples = [np.asarray(rng.standard_normal(batch_shape[1:]),
                          dtype=np.float32)
               for _ in range(batch_shape[0])]
    base_ex = BatchExecutor(base_net)
    var_ex = BatchExecutor(variant_net)

    def once(ex) -> float:
        t0 = time.perf_counter()
        ex.run_batch(samples)
        return time.perf_counter() - t0

    # Warm both (faults in buffers), then time
    # the two nets *interleaved* best-of-``repeats``: a background load
    # spike lands on both sides instead of skewing whichever net was
    # timed during it.
    base_ex.run_batch(samples)
    var_ex.run_batch(samples)
    base_s = var_s = math.inf
    for _ in range(max(1, repeats)):
        base_s = min(base_s, once(base_ex))
        var_s = min(var_s, once(var_ex))
    if eval_fn is not None:
        delta = float(eval_fn(variant_net)) - float(eval_fn(base_net))
    else:
        batch = np.stack(samples)
        delta = output_drift(base_net.forward(batch),
                             variant_net.forward(batch))
    return VariantProfile(
        kind=kind, speedup=base_s / var_s, accuracy_delta=delta,
        base_batch_s=base_s, variant_batch_s=var_s,
        batch_shape=tuple(int(d) for d in batch_shape),
        bits=getattr(variant_net, "quant_bits", None))


# -- serving policy ---------------------------------------------------------

@dataclass(frozen=True)
class VariantPolicy:
    """When overload should downgrade serving onto a fast variant.

    ``kind`` names the registered variant to serve while downgraded.
    ``time_scale`` is the variant's batch-time multiplier (``1/speedup``,
    from its :class:`VariantProfile`); left ``None`` the simulator
    resolves it from the service model's registered per-variant scales.

    Triggers (at least one required):

    - ``queue_threshold`` — estimated queue *seconds* across the fleet
      (backlog requests x amortized per-request cost; the cost-aware
      router's own unit). The plain simulator checks it on every
      admission; the fleet reverts once backlog falls to ``hysteresis x
      queue_threshold``.
    - ``attainment_threshold`` — per-model epoch SLO attainment
      (autoscaled runs). A model downgrades when its observed attainment
      drops below the threshold and reverts once attainment recovers to
      ``recover_attainment`` (default: the threshold itself).
    """

    kind: str
    time_scale: Optional[float] = None
    queue_threshold: Optional[float] = None
    attainment_threshold: Optional[float] = None
    hysteresis: float = 0.5
    recover_attainment: Optional[float] = None

    def __post_init__(self) -> None:
        check_kind(self.kind)
        if self.time_scale is not None and not 0 < self.time_scale <= 1:
            raise ValueError(
                f"time_scale must be in (0, 1], got {self.time_scale}")
        if self.queue_threshold is None \
                and self.attainment_threshold is None:
            raise ValueError("set queue_threshold and/or "
                             "attainment_threshold — a policy that can "
                             "never trigger is a configuration error")
        if self.queue_threshold is not None \
                and not self.queue_threshold > 0:
            raise ValueError(f"queue_threshold must be > 0, "
                             f"got {self.queue_threshold}")
        if self.attainment_threshold is not None \
                and not 0 < self.attainment_threshold <= 1:
            raise ValueError(f"attainment_threshold must be in (0, 1], "
                             f"got {self.attainment_threshold}")
        if not 0 <= self.hysteresis <= 1:
            raise ValueError(
                f"hysteresis must be in [0, 1], got {self.hysteresis}")
        if self.recover_attainment is not None:
            if self.attainment_threshold is None:
                raise ValueError("recover_attainment requires "
                                 "attainment_threshold")
            if not self.attainment_threshold \
                    <= self.recover_attainment <= 1:
                raise ValueError(
                    "recover_attainment must lie in "
                    f"[attainment_threshold, 1], "
                    f"got {self.recover_attainment}")

    @property
    def recover_at(self) -> Optional[float]:
        """Effective attainment recovery level (hysteresis default)."""
        if self.attainment_threshold is None:
            return None
        if self.recover_attainment is not None:
            return self.recover_attainment
        return self.attainment_threshold
