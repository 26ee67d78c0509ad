"""Intel Xeon Phi 7250 (Knights Landing) node model.

Peak single precision (paper SIV): 68 cores x 1.4 GHz x 64 FLOP/cycle =
6.09 TF/s; for sustained AVX work the clock drops to 1.2 GHz, and the paper
reserves 2 of 68 cores for the OS, leaving 66.

Achieved FLOP rate on DL kernels depends strongly on operand shapes
(DeepBench, paper SII-A): efficiency falls from 75-80 % of peak on fat GEMMs
to 20-30 % at minibatches of 4-16, and the first conv layer of a network
(3-16 input channels) has too few reduction elements to fill the VPUs. We
model:

    eff(N, C_in, k) = eff_max * [N / (N + N_half)] * [R / (R + R_half)]

with ``R = C_in * k * k`` the GEMM reduction depth. Constants are calibrated
so the composite rates match the paper's Fig 5: HEP net 1.90 TF/s and climate
net 2.09 TF/s at batch 8, deep 128-channel convs ~3.5 TF/s, first layers
~1.25 TF/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.module import Module
from repro.core.sequential import Sequential
from repro.flops.counter import LayerFlops, NetFlopReport
from repro.utils.checks import require_count, require_real


@dataclass(frozen=True)
class KNLNodeModel:
    """Compute-rate model of one KNL node."""

    cores: int = 66                    # 2 of 68 reserved for the OS (paper SV)
    clock_hz: float = 1.2e9            # sustained AVX clock (paper SIV)
    flops_per_cycle: int = 64          # 2 x AVX-512 FMA units, SP
    eff_max: float = 0.78              # best-case kernel efficiency (DeepBench)
    batch_half: float = 4.0            # minibatch where batch factor = 0.5
    reduction_half: float = 42.0       # GEMM depth R at which shape factor = .5
    nonconv_efficiency: float = 0.05   # pool/dense/elementwise achieved eff
    act_bandwidth: float = 100.0e9     # B/s for memory-bound layers (pool,
    #                                    ReLU, reshape): MCDRAM-resident streams

    def __post_init__(self) -> None:
        require_count("cores", self.cores)
        require_count("flops_per_cycle", self.flops_per_cycle)
        for name in ("clock_hz", "batch_half", "reduction_half",
                     "act_bandwidth"):
            require_real(name, getattr(self, name), "(0, inf)")
        for name in ("eff_max", "nonconv_efficiency"):
            require_real(name, getattr(self, name), "(0, 1]")

    @property
    def peak_flops(self) -> float:
        """Sustained-clock peak SP FLOP/s of the usable cores."""
        return self.cores * self.clock_hz * self.flops_per_cycle

    # -- efficiency / rates --------------------------------------------------
    def conv_efficiency(self, batch: int, reduction_depth: float) -> float:
        """Achieved/peak ratio for a conv/GEMM kernel."""
        require_count("batch", batch)
        require_real("reduction_depth", reduction_depth, "(0, inf)")
        # Quadratic roll-off: 66 cores starve abruptly below minibatch ~4
        # (DeepBench: 20-30 % of peak at N in [4,16], worse below).
        batch_term = batch**2 / (batch**2 + self.batch_half**2)
        shape_term = reduction_depth / (reduction_depth + self.reduction_half)
        return self.eff_max * batch_term * shape_term

    def layer_rate(self, layer: LayerFlops, batch: int) -> float:
        """Achieved FLOP/s for one layer record at local minibatch ``batch``."""
        if layer.kind == "conv":
            c_in = layer.input_shape[0]
            # Infer k^2 from params: weights = C_out * C_in * k^2 (+ bias).
            c_out = layer.output_shape[0]
            k2 = max(1, (layer.params - c_out) // max(1, c_in * c_out))
            depth = c_in * k2
            return self.peak_flops * self.conv_efficiency(batch, depth)
        if layer.kind == "deconv":
            c_in = layer.input_shape[0]
            c_out = layer.output_shape[0]
            k2 = max(1, (layer.params - c_out) // max(1, c_in * c_out))
            # Swap trick: deconv kernels run at the mirrored conv's rate; the
            # GEMM reduction depth seen by the hardware is C_out * k^2.
            depth = c_out * k2
            return self.peak_flops * self.conv_efficiency(batch, depth)
        # Pool/dense/activation: bandwidth-bound, tiny fraction of runtime.
        return self.peak_flops * self.nonconv_efficiency

    def _layer_bytes(self, layer: LayerFlops, batch: int) -> int:
        """Bytes read+written by a memory-bound layer, per iteration."""
        n_in = 1
        for d in layer.input_shape:
            n_in *= d
        n_out = 1
        for d in layer.output_shape:
            n_out *= d
        return 4 * batch * (n_in + n_out)

    def layer_time(self, layer: LayerFlops, batch: int,
                   training: bool = True) -> float:
        """Seconds one node spends in a layer per iteration.

        Conv/deconv layers are compute-bound GEMMs; activations, pooling and
        reshapes are memory-bound streams over the activation arrays (they
        are the gap between the conv-only rate and the whole-network rate in
        Fig 5) — backward doubles the traffic.
        """
        require_count("batch", batch)
        flops = layer.training_flops if training else layer.forward_flops
        if layer.kind in ("conv", "deconv"):
            return flops / self.layer_rate(layer, batch)
        passes = 2 if training else 1
        stream = passes * self._layer_bytes(layer, batch) / self.act_bandwidth
        gemm = flops / self.layer_rate(layer, batch) if flops else 0.0
        return max(stream, gemm)

    def compute_time(self, report: NetFlopReport, training: bool = True
                     ) -> float:
        """Seconds per iteration in kernels (no I/O, no solver, no comm)."""
        return sum(self.layer_time(l, report.batch, training)
                   for l in report.layers)

    def achieved_rate(self, report: NetFlopReport, training: bool = True
                      ) -> float:
        """Composite achieved FLOP/s over the whole network."""
        total = (report.training_flops if training else report.forward_flops)
        t = self.compute_time(report, training)
        return total / t if t > 0 else 0.0


@dataclass(frozen=True)
class SolverOverheadModel:
    """Time the solver-update step adds per iteration (Fig 5a: 12.5 % for
    HEP's ADAM, <2 % for climate's SGD).

    The update streams parameter-sized arrays (weights, gradient, moment
    history — "operations like copying models to keep history that do not
    contribute to flops"), so it is DRAM-bandwidth bound, plus a per-layer
    dispatch overhead that penalizes many-small-layer networks.
    """

    stream_bandwidth: float = 8.0e9    # B/s achieved on strided param updates
    per_layer_overhead: float = 1.0e-3  # s per trainable layer (dispatch etc.)
    adam_bytes_per_param: float = 24.0  # w, g, m, v reads+writes
    sgd_bytes_per_param: float = 16.0   # w, g, velocity

    def __post_init__(self) -> None:
        require_real("stream_bandwidth", self.stream_bandwidth, "(0, inf)")
        for name in ("per_layer_overhead", "adam_bytes_per_param",
                     "sgd_bytes_per_param"):
            require_real(name, getattr(self, name), "[0, inf)")

    def time(self, n_params: int, n_layers: int, solver: str = "adam"
             ) -> float:
        require_count("n_params", n_params, least=0)
        require_count("n_layers", n_layers, least=0)
        if solver == "adam":
            bpp = self.adam_bytes_per_param
        elif solver in ("sgd", "momentum"):
            bpp = self.sgd_bytes_per_param
        else:
            raise ValueError(f"unknown solver {solver!r}")
        return (n_params * bpp / self.stream_bandwidth
                + n_layers * self.per_layer_overhead)


@dataclass(frozen=True)
class IOModel:
    """Input-pipeline time model (Fig 5: 13 % of runtime for climate,
    ~2 % for HEP).

    Small batches of small images come from warm OS/MCDRAM caches at high
    rates; the 16-channel 768^2 climate batches spill to Lustre-limited
    streaming through a non-threaded HDF5 reader (the two bottlenecks the
    paper calls out in SVI-A). Effective rate interpolates between the two
    regimes by request size.
    """

    cached_rate: float = 3.0e9        # B/s for reads that fit in cache
    streaming_rate: float = 2.0e8     # B/s single-core HDF5-from-Lustre
    cache_threshold: float = 16e6     # bytes: beyond this reads stream

    def __post_init__(self) -> None:
        require_real("cached_rate", self.cached_rate, "(0, inf)")
        require_real("streaming_rate", self.streaming_rate, "(0, inf)")
        require_real("cache_threshold", self.cache_threshold, "[0, inf)")

    def rate(self, nbytes: float) -> float:
        require_real("nbytes", nbytes, "[0, inf)")
        if nbytes <= self.cache_threshold:
            return self.cached_rate
        # Cache covers the first ``cache_threshold`` bytes; remainder streams.
        frac_cached = self.cache_threshold / nbytes
        inv = frac_cached / self.cached_rate + (1 - frac_cached) / \
            self.streaming_rate
        return 1.0 / inv

    def time(self, nbytes: float) -> float:
        if nbytes == 0:
            return 0.0
        return nbytes / self.rate(nbytes)


def batch_bytes(input_shape, batch: int, itemsize: int = 4) -> int:
    """Bytes of one input batch (single precision by default)."""
    n = require_count("itemsize", itemsize) * require_count("batch", batch)
    for d in input_shape:
        n *= d
    return n
