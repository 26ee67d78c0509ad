"""MCDRAM memory-mode model for KNL (paper SIV).

"Each node has 96GiB of DDR4 memory and 16GiB of on-package high bandwidth
(MCDRAM) memory. The MCDRAM memory can be configured into different modes,
where the most interesting being **cache mode** in which the MCDRAM acts as
a 16GiB L3 cache on DRAM. Additionally, MCDRAM can be configured in **flat
mode** in which the user can address the MCDRAM as a second NUMA node ...
in this publication we only consider quad mode."

The paper runs everything in quad-cache. This model lets the ablation
benchmark ask what that choice costs: the effective bandwidth seen by the
memory-bound layers (pooling, activations, solver updates) as a function of
the resident working set, per mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.knl import KNLNodeModel
from repro.utils.checks import require_count, require_real

#: bytes in one GiB
GIB = 1 << 30


@dataclass(frozen=True)
class MCDRAMConfig:
    """Bandwidth model of the KNL on-package / DDR4 memory system."""

    mcdram_bytes: int = 16 * GIB
    mcdram_bandwidth: float = 450.0e9   # STREAM-like, cache mode hits
    ddr_bandwidth: float = 90.0e9       # 6-channel DDR4-2400
    #: cache mode pays a directory/tag check even on hits
    cache_hit_penalty: float = 0.85

    def __post_init__(self) -> None:
        require_count("mcdram_bytes", self.mcdram_bytes)
        require_real("mcdram_bandwidth", self.mcdram_bandwidth, "(0, inf)")
        require_real("ddr_bandwidth", self.ddr_bandwidth, "(0, inf)")
        require_real("cache_hit_penalty", self.cache_hit_penalty, "(0, 1]")

    # -- per-mode effective bandwidth ---------------------------------------
    def cache_mode_bandwidth(self, working_set: int) -> float:
        """Quad-cache: MCDRAM speed while the working set fits; beyond
        16 GiB the miss stream is DDR-limited for the overflow fraction."""
        require_real("working_set", working_set, "[0, inf)")
        hit_bw = self.mcdram_bandwidth * self.cache_hit_penalty
        if working_set <= self.mcdram_bytes:
            return hit_bw
        hit_frac = self.mcdram_bytes / working_set
        inv = hit_frac / hit_bw + (1.0 - hit_frac) / self.ddr_bandwidth
        return 1.0 / inv

    def flat_mode_bandwidth(self, working_set: int,
                            hot_fraction: float = 1.0) -> float:
        """Flat mode: the application explicitly places ``hot_fraction`` of
        its accesses in MCDRAM (no tag-check penalty); the rest hits DDR4.
        If the hot set itself exceeds 16 GiB the placement silently spills.
        """
        require_real("working_set", working_set, "[0, inf)")
        require_real("hot_fraction", hot_fraction, "[0, 1]")
        hot_bytes = hot_fraction * working_set
        fit = 1.0 if hot_bytes <= self.mcdram_bytes else \
            self.mcdram_bytes / hot_bytes
        mcdram_frac = hot_fraction * fit
        inv = (mcdram_frac / self.mcdram_bandwidth
               + (1.0 - mcdram_frac) / self.ddr_bandwidth)
        return 1.0 / inv

    def ddr_only_bandwidth(self) -> float:
        """MCDRAM disabled: everything streams from DDR4."""
        return self.ddr_bandwidth

    def effective_bandwidth(self, working_set: int, mode: str = "cache",
                            hot_fraction: float = 1.0) -> float:
        if mode == "cache":
            return self.cache_mode_bandwidth(working_set)
        if mode == "flat":
            return self.flat_mode_bandwidth(working_set, hot_fraction)
        if mode == "ddr":
            return self.ddr_only_bandwidth()
        raise ValueError(f"unknown memory mode {mode!r} "
                         "(expected 'cache', 'flat' or 'ddr')")


def node_with_memory_mode(node: KNLNodeModel, config: MCDRAMConfig,
                          working_set: int, mode: str = "cache",
                          hot_fraction: float = 1.0) -> KNLNodeModel:
    """A KNL node model whose memory-bound-layer bandwidth reflects ``mode``.

    The baseline :class:`KNLNodeModel` act_bandwidth was calibrated in
    quad-cache (the paper's configuration) at HEP-scale working sets; other
    modes scale it by the ratio of effective bandwidths.
    """
    require_real("hot_fraction", hot_fraction, "[0, 1]")
    baseline = config.cache_mode_bandwidth(min(working_set,
                                               config.mcdram_bytes))
    actual = config.effective_bandwidth(working_set, mode, hot_fraction)
    scale = actual / baseline
    return replace(node, act_bandwidth=node.act_bandwidth * scale)


def activation_working_set(report) -> int:
    """Bytes of all layer activations of one iteration (fwd + cached for
    bwd), from a :class:`~repro.flops.counter.NetFlopReport`."""
    total = 0
    for layer in report.layers:
        n_out = 1
        for d in layer.output_shape:
            n_out *= d
        total += 4 * report.batch * n_out
    # Backward keeps the forward activations resident: 2x.
    return 2 * total
