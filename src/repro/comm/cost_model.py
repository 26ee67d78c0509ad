"""Alpha-beta time models for collectives on the Aries interconnect.

``time = steps * alpha + bytes_on_wire / bandwidth + reduced_bytes * gamma``

where ``alpha`` is per-message latency, ``bandwidth`` the per-node effective
injection bandwidth and ``gamma`` the per-byte local reduction cost. MLSL's
*endpoint* proxy processes (paper SIII-D) improve effective bandwidth
utilization; we model them as a multiplier on ``bandwidth``.

Defaults are calibrated to Cray Aries (paper SIV): ~1.3 us MPI latency and
~8 GB/s effective per-node injection bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils.checks import require_count, require_real


@dataclass(frozen=True)
class AlphaBetaModel:
    """Interconnect cost parameters."""

    alpha: float = 1.3e-6          # per-message latency (s)
    bandwidth: float = 8.0e9       # per-node injection bandwidth (B/s)
    gamma: float = 2.5e-11         # per-byte reduction cost (s/B), ~40 GB/s
    endpoint_factor: float = 1.0   # MLSL endpoint proxies: >1 = better B/W

    def __post_init__(self) -> None:
        require_real("alpha", self.alpha, "[0, inf)")
        require_real("bandwidth", self.bandwidth, "(0, inf)")
        require_real("gamma", self.gamma, "[0, inf)")
        require_real("endpoint_factor", self.endpoint_factor, "(0, inf)")

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.endpoint_factor

    def with_endpoints(self, factor: float) -> "AlphaBetaModel":
        return replace(self, endpoint_factor=factor)


def _check(nbytes: int, p: int = 1) -> None:
    require_real("nbytes", nbytes, "[0, inf)")
    require_count("p", p)


def point_to_point_time(nbytes: int, model: AlphaBetaModel) -> float:
    """One message of ``nbytes`` between two nodes."""
    _check(nbytes)
    return model.alpha + nbytes / model.effective_bandwidth


def allreduce_time(nbytes: int, p: int, model: AlphaBetaModel,
                   algorithm: str = "auto") -> float:
    """Time of an all-reduce of ``nbytes`` across ``p`` nodes.

    ``"ring"``: 2(p-1) alpha + 2 M (p-1)/p / B + M gamma  (bandwidth-optimal)
    ``"tree"``: 2 ceil(log2 p) (alpha + M/B) + M gamma    (latency-optimal)
    ``"auto"`` picks the faster of the two, as MLSL does by payload size.
    """
    _check(nbytes, p)
    if p == 1:
        return 0.0
    bw = model.effective_bandwidth
    ring = (2 * (p - 1) * model.alpha
            + 2 * nbytes * (p - 1) / (p * bw)
            + nbytes * model.gamma)
    log_p = math.ceil(math.log2(p))
    tree = 2 * log_p * (model.alpha + nbytes / bw) + nbytes * model.gamma
    if algorithm == "ring":
        return ring
    if algorithm == "tree":
        return tree
    if algorithm == "auto":
        return min(ring, tree)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def bcast_time(nbytes: int, p: int, model: AlphaBetaModel) -> float:
    """Broadcast of ``nbytes`` to ``p`` nodes.

    Small messages go down a binomial tree (log2 p latency-bound steps);
    large messages use a pipelined/scatter-allgather schedule whose time
    approaches one bandwidth pass of the payload. We take the min, as MPI
    implementations do by message size.
    """
    _check(nbytes, p)
    if p == 1:
        return 0.0
    steps = math.ceil(math.log2(p))
    bw = model.effective_bandwidth
    binomial = steps * (model.alpha + nbytes / bw)
    pipelined = steps * model.alpha + 2 * nbytes / bw
    return min(binomial, pipelined)


def reduce_time(nbytes: int, p: int, model: AlphaBetaModel) -> float:
    """Binomial-tree reduce of ``nbytes`` from ``p`` nodes."""
    _check(nbytes, p)
    if p == 1:
        return 0.0
    steps = math.ceil(math.log2(p))
    return (steps * (model.alpha + nbytes / model.effective_bandwidth)
            + nbytes * model.gamma * steps)
