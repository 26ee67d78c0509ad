"""Cray Aries dragonfly interconnect model with jitter.

The paper attributes HEP's sublinear weak scaling to "variations in the
throughput and latency in the interconnect" combined with frequent small
(~590 KB/layer) reductions: 12 ms conv layers synchronizing at scale magnify
"even a small jitter in communication times" (SVI-B2), and run-to-run
variability reaches 30 % at thousands of nodes (SVIII-A).

We model each collective's time as the deterministic alpha-beta cost
(:mod:`repro.comm.cost_model`) times a lognormal jitter factor whose sigma
grows with the log of the participant count (more nodes -> more chances one
link is congested; the max over many draws rises like the Gumbel of the
per-link distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.comm.cost_model import (
    AlphaBetaModel,
    allreduce_time,
    bcast_time,
    point_to_point_time,
    reduce_time,
)
from repro.utils.checks import require_real
from repro.utils.rng import SeedLike, as_rng


@dataclass
class AriesNetwork:
    """Aries interconnect: deterministic cost model + stochastic jitter."""

    cost: AlphaBetaModel = field(default_factory=AlphaBetaModel)
    jitter_sigma0: float = 0.04     # lognormal sigma for a 2-node exchange
    jitter_scale: float = 0.018     # extra sigma per log2(participants)
    seed: SeedLike = None

    def __post_init__(self) -> None:
        require_real("jitter_sigma0", self.jitter_sigma0, "[0, inf)")
        require_real("jitter_scale", self.jitter_scale, "[0, inf)")
        self._rng = as_rng(self.seed)

    # -- jitter --------------------------------------------------------------
    def _sigma(self, participants: int) -> float:
        if participants <= 1:
            return 0.0
        return self.jitter_sigma0 + self.jitter_scale * np.log2(participants)

    def jitter(self, participants: int,
               rng: Optional[np.random.Generator] = None) -> float:
        """Multiplicative jitter factor >= ~1 for one collective."""
        sigma = self._sigma(participants)
        if sigma == 0.0:
            return 1.0
        r = rng if rng is not None else self._rng
        # Lognormal with mode ~1: occasional slow collectives, never negative.
        return float(np.exp(r.normal(0.0, sigma)))

    # -- timed operations ------------------------------------------------------
    def allreduce(self, nbytes: int, p: int, algorithm: str = "auto",
                  jitter: bool = True,
                  rng: Optional[np.random.Generator] = None) -> float:
        t = allreduce_time(nbytes, p, self.cost, algorithm)
        return t * (self.jitter(p, rng) if jitter else 1.0)

    def bcast(self, nbytes: int, p: int, jitter: bool = True,
              rng: Optional[np.random.Generator] = None) -> float:
        t = bcast_time(nbytes, p, self.cost)
        return t * (self.jitter(p, rng) if jitter else 1.0)

    def reduce(self, nbytes: int, p: int, jitter: bool = True,
               rng: Optional[np.random.Generator] = None) -> float:
        t = reduce_time(nbytes, p, self.cost)
        return t * (self.jitter(p, rng) if jitter else 1.0)

    def p2p(self, nbytes: int, jitter: bool = True,
            rng: Optional[np.random.Generator] = None) -> float:
        t = point_to_point_time(nbytes, self.cost)
        return t * (self.jitter(2, rng) if jitter else 1.0)

    def with_endpoints(self, factor: float) -> "AriesNetwork":
        """Return a copy with MLSL endpoint proxies enabled (factor > 1)."""
        return AriesNetwork(cost=self.cost.with_endpoints(factor),
                            jitter_sigma0=self.jitter_sigma0,
                            jitter_scale=self.jitter_scale,
                            seed=self._rng)
