"""Straggler and failure injection (paper SVIII-A).

At thousands of nodes the paper observed up to 30 % run-to-run variability
and non-zero probability of node degradation or outright failure during a
run. A single node failure kills a synchronous run; hybrid runs lose only the
affected compute group, and a *lagging* group produces the loss "jumps" of
Fig 8.

Two models:

- :class:`StragglerModel` — persistent per-node speed factors (a slow node is
  slow for the whole run) plus per-iteration OS-jitter draws;
- :class:`FailureModel` — Poisson fail-stop and degradation events over a
  run's duration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class FailureEvent:
    """A node fails (fail-stop), degrades, or is repaired at ``time``
    seconds into the run (``"repair"`` undoes a prior degrade: the node's
    compounded slow factor resets to healthy speed)."""

    time: float
    node_id: int
    kind: str                 # "fail" | "degrade" | "repair"
    slow_factor: float = 1.0  # for "degrade": compute-time multiplier

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "degrade", "repair"):
            raise ValueError(f"unknown failure kind {self.kind!r}")
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"time must be finite and non-negative, got {self.time}")
        # a node index: an integer >= 0 (NumPy ones included), stored as
        # int — a fractional or NaN one would crash the run that indexes
        # replicas with it
        if not isinstance(self.node_id, numbers.Integral) or self.node_id < 0:
            raise ValueError(
                f"node_id must be an integer >= 0, got {self.node_id!r}")
        object.__setattr__(self, "node_id", int(self.node_id))
        if not math.isfinite(self.slow_factor):
            raise ValueError(
                f"slow_factor must be finite, got {self.slow_factor}")
        if self.kind == "degrade" and self.slow_factor < 1.0:
            raise ValueError("degrade events must slow the node down")
        if self.kind == "repair" and self.slow_factor != 1.0:
            raise ValueError(
                "a repair restores full speed; slow_factor must stay 1.0")


@dataclass
class StragglerModel:
    """Per-node persistent speed variation + per-iteration OS jitter.

    ``node_factor`` ~ lognormal(sigma_node): a tail of persistently slow
    nodes. ``iteration_factor`` ~ lognormal(sigma_iter) drawn independently
    each iteration (OS noise, page faults, turbo variation). A synchronous
    group's iteration takes the MAX over members — that max grows with group
    size, which is precisely the straggler effect (paper SII-B1b).
    """

    sigma_node: float = 0.03
    sigma_iter: float = 0.05
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.sigma_node < 0 or self.sigma_iter < 0:
            raise ValueError("sigmas must be non-negative")
        self._rng = as_rng(self.seed)

    def node_factors(self, n_nodes: int) -> np.ndarray:
        """Persistent speed factors (>= ~1) for ``n_nodes`` nodes."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if self.sigma_node == 0:
            return np.ones(n_nodes)
        return np.exp(self._rng.normal(0.0, self.sigma_node, size=n_nodes))

    def iteration_factors(self, n_nodes: int) -> np.ndarray:
        """Fresh per-iteration jitter factors."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if self.sigma_iter == 0:
            return np.ones(n_nodes)
        return np.exp(self._rng.normal(0.0, self.sigma_iter, size=n_nodes))

    def group_slowdown(self, n_nodes: int, n_samples: int = 64) -> float:
        """Expected max-over-group jitter factor (straggler multiplier).

        Computed by Monte-Carlo over ``n_samples`` synthetic iterations; for
        a lognormal this grows like exp(sigma * sqrt(2 ln n)).
        """
        if n_nodes <= 1:
            return 1.0
        draws = np.exp(self._rng.normal(
            0.0, float(np.hypot(self.sigma_node, self.sigma_iter)),
            size=(n_samples, n_nodes)))
        return float(draws.max(axis=1).mean())


@dataclass
class FailureModel:
    """Poisson node-failure / degradation process.

    ``mtbf_node_hours`` is the per-node mean time between failures; at Cori
    scale (~10^4 nodes) even a 50k-hour node MTBF yields a failure every ~5
    hours somewhere in the machine — "the probability of one of the thousands
    of nodes failing or degrading during the run is non-zero". An infinite
    MTBF is a node that never fails.
    """

    mtbf_node_hours: float = 5.0e4
    degrade_fraction: float = 0.7      # fraction of events that only degrade
    degrade_slow_factor: float = 2.5
    seed: SeedLike = None

    def __post_init__(self) -> None:
        # NaN fails every comparison: "not > 0" refuses it, where "<= 0"
        # would let a run through with no failures at all
        if not self.mtbf_node_hours > 0:
            raise ValueError(f"mtbf_node_hours must be positive (inf: "
                             f"never fails), got {self.mtbf_node_hours}")
        if not 0.0 <= self.degrade_fraction <= 1.0:
            raise ValueError("degrade_fraction must be in [0,1]")
        # refused here, not at run start when the first degrade event
        # is drawn
        if not 1.0 <= self.degrade_slow_factor < math.inf:
            raise ValueError(f"degrade_slow_factor must be finite and "
                             f">= 1, got {self.degrade_slow_factor}")
        self._rng = as_rng(self.seed)

    def rate_per_second(self, n_nodes: int) -> float:
        """Aggregate event rate of an ``n_nodes`` allocation."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return n_nodes / (self.mtbf_node_hours * 3600.0)

    def sample_events(self, n_nodes: int, duration_s: float
                      ) -> List[FailureEvent]:
        """Draw the failure/degrade events of one run."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        rate = self.rate_per_second(n_nodes)
        events: List[FailureEvent] = []
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / rate)) if rate > 0 else \
                float("inf")
            if t >= duration_s:
                break
            node = int(self._rng.integers(0, n_nodes))
            if self._rng.random() < self.degrade_fraction:
                events.append(FailureEvent(t, node, "degrade",
                                           self.degrade_slow_factor))
            else:
                events.append(FailureEvent(t, node, "fail"))
        return events

    def survival_probability(self, n_nodes: int, duration_s: float) -> float:
        """P(no fail-stop event in the run) — the sync run's survival odds."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        lam = self.rate_per_second(n_nodes) * duration_s
        return float(np.exp(-lam * (1.0 - self.degrade_fraction)))
