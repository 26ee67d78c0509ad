"""Stale-synchronous parallel (SSP): bounded staleness between the poles.

The paper's architecture exposes exactly two operating points per group
count: lock-step synchrony within groups, unbounded asynchrony across them
(SII-B2). SSP (Ho et al. 2013) is the classic intermediate protocol — a
group may run ahead of the slowest group by at most ``bound`` iterations,
otherwise it *blocks*. ``bound=0`` is iteration-level lock-step across
groups; ``bound=inf`` recovers the paper's hybrid.

This trainer reuses the per-layer PS registry and deterministic
virtual-time co-simulation of :class:`~repro.distributed.hybrid
.HybridTrainer`, and additionally records the time each group spends
blocked — the quantity the staleness bound is traded against. The ablation
benchmark sweeps ``bound`` to show the trade-off the paper resolves by
momentum tuning instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.sequential import Sequential
from repro.distributed.hybrid import GroupTrace, HybridTrainResult
from repro.distributed.param_server import PSRegistry
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass
class SSPTrainResult(HybridTrainResult):
    """Hybrid result plus per-group blocked time."""

    wait_times: List[float] = field(default_factory=list)

    @property
    def total_wait(self) -> float:
        return float(sum(self.wait_times))


class SSPTrainer:
    """Compute groups under a stale-synchronous staleness bound.

    Interface mirrors :class:`HybridTrainer`: ``net_factory``/
    ``opt_factory`` build per-group replicas and the per-layer PS solvers;
    ``loss_fn(net, x, y) -> (loss, grad_out)``. ``bound`` is the maximum
    number of iterations any group may lead the slowest group by.
    """

    def __init__(self, net_factory: Callable[[], Sequential],
                 opt_factory, loss_fn, n_groups: int, bound: int,
                 iteration_time_fn: Optional[Callable[[int], float]] = None,
                 seed: SeedLike = 0) -> None:
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        if bound < 0:
            raise ValueError(f"staleness bound must be >= 0, got {bound}")
        self.n_groups = n_groups
        self.bound = bound
        self.loss_fn = loss_fn
        self.iteration_time_fn = iteration_time_fn or (lambda g: 1.0)
        self.nets = [net_factory() for _ in range(n_groups)]
        self.registry = PSRegistry(self.nets[0].trainable_layers(),
                                   opt_factory)
        self._rngs = spawn_rngs(seed, n_groups)

    def run(self, x: np.ndarray, y: np.ndarray, group_batch: int,
            n_iterations: int, drift: Optional[Sequence[float]] = None
            ) -> SSPTrainResult:
        """Train each group for ``n_iterations`` under the staleness bound.

        ``drift`` scales per-group iteration durations (a straggling group
        forces the others to block once they hit the bound — the mechanism
        the protocol is about).
        """
        n = x.shape[0]
        if group_batch <= 0 or group_batch > n:
            raise ValueError(
                f"group_batch must be in [1, {n}], got {group_batch}")
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        if drift is None:
            drift = [1.0] * self.n_groups
        if len(drift) != self.n_groups:
            raise ValueError("drift needs one factor per group")

        g_count = self.n_groups
        traces = [GroupTrace(group=g) for g in range(g_count)]
        layers = [net.trainable_layers() for net in self.nets]
        versions = [self.registry.pull_into(layers[g]) for g in range(g_count)]
        clocks = [0.0] * g_count
        done = [0] * g_count
        waits = [0.0] * g_count

        def step(g: int) -> None:
            rng = self._rngs[g]
            net = self.nets[g]
            idx = rng.choice(n, size=group_batch, replace=False)
            net.zero_grad()
            loss, grad_out = self.loss_fn(net, x[idx], y[idx])
            net.backward(grad_out, input_grad=False)
            versions[g] = self.registry.push_from(layers[g], versions[g],
                                                  group=g)
            clocks[g] += self.iteration_time_fn(g) * drift[g]
            traces[g].times.append(clocks[g])
            traces[g].losses.append(loss)
            done[g] += 1

        while any(done[g] < n_iterations for g in range(g_count)):
            active = [g for g in range(g_count) if done[g] < n_iterations]
            # The bound is enforced against the slowest *running* group;
            # groups that already finished do not gate anyone.
            floor = min(done[g] for g in active)
            eligible = [g for g in active if done[g] - floor <= self.bound]
            gated = [g for g in active if g not in eligible]
            # The eligible group furthest behind in virtual time acts next
            # (deterministic co-simulation, as in HybridTrainer).
            nxt = min(eligible, key=lambda g: (clocks[g], g))
            step(nxt)
            t = clocks[nxt]
            # Groups that were gated and are now inside the bound resume at
            # the unblocking instant, not at their own (earlier) ready time.
            still_active = [g for g in range(g_count)
                            if done[g] < n_iterations]
            if still_active:
                new_floor = min(done[g] for g in still_active)
                for g in gated:
                    if done[g] < n_iterations and \
                            done[g] - new_floor <= self.bound:
                        if t > clocks[g]:
                            waits[g] += t - clocks[g]
                            clocks[g] = t

        return SSPTrainResult(traces=traces,
                              staleness=self.registry.all_staleness(),
                              n_groups=g_count,
                              wait_times=waits)
