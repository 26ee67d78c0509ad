"""Stale-synchronous parallel (SSP): bounded staleness between the poles.

The paper's architecture exposes exactly two operating points per group
count: lock-step synchrony within groups, unbounded asynchrony across them
(SII-B2). SSP (Ho et al. 2013) is the classic intermediate protocol — a
group may run ahead of the slowest group by at most ``bound`` iterations,
otherwise it *blocks*. ``bound=0`` is iteration-level lock-step across
groups; ``bound=inf`` recovers the paper's hybrid.

:class:`SSPTrainer` is the :class:`~repro.distributed.hybrid.HybridTrainer`
— same per-layer PS registry, same virtual-time group schedule — with the
bound as the gate on which groups may start an iteration. It also records
the time each group spends blocked, the quantity the staleness bound is
traded against. The ablation benchmark sweeps ``bound`` to show the
trade-off the paper resolves by momentum tuning instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.sequential import Sequential
from repro.distributed.hybrid import HybridTrainer, HybridTrainResult, _Run
from repro.utils.checks import require_real
from repro.utils.rng import SeedLike


@dataclass
class SSPTrainResult(HybridTrainResult):
    """Hybrid result plus per-group blocked time."""

    wait_times: List[float] = field(default_factory=list)

    @property
    def total_wait(self) -> float:
        return float(sum(self.wait_times))


class SSPTrainer(HybridTrainer):
    """Compute groups under a stale-synchronous staleness bound.

    Interface mirrors :class:`HybridTrainer`: ``net_factory``/
    ``opt_factory`` build the groups' replicas (run in turn on one compute
    net) and the per-layer PS solvers; ``loss_fn(net, x, y) -> (loss,
    grad_out)``. ``bound`` is the maximum number of iterations any group
    may lead the slowest group by (``inf``: no bound).
    ``run(..., drift=...)`` scales per-group iteration durations: a
    straggling group forces the others to block once they hit the bound —
    the mechanism the protocol is about.
    """

    def __init__(self, net_factory: Callable[[], Sequential],
                 opt_factory, loss_fn, n_groups: int, bound: int,
                 iteration_time_fn: Optional[Callable[[int], float]] = None,
                 seed: SeedLike = 0) -> None:
        self.bound = require_real("bound", bound, "[0, inf]")
        super().__init__(net_factory, opt_factory, loss_fn, n_groups,
                         iteration_time_fn, seed)

    def _next(self, run: _Run) -> Optional[int]:
        active = [g for g in range(self.n_groups)
                  if run.done[g] < run.n_iterations]
        if not active:
            return None
        # The bound is enforced against the slowest *running* group;
        # groups that already finished do not gate anyone.
        floor = min(run.done[g] for g in active)
        ready = [g for g in active if run.done[g] - floor <= self.bound]
        # Groups the last iteration brought inside the bound resume at its
        # end, the unblocking instant, not at their own (earlier) ready time.
        t = run.clocks[run.last]
        for g in run.blocked:
            if g in ready and t > run.clocks[g]:
                run.waits[g] += t - run.clocks[g]
                run.clocks[g] = t
        run.blocked = [g for g in active if g not in ready]
        run.last = min(ready, key=lambda g: (run.clocks[g], g))
        return run.last

    def _result(self, run: _Run) -> SSPTrainResult:
        return SSPTrainResult(**vars(super()._result(run)),
                              wait_times=run.waits)
