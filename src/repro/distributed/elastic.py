"""Group-failure resilience, executed for real (paper SVIII-A).

"The probability of one of the thousands of nodes failing or degrading
during the run is non-zero ... even a single node failure can cause
complete failure of synchronous runs; hybrid runs are much more resilient
since only one of the compute groups gets affected."

Two pieces make that claim executable:

- :class:`ElasticHybridTrainer` — the hybrid trainer with a failure
  schedule: a group that fails at virtual time ``t`` simply stops pushing
  updates; the remaining groups keep training against the shared per-layer
  parameter servers. The run *completes* and the PS weights keep improving.
- :func:`sync_run_with_failure` — the synchronous counterfactual: one rank
  dying inside an all-reduce deadlocks/aborts the whole job, modeled here
  as the run terminating at the failure time with whatever loss it had.

The resilience benchmark trains both under the same failure and compares
final losses; checkpoint/restart (the sync world's actual mitigation) is
costed via :mod:`repro.train.checkpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.sequential import Sequential
from repro.distributed.hybrid import HybridTrainer, HybridTrainResult, _Run
from repro.train.loop import step
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng


@dataclass
class ElasticTrainResult(HybridTrainResult):
    """Hybrid result plus the failure record."""

    failed_groups: Dict[int, float] = field(default_factory=dict)
    #: iterations actually completed per group
    completed: List[int] = field(default_factory=list)

    @property
    def surviving_groups(self) -> List[int]:
        return [g for g in range(self.n_groups)
                if g not in self.failed_groups]


class ElasticHybridTrainer(HybridTrainer):
    """Hybrid trainer with per-group failure injection.

    ``failures`` maps group id -> virtual failure time. A failed group
    completes the iteration in flight (its update is stale but harmless —
    the PS applies updates in arrival order by design) and then goes
    silent. Training throughput drops by one group; nothing else stops.
    """

    def __init__(self, net_factory: Callable[[], Sequential],
                 opt_factory, loss_fn, n_groups: int,
                 failures: Optional[Dict[int, float]] = None,
                 iteration_time_fn: Optional[Callable[[int], float]] = None,
                 seed: SeedLike = 0) -> None:
        super().__init__(net_factory, opt_factory, loss_fn, n_groups,
                         iteration_time_fn, seed)
        self.failures = dict(failures or {})
        for g, t in self.failures.items():
            if require_count("failures: group", g, least=0) >= self.n_groups:
                raise ValueError(f"failures: group {g} out of range")
            # inf: a group that never fails
            require_real("failures: time", t, "[0, inf]")

    def _next(self, run: _Run) -> Optional[int]:
        # The failure takes effect before the group can *start* another
        # iteration past its failure time.
        g = super()._next(run)
        while g in self.failures and run.clocks[g] >= self.failures[g]:
            run.dead[g] = self.failures[g]
            g = super()._next(run)
        return g

    def _result(self, run: _Run) -> ElasticTrainResult:
        return ElasticTrainResult(**vars(super()._result(run)),
                                  failed_groups=run.dead, completed=run.done)


def sync_run_with_failure(net_factory: Callable[[], Sequential],
                          opt_factory, loss_fn, x: np.ndarray, y: np.ndarray,
                          batch: int, n_iterations: int,
                          iteration_time: float, failure_time: float,
                          seed: SeedLike = 0
                          ) -> Tuple[List[float], List[float], bool]:
    """The synchronous counterfactual under a node failure.

    Trains normally (single model = the all-reduce-equivalent update)
    until the virtual clock crosses ``failure_time``, at which point a
    synchronous job has lost a rank inside a barrier and dies. Returns
    ``(times, losses, completed)``.
    """
    batch = require_count("batch", batch)
    n_iterations = require_count("n_iterations", n_iterations)
    require_real("iteration_time", iteration_time, "(0, inf)")
    # inf: the run never fails
    require_real("failure_time", failure_time, "[0, inf]")
    net = net_factory()
    opt = opt_factory(net.params())
    rng = as_rng(seed)
    n = x.shape[0]
    times: List[float] = []
    losses: List[float] = []
    clock = 0.0
    for _ in range(n_iterations):
        if clock + iteration_time > failure_time:
            return times, losses, False  # the barrier never completes
        idx = rng.choice(n, size=min(batch, n), replace=False)
        losses.append(step(net, loss_fn, x[idx], y[idx]))
        opt.step()
        clock += iteration_time
        times.append(clock)
    return times, losses, True
