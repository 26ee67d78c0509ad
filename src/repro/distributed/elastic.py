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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sequential import Sequential
from repro.distributed.hybrid import GroupTrace, HybridTrainResult
from repro.distributed.param_server import PSRegistry
from repro.utils.rng import SeedLike, spawn_rngs


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


class ElasticHybridTrainer:
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
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        failures = dict(failures or {})
        for g, t in failures.items():
            if not 0 <= g < n_groups:
                raise ValueError(f"failure group {g} out of range")
            if t < 0:
                raise ValueError(f"failure time must be >= 0, got {t}")
        self.n_groups = n_groups
        self.failures = failures
        self.loss_fn = loss_fn
        self.iteration_time_fn = iteration_time_fn or (lambda g: 1.0)
        self.nets = [net_factory() for _ in range(n_groups)]
        self.registry = PSRegistry(self.nets[0].trainable_layers(),
                                   opt_factory)
        self._rngs = spawn_rngs(seed, n_groups)

    def run(self, x: np.ndarray, y: np.ndarray, group_batch: int,
            n_iterations: int, drift: Optional[Sequence[float]] = None
            ) -> ElasticTrainResult:
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
        versions = [self.registry.pull_into(layers[g])
                    for g in range(g_count)]
        clocks = [0.0] * g_count
        done = [0] * g_count
        dead: Dict[int, float] = {}

        import heapq
        heap = [(0.0, g) for g in range(g_count)]
        heapq.heapify(heap)
        while heap:
            _t, g = heapq.heappop(heap)
            # The failure takes effect before the group can *start* another
            # iteration past its failure time.
            fail_t = self.failures.get(g)
            if fail_t is not None and clocks[g] >= fail_t:
                dead[g] = fail_t
                continue
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
            if done[g] < n_iterations:
                heapq.heappush(heap, (clocks[g], g))

        return ElasticTrainResult(
            traces=traces, staleness=self.registry.all_staleness(),
            n_groups=g_count, failed_groups=dead, completed=list(done))


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
    if batch <= 0 or n_iterations <= 0 or iteration_time <= 0:
        raise ValueError("batch, n_iterations, iteration_time must be "
                         "positive")
    net = net_factory()
    opt = opt_factory(net.params())
    rng = np.random.default_rng(seed if not isinstance(
        seed, np.random.Generator) else None)
    n = x.shape[0]
    times: List[float] = []
    losses: List[float] = []
    clock = 0.0
    for _ in range(n_iterations):
        if clock + iteration_time > failure_time:
            return times, losses, False  # the barrier never completes
        idx = rng.choice(n, size=min(batch, n), replace=False)
        net.zero_grad()
        loss, grad_out = loss_fn(net, x[idx], y[idx])
        net.backward(grad_out, input_grad=False)
        opt.step()
        clock += iteration_time
        times.append(clock)
        losses.append(loss)
    return times, losses, True
