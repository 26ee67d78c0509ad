"""Synchronous data-parallel iteration-time model.

One iteration over ``p`` worker nodes with local minibatch ``b``:

    T = T_compute(b) * straggler_max(p)                  (slowest node)
      + sum_l allreduce(bytes_l, p) * placement_penalty  (layer reductions)
      + sync_points * os_jitter_absorption(p)            (arrival spread)
      + solver_update + input_io

The arrival-spread term is the paper's SVI-B2 mechanism: a ~12 ms HEP conv
layer ends at slightly different times on each node; the reduction cannot
start until the last node arrives, and the spread grows with the extreme
value of per-node OS/interconnect noise. It is *additive* (milliseconds-scale
OS noise), which is why the 300 ms-per-layer climate network weak-scales
nearly linearly while HEP does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.machine import CoriMachine
from repro.sim.perf_model import SingleNodePerf
from repro.sim.sampling import expected_max_std_normal, sample_max_std_normal
from repro.sim.workload import Workload
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: scale of additive per-sync-point OS/communication noise (seconds). One
#: node's draw is ~|N(0, OS_JITTER)|; a p-node barrier absorbs the max.
OS_JITTER = 0.9e-3
#: multiplicative per-node compute-noise sigma (persistent + per-iteration)
COMPUTE_SIGMA = 0.035


@dataclass
class SyncIterationStats:
    """Timing summary over sampled iterations."""

    times: np.ndarray
    breakdown: Dict[str, float]

    @property
    def mean(self) -> float:
        return float(self.times.mean())

    @property
    def best(self) -> float:
        return float(self.times.min())

    @property
    def worst(self) -> float:
        return float(self.times.max())


class SyncIterationModel:
    """Iteration-time sampler for synchronous data parallelism."""

    def __init__(self, workload: Workload, machine: CoriMachine,
                 n_nodes: int, local_batch: int,
                 placement_penalty: float = 1.0,
                 seed: SeedLike = None) -> None:
        self.workload = workload
        self.machine = machine
        self.n_nodes = require_count("n_nodes", n_nodes)
        self.local_batch = require_count("local_batch", local_batch)
        self.placement_penalty = require_real(
            "placement_penalty", placement_penalty, "[1, inf)")
        self._rng = as_rng(seed)
        self._perf = SingleNodePerf(
            workload, local_batch, node=machine.node,
            solver_model=machine.solver_overhead, io_model=machine.io)
        self._compute = self._perf.compute_time()
        self._solver = self._perf.solver_time()
        self._io = self._perf.io_time()
        jitter_on = machine.stragglers.sigma_iter > 0 or \
            machine.stragglers.sigma_node > 0
        self._compute_sigma = COMPUTE_SIGMA if jitter_on else 0.0
        self._os_jitter = OS_JITTER if jitter_on else 0.0

    # -- deterministic components -------------------------------------------
    def allreduce_time(self, jitter: bool = False,
                       rng: Optional[np.random.Generator] = None) -> float:
        """Sum of per-layer gradient reductions."""
        total = 0.0
        for nbytes in self.workload.trainable_layer_bytes:
            total += self.machine.network.allreduce(
                nbytes, self.n_nodes, jitter=jitter, rng=rng)
        return total * self.placement_penalty

    def straggler_factor(self, sample: bool = False,
                         rng: Optional[np.random.Generator] = None) -> float:
        """Max-over-nodes compute slowdown."""
        if self.n_nodes == 1 or self._compute_sigma == 0.0:
            return 1.0
        if sample:
            r = rng if rng is not None else self._rng
            z = sample_max_std_normal(self.n_nodes, r)
        else:
            z = expected_max_std_normal(self.n_nodes)
        return float(np.exp(self._compute_sigma * z))

    def sync_jitter_time(self, sample: bool = False,
                         rng: Optional[np.random.Generator] = None) -> float:
        """Arrival-spread absorption across all per-layer sync points."""
        if self.n_nodes == 1 or self._os_jitter == 0.0:
            return 0.0
        pts = self.workload.sync_points
        if sample:
            r = rng if rng is not None else self._rng
            total = 0.0
            for _ in range(pts):
                total += self._os_jitter * max(
                    0.0, sample_max_std_normal(self.n_nodes, r))
            return total
        return pts * self._os_jitter * expected_max_std_normal(self.n_nodes)

    # -- iteration time -------------------------------------------------------
    def expected_iteration_time(self) -> float:
        """Deterministic (expected-value) iteration time."""
        return (self._compute * self.straggler_factor()
                + self.allreduce_time(jitter=False)
                + self.sync_jitter_time()
                + self._solver + self._io)

    def sample_iterations(self, n: int = 50) -> SyncIterationStats:
        """Sample ``n`` iteration times with stochastic jitter."""
        times = np.empty(require_count("n", n))
        for i in range(n):
            times[i] = (self._compute * self.straggler_factor(
                sample=True)
                + self.allreduce_time(jitter=True, rng=self._rng)
                + self.sync_jitter_time(sample=True)
                + self._solver + self._io)
        breakdown = {
            "compute": self._compute * self.straggler_factor(),
            "allreduce": self.allreduce_time(jitter=False),
            "sync_jitter": self.sync_jitter_time(),
            "solver": self._solver,
            "io": self._io,
        }
        return SyncIterationStats(times=times, breakdown=breakdown)

    # -- throughput -----------------------------------------------------------
    def images_per_second(self) -> float:
        return self.n_nodes * self.local_batch / self.expected_iteration_time()

    def flops_per_second(self) -> float:
        per_img = self.workload.training_flops_per_image()
        return self.images_per_second() * per_img
