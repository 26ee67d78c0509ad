"""Event-driven simulation of the hybrid architecture (paper SIII-E, Fig 4).

Compute groups iterate on independent clocks. Within a group, an iteration
looks exactly like a small synchronous run (compute + per-layer all-reduce +
arrival-spread absorption). Then the group's **root node**:

1. sends each layer's aggregated gradient to that layer's dedicated
   parameter server (PS);
2. each PS serializes updates in arrival order (FIFO per PS *node*; several
   per-layer PSs can share one PS node) and applies the solver update;
3. the PS returns the fresh layer weights to the root;
4. the root broadcasts the assembled model to its group and the next
   iteration starts.

Staleness — the number of other-group updates a PS applied between this
group's read and its write (paper SII-B2a) — is tracked per update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.events import EventQueue
from repro.cluster.machine import CoriMachine
from repro.sim.sync_sim import SyncIterationModel
from repro.sim.workload import Workload
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

#: software overhead of one PS transaction (request handling, endpoint proxy)
PS_SOFTWARE_LATENCY = 2.0e-3


@dataclass
class HybridSimConfig:
    """Configuration of a hybrid run."""

    workload: Workload
    machine: CoriMachine
    n_workers: int
    n_groups: int
    n_ps: int
    local_batch: int
    n_iterations: int = 20           # per group
    placement_compact: bool = True
    seed: SeedLike = None

    def __post_init__(self) -> None:
        self.n_workers = require_count("n_workers", self.n_workers)
        self.n_groups = require_count("n_groups", self.n_groups)
        self.n_ps = require_count("n_ps", self.n_ps, least=0)
        self.local_batch = require_count("local_batch", self.local_batch)
        self.n_iterations = require_count("n_iterations", self.n_iterations)
        if self.n_workers < self.n_groups:
            raise ValueError("need at least one worker per group")

    def group_sizes(self) -> List[int]:
        base = self.n_workers // self.n_groups
        extra = self.n_workers % self.n_groups
        return [base + (1 if g < extra else 0) for g in range(self.n_groups)]


@dataclass
class HybridSimResult:
    """Outcome of one simulated hybrid run."""

    config_name: str
    group_iteration_times: List[np.ndarray]   # per group
    staleness: np.ndarray                     # one entry per PS update
    makespan: float
    images_processed: int
    ps_busy_time: np.ndarray                  # per PS node
    update_times: List[Tuple[float, int]]     # (time, group) of PS writes

    @property
    def throughput(self) -> float:
        """Images per second over the whole run."""
        return self.images_processed / self.makespan if self.makespan else 0.0

    @property
    def mean_iteration_time(self) -> float:
        return float(np.concatenate(self.group_iteration_times).mean())

    @property
    def mean_staleness(self) -> float:
        return float(self.staleness.mean()) if self.staleness.size else 0.0

    def ps_utilization(self) -> np.ndarray:
        if self.makespan <= 0:
            return np.zeros_like(self.ps_busy_time)
        return self.ps_busy_time / self.makespan


def simulate_hybrid(config: HybridSimConfig) -> HybridSimResult:
    """Run the event-driven hybrid simulation."""
    wl = config.workload
    machine = config.machine
    rngs = spawn_rngs(config.seed, config.n_groups + 1)
    net_rng = rngs[-1]

    sizes = config.group_sizes()
    # Per-group synchronous iteration models (group-local all-reduce).
    group_models = [
        SyncIterationModel(wl, machine, n_nodes=sizes[g],
                           local_batch=config.local_batch, seed=rngs[g])
        for g in range(config.n_groups)
    ]
    placement = machine.topology.place(
        min(config.n_workers, machine.n_nodes - config.n_ps),
        config.n_groups, n_ps=config.n_ps,
        compact=config.placement_compact, rng=net_rng)
    group_penalty = [
        machine.topology.allreduce_penalty(placement.group_nodes[g])
        for g in range(config.n_groups)
    ]
    ps_penalty = machine.topology.ps_penalty(
        [n for g in placement.group_nodes for n in g], placement.ps_nodes)

    n_layers = wl.n_trainable_layers
    layer_bytes = wl.trainable_layer_bytes
    n_ps_nodes = max(1, config.n_ps)
    # Per-layer PSs assigned round-robin to PS nodes (paper: "dedicate a
    # parameter server to each trainable layer"; PS *nodes* host several).
    layer_to_ps = [l % n_ps_nodes for l in range(n_layers)]

    # PS node state: next-free time and accumulated busy time.
    ps_free = np.zeros(n_ps_nodes)
    ps_busy = np.zeros(n_ps_nodes)
    # Per-layer version counters and per-group last-read versions.
    layer_version = np.zeros(n_layers, dtype=np.int64)
    group_read_version = np.zeros((config.n_groups, n_layers), dtype=np.int64)

    # Solver applied on the PS: time to update one layer's weights.
    bpp = (machine.solver_overhead.adam_bytes_per_param
           if wl.solver == "adam"
           else machine.solver_overhead.sgd_bytes_per_param)
    bw = machine.solver_overhead.stream_bandwidth

    queue = EventQueue()
    iteration_times: List[List[float]] = [[] for _ in range(config.n_groups)]
    staleness_log: List[int] = []
    update_times: List[Tuple[float, int]] = []
    images = 0
    iter_start = [0.0] * config.n_groups
    iters_done = [0] * config.n_groups

    def start_iteration(g: int) -> None:
        iter_start[g] = queue.now
        model = group_models[g]
        rng = rngs[g]
        t_group = (model._compute * model.straggler_factor(sample=True)
                   + model.allreduce_time(jitter=True, rng=rng)
                   * group_penalty[g]
                   + model.sync_jitter_time(sample=True)
                   + model._io)
        queue.schedule(t_group, lambda: push_updates(g), f"g{g}-compute")

    def push_updates(g: int) -> None:
        """Root exchanges per-layer gradients with the PSs.

        The root node drives the exchange through a single endpoint proxy
        (paper SIII-E(b)), so its per-layer round trips serialize; distinct
        PS *nodes* still process different groups' updates concurrently,
        which is where queueing contention appears.
        """
        rng = rngs[g]
        clock = queue.now  # root's serial timeline
        last_done = queue.now
        for l in range(n_layers):
            ps = layer_to_ps[l]
            transfer_in = machine.network.p2p(layer_bytes[l],
                                              rng=rng) * ps_penalty
            arrive = clock + transfer_in
            start = max(arrive, ps_free[ps])
            n_params = layer_bytes[l] // 4
            service = (PS_SOFTWARE_LATENCY + n_params * bpp / bw)
            finish = start + service
            ps_free[ps] = finish
            ps_busy[ps] += service
            # Staleness accounting at the moment the update is applied.
            staleness_log.append(
                int(layer_version[l] - group_read_version[g, l]))
            layer_version[l] += 1
            group_read_version[g, l] = layer_version[l]
            update_times.append((finish, g))
            transfer_out = machine.network.p2p(layer_bytes[l],
                                               rng=rng) * ps_penalty
            # Full-duplex NIC: the reply streams back while the root issues
            # the next layer's request; only the request side serializes.
            last_done = max(last_done, finish + transfer_out)
            clock = finish
        t_all = max(0.0, max(clock, last_done) - queue.now)
        queue.schedule(t_all, lambda: broadcast_model(g), f"g{g}-ps")

    def broadcast_model(g: int) -> None:
        rng = rngs[g]
        t_bcast = machine.network.bcast(wl.model_bytes, sizes[g], rng=rng)
        queue.schedule(t_bcast, lambda: finish_iteration(g), f"g{g}-bcast")

    def finish_iteration(g: int) -> None:
        nonlocal images
        iteration_times[g].append(queue.now - iter_start[g])
        images += sizes[g] * config.local_batch
        iters_done[g] += 1
        if iters_done[g] < config.n_iterations:
            start_iteration(g)

    # Stagger group starts slightly (they never start in lockstep in practice).
    for g in range(config.n_groups):
        queue.schedule(float(net_rng.uniform(0, 1e-3)),
                       (lambda gg: (lambda: start_iteration(gg)))(g),
                       f"g{g}-start")
    queue.run()

    return HybridSimResult(
        config_name=(f"{wl.name}-hybrid-{config.n_groups}g-"
                     f"{config.n_workers}w"),
        group_iteration_times=[np.asarray(t) for t in iteration_times],
        staleness=np.asarray(staleness_log, dtype=np.int64),
        makespan=queue.now,
        images_processed=images,
        ps_busy_time=ps_busy,
        update_times=update_times,
    )
