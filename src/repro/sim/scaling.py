"""Strong- and weak-scaling sweeps (Figs 6 and 7).

Speedup is throughput-relative-to-one-node, matching the paper's axes:

- **strong scaling** (Fig 6): total batch fixed at 2048 *per synchronous
  group*; the sync configuration splits 2048 across all nodes, each hybrid
  group processes a complete 2048 batch;
- **weak scaling** (Fig 7): every node holds minibatch 8 regardless of scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster.machine import CoriMachine
from repro.sim.hybrid_sim import HybridSimConfig, simulate_hybrid
from repro.sim.sync_sim import SyncIterationModel
from repro.sim.workload import Workload
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike

#: paper defaults
STRONG_BATCH_PER_GROUP = 2048
WEAK_BATCH_PER_NODE = 8


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    workload: str
    mode: str              # "sync" | "hybrid"
    n_groups: int
    n_nodes: int
    local_batch: int
    iteration_time: float
    images_per_second: float
    speedup: float

    def __str__(self) -> str:
        label = "sync" if self.mode == "sync" else f"hybrid-{self.n_groups}"
        return (f"{self.workload:8s} {label:10s} nodes={self.n_nodes:<6d} "
                f"batch/node={self.local_batch:<5d} "
                f"iter={self.iteration_time * 1e3:9.2f} ms "
                f"speedup={self.speedup:8.1f}x")


def single_node_ips(workload: Workload, machine: CoriMachine, batch: int,
                    seed: SeedLike = None) -> float:
    """Images/s of one node processing ``batch`` per iteration: the
    reference every speedup is taken against."""
    return SyncIterationModel(workload, machine, n_nodes=1, local_batch=batch,
                              seed=seed).images_per_second()


def iteration(workload: Workload, machine: CoriMachine, n_nodes: int,
              n_groups: int, local_batch: int, n_ps: int, n_iterations: int,
              seed: SeedLike = 0, sync_images: Optional[int] = None
              ) -> Tuple[float, float]:
    """``(seconds per iteration, images per second)`` of ``n_nodes`` in
    ``n_groups`` compute groups. One group is synchronous data parallelism:
    its expected iteration processes ``sync_images`` (default: every node's
    ``local_batch``). More groups run the hybrid simulator with ``n_ps``
    parameter-server nodes for ``n_iterations`` iterations."""
    if n_groups == 1:
        t = SyncIterationModel(workload, machine, n_nodes=n_nodes,
                               local_batch=local_batch,
                               seed=seed).expected_iteration_time()
        return t, (n_nodes * local_batch if sync_images is None
                   else sync_images) / t
    result = simulate_hybrid(HybridSimConfig(
        workload=workload, machine=machine, n_workers=n_nodes,
        n_groups=n_groups, n_ps=n_ps, local_batch=local_batch,
        n_iterations=n_iterations, seed=seed))
    return result.mean_iteration_time, result.throughput


def _ps_count(workload: Workload, n_groups: int) -> int:
    """PS nodes: enough to keep utilization low; the paper used 6 for HEP
    and 14 for climate at 9600 nodes. Scale with model size and groups."""
    base = 2 if workload.name == "hep" else 6
    return min(workload.n_trainable_layers,
               base + max(0, n_groups - 2))


def _sweep(workload: Workload, machine: CoriMachine,
           node_counts: Sequence[int], group_counts: Sequence[int],
           ref_batch: int, local_batch: Callable[[int, int], int],
           sync_images: Optional[int], seed: SeedLike) -> List[ScalingPoint]:
    """The Fig 6 / Fig 7 loop. ``local_batch(n, g)`` is the per-node batch
    on ``n`` nodes in ``g`` groups; ``sync_images`` as in :func:`iteration`."""
    ref_ips = single_node_ips(workload, machine, ref_batch, seed)
    points: List[ScalingPoint] = []
    for n_groups in group_counts:
        for n in node_counts:
            if n < n_groups:
                continue
            local = local_batch(n, n_groups)
            t_iter, ips = iteration(
                workload, machine, n, n_groups, local,
                _ps_count(workload, n_groups), 12, seed, sync_images)
            points.append(ScalingPoint(
                workload=workload.name,
                mode="sync" if n_groups == 1 else "hybrid",
                n_groups=n_groups, n_nodes=n, local_batch=local,
                iteration_time=t_iter, images_per_second=ips,
                speedup=ips / ref_ips))
    return points


def strong_scaling(workload: Workload, machine: CoriMachine,
                   node_counts: Sequence[int],
                   group_counts: Sequence[int] = (1, 2, 4),
                   batch_per_group: int = STRONG_BATCH_PER_GROUP,
                   seed: SeedLike = 0) -> List[ScalingPoint]:
    """Fig 6 sweep. ``group_counts`` includes 1 == fully synchronous."""
    batch = require_count("batch_per_group", batch_per_group)
    return _sweep(workload, machine, node_counts, group_counts, batch,
                  lambda n, g: max(1, batch // (n // g)), batch, seed)


def weak_scaling(workload: Workload, machine: CoriMachine,
                 node_counts: Sequence[int],
                 group_counts: Sequence[int] = (1, 2, 4, 8),
                 batch_per_node: int = WEAK_BATCH_PER_NODE,
                 seed: SeedLike = 0) -> List[ScalingPoint]:
    """Fig 7 sweep: constant batch per node."""
    batch = require_count("batch_per_node", batch_per_node)
    return _sweep(workload, machine, node_counts, group_counts, batch,
                  lambda n, g: batch, None, seed)


def format_curves(points: List[ScalingPoint]) -> str:
    return "\n".join(str(p) for p in points)
