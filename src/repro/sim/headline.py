"""Full-machine peak/sustained FLOP-rate accounting (paper SVI-B3).

Paper configurations:

- HEP: 9600 total nodes = 9594 workers + 6 PS, 9 compute groups;
  peak 11.73 PFLOP/s, sustained (100-iteration window) 11.41 PFLOP/s at
  ~106 ms per iteration.
- Climate: 9622 total nodes = 9608 workers + 14 PS, 8 compute groups;
  peak 15.07 PFLOP/s, sustained (10-iteration window, including one model
  snapshot to disk) 13.27 PFLOP/s at ~12.16 s per iteration.

FLOPs are counted SDE-style (paper SV): single-node layer FLOPs x number of
worker nodes; rate = iteration FLOPs / iteration wall time. Peak uses the
fastest iteration, sustained the best contiguous-window average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.machine import CoriMachine, cori
from repro.sim.hybrid_sim import HybridSimConfig, HybridSimResult, simulate_hybrid
from repro.sim.scaling import single_node_ips
from repro.sim.workload import Workload, climate_workload, hep_workload
from repro.utils.checks import require_count
from repro.utils.units import PFLOPS

#: single-threaded HDF5 + Lustre checkpoint write rate (B/s); calibrated so a
#: 302 MiB climate snapshot costs ~14 s, reproducing the sustained/peak gap.
CHECKPOINT_WRITE_RATE = 22e6


@dataclass
class HeadlineResult:
    workload: str
    n_workers: int
    n_ps: int
    n_groups: int
    local_batch: int
    peak_flops: float
    sustained_flops: float
    mean_iteration_time: float
    speedup_vs_single_node: float

    def __str__(self) -> str:
        return (f"{self.workload}: {self.n_workers} workers + {self.n_ps} PS, "
                f"{self.n_groups} groups | peak "
                f"{self.peak_flops / PFLOPS:.2f} PF/s, sustained "
                f"{self.sustained_flops / PFLOPS:.2f} PF/s, iter "
                f"{self.mean_iteration_time:.3f} s, "
                f"{self.speedup_vs_single_node:.0f}x single node")


def checkpoint_time(model_bytes: int) -> float:
    """Seconds to snapshot the model to the filesystem."""
    return require_count("model_bytes", model_bytes,
                         least=0) / CHECKPOINT_WRITE_RATE


def headline_run(workload: Workload, machine: Optional[CoriMachine] = None,
                 n_workers: int = 9594, n_ps: int = 6, n_groups: int = 9,
                 local_batch: int = 8, n_iterations: int = 30,
                 checkpoint_every: int = 10, seed: int = 0) -> HeadlineResult:
    """Simulate a full-machine run and account peak/sustained FLOP rates."""
    if machine is None:
        machine = cori(seed=seed)
    # The sustained window holds one snapshot: a run shorter than the
    # window has no such window, and would report a sustained rate of 0.
    if require_count("n_iterations", n_iterations) < require_count(
            "checkpoint_every", checkpoint_every):
        raise ValueError(f"n_iterations ({n_iterations}) must be >= "
                         f"checkpoint_every ({checkpoint_every})")
    result = simulate_hybrid(HybridSimConfig(
        workload=workload, machine=machine, n_workers=n_workers,
        n_groups=n_groups, n_ps=n_ps, local_batch=local_batch,
        n_iterations=n_iterations, seed=seed))

    per_image = workload.training_flops_per_image()
    iter_flops_machine = per_image * local_batch * n_workers

    # Per-group iteration times; inject checkpoint overhead every k-th
    # iteration (the paper's sustained window includes one snapshot).
    ckpt = checkpoint_time(workload.model_bytes)
    all_times = [t.copy() for t in result.group_iteration_times]
    for t in all_times:
        t[checkpoint_every - 1::checkpoint_every] += ckpt
    # Machine-level iteration time: average group iteration (groups run
    # concurrently, each contributing its share of the global throughput).
    times = np.concatenate(all_times)
    peak_rate = iter_flops_machine / times.min()
    # Sustained: best contiguous window of `checkpoint_every` iterations in
    # any group, matching the paper's windowed measurement.
    best_window = min(
        np.convolve(t, np.ones(checkpoint_every), mode="valid").min()
        for t in all_times) / checkpoint_every
    sustained_rate = iter_flops_machine / best_window

    # Single-node reference for the speedup claim (6173x / 7205x).
    single_ips = single_node_ips(workload, machine, local_batch, seed)
    return HeadlineResult(
        workload=workload.name, n_workers=n_workers, n_ps=n_ps,
        n_groups=n_groups, local_batch=local_batch,
        peak_flops=float(peak_rate), sustained_flops=float(sustained_rate),
        mean_iteration_time=float(times.mean()),
        speedup_vs_single_node=result.throughput / single_ips)


def hep_headline(seed: int = 0, n_iterations: int = 30) -> HeadlineResult:
    """The paper's HEP full-system configuration."""
    return headline_run(hep_workload(), n_workers=9594, n_ps=6, n_groups=9,
                        local_batch=8, n_iterations=n_iterations,
                        checkpoint_every=10, seed=seed)


def climate_headline(seed: int = 0, n_iterations: int = 20) -> HeadlineResult:
    """The paper's climate full-system configuration."""
    return headline_run(climate_workload(), n_workers=9608, n_ps=14,
                        n_groups=8, local_batch=8,
                        n_iterations=n_iterations, checkpoint_every=10,
                        seed=seed)
