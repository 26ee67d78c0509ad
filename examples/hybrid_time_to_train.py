#!/usr/bin/env python
"""Hybrid vs synchronous time-to-solution (the paper's Fig 8).

Runs *real* training (the groups take turns on one compute net, each with
its own replica state, over per-layer parameter servers) of the HEP
classifier at several group counts with the same total batch, maps each
configuration's iteration duration through the calibrated 1024-node machine
model, and reports the wall-clock speedup of the best hybrid configuration
to a target loss — the paper found 1.66x for 8 groups over sync. Each row
also prints the run's traced peak (tracemalloc, MiB): the groups share one
compute net's activations, so it follows the group batch, not the group
count.

Momentum is tuned per group count following the asynchrony-begets-momentum
rule (paper SVI-B4).

Run:  python examples/hybrid_time_to_train.py
"""

import tracemalloc

from repro.cluster.machine import cori
from repro.data.hep import make_hep_dataset
from repro.distributed import HybridTrainer, staleness_stats
from repro.models import build_hep_net
from repro.optim import Adam, tune_momentum_for_groups
from repro.sim.hybrid_sim import HybridSimConfig, simulate_hybrid
from repro.sim.sync_sim import SyncIterationModel
from repro.sim.workload import hep_workload
from repro.train.loop import hep_loss_fn

N_NODES = 1024
TOTAL_BATCH = 1024
TARGET_LOSS = 0.25


def iteration_seconds(n_groups: int) -> float:
    """Per-iteration wall-clock of one group at 1024-node scale."""
    machine = cori(seed=0)
    wl = hep_workload()
    local_batch = max(1, TOTAL_BATCH // N_NODES)
    if n_groups == 1:
        model = SyncIterationModel(wl, machine, N_NODES, local_batch,
                                   seed=0)
        return model.expected_iteration_time()
    cfg = HybridSimConfig(workload=wl, machine=machine, n_workers=N_NODES,
                          n_groups=n_groups, n_ps=6,
                          local_batch=local_batch, n_iterations=8, seed=0)
    return simulate_hybrid(cfg).mean_iteration_time


def main() -> None:
    print("=== Fig 8: training loss vs wall clock on 1K nodes ===\n")
    ds = make_hep_dataset(1600, image_size=32, signal_fraction=0.5, seed=5)
    results = {}
    for n_groups in (1, 2, 4, 8):
        momentum = tune_momentum_for_groups(0.9, n_groups)
        t_iter = iteration_seconds(n_groups)
        trainer = HybridTrainer(
            lambda: build_hep_net(filters=16, rng=7),
            lambda params: Adam(params, lr=1e-3, beta1=momentum),
            hep_loss_fn, n_groups=n_groups,
            iteration_time_fn=lambda g, t=t_iter: t, seed=0)
        tracemalloc.start()
        res = trainer.run(ds.images, ds.labels,
                          group_batch=max(8, 128 // n_groups),
                          n_iterations=120 // n_groups)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        t_hit = res.time_to_loss(TARGET_LOSS, smooth=7)
        stats = staleness_stats(res.staleness)
        label = "sync" if n_groups == 1 else f"hybrid-{n_groups}"
        results[n_groups] = t_hit
        hit = f"{t_hit:8.2f} s" if t_hit is not None else "   (not reached)"
        print(f"{label:10s} iter {t_iter * 1e3:7.1f} ms  peak "
              f"{peak_mib:5.1f} MiB  momentum {momentum:.1f}  "
              f"time-to-loss<{TARGET_LOSS}: {hit}  [{stats}]")

    if results.get(1) and any(results.get(g) for g in (2, 4, 8)):
        best_g = min((g for g in (2, 4, 8) if results.get(g)),
                     key=lambda g: results[g])
        speedup = results[1] / results[best_g]
        print(f"\nbest hybrid ({best_g} groups) vs sync speedup: "
              f"{speedup:.2f}x   (paper: 1.66x)")


if __name__ == "__main__":
    main()
