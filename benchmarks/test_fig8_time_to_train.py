"""Fig 8: training loss vs wall clock on 1K nodes, sync vs 2/4/8 groups.

Paper anchors: total batch fixed (1024); momentum tuned per group count on
{0.0, 0.4, 0.7} for hybrid vs 0.9 sync; best hybrid reaches the target loss
~1.66x faster than the best sync run; the worst sync run is many times
slower; lagging groups cause loss "jumps".

Method (the paper's own decomposition): *statistical* efficiency comes from
REAL hybrid training (per-group replicas + per-layer PSs, co-simulated
on a virtual clock) on synthetic HEP data;
*hardware* efficiency (seconds/iteration per configuration) comes from the
calibrated 1024-node machine model.
"""

import numpy as np
import pytest

from bench_report import report
from repro.cluster.machine import cori
from repro.data.hep import make_hep_dataset
from repro.distributed import HybridTrainer
from repro.models import build_hep_net
from repro.optim import Adam, tune_momentum_for_groups
from repro.sim.hybrid_sim import HybridSimConfig, simulate_hybrid
from repro.sim.sync_sim import SyncIterationModel
from repro.sim.workload import hep_workload
from repro.train.loop import hep_loss_fn

N_NODES = 1024
TARGET_LOSS = 0.25
#: virtual wall-clock budget every configuration gets (the paper's protocol:
#: fixed time window, loss-vs-wall-clock curves compared within it)
TIME_BUDGET = 9.0
#: per-update minibatch, identical for every configuration. Paper SVI-B1:
#: "each compute group independently updates the model and is assigned a
#: complete batch" — hybrid groups do NOT split the batch; they apply more
#: same-quality updates per unit wall-clock (at the price of staleness).
GROUP_BATCH = 64


def _iteration_seconds(n_groups: int) -> float:
    machine = cori(seed=0)
    wl = hep_workload()
    if n_groups == 1:
        return SyncIterationModel(wl, machine, N_NODES, 1,
                                  seed=0).expected_iteration_time()
    # Each group gets the complete batch spread over N_NODES/G nodes, so the
    # per-node batch is G: better single-node efficiency (paper SVI-B1).
    cfg = HybridSimConfig(workload=wl, machine=machine, n_workers=N_NODES,
                          n_groups=n_groups, n_ps=6, local_batch=n_groups,
                          n_iterations=8, seed=0)
    return simulate_hybrid(cfg).mean_iteration_time


def _run_config(ds, n_groups: int):
    momentum = tune_momentum_for_groups(0.9, n_groups)
    t_iter = _iteration_seconds(n_groups)
    n_iterations = min(90, max(8, int(round(TIME_BUDGET / t_iter))))
    trainer = HybridTrainer(
        lambda: build_hep_net(filters=16, rng=7),
        lambda params: Adam(params, lr=1e-3, beta1=momentum),
        hep_loss_fn,
        n_groups=n_groups,
        iteration_time_fn=lambda g, t=t_iter: t, seed=0)
    # The virtual-time schedule interleaves equal-speed groups round-robin
    # (staleness ~ G-1), the same way on every run.
    res = trainer.run(ds.images, ds.labels,
                      group_batch=GROUP_BATCH,
                      n_iterations=n_iterations)
    return res, t_iter, momentum


def test_fig8_time_to_train(benchmark):
    ds = make_hep_dataset(1200, image_size=32, signal_fraction=0.5, seed=5)

    def full_sweep():
        out = {}
        for g in (1, 2, 4, 8):
            out[g] = _run_config(ds, g)
        return out

    results = benchmark.pedantic(full_sweep, rounds=1, iterations=1)

    rows = []
    times_to_loss = {}
    for g, (res, t_iter, momentum) in results.items():
        t_hit = res.time_to_loss(TARGET_LOSS, smooth=7)
        times_to_loss[g] = t_hit
        label = "sync" if g == 1 else f"hybrid-{g}"
        rows.append((f"{label} (mu={momentum:.1f}, "
                     f"iter={t_iter * 1e3:.0f} ms)",
                     "reaches target", "yes" if t_hit else "no"))
    sync_t = times_to_loss[1]
    hybrid_ts = [t for g, t in times_to_loss.items()
                 if g > 1 and t is not None]
    assert sync_t is not None, "sync never reached the target loss"
    assert hybrid_ts, "no hybrid configuration reached the target loss"
    best_hybrid = min(hybrid_ts)
    speedup = sync_t / best_hybrid
    rows.append(("best hybrid vs sync time-to-loss", "1.66x",
                 f"{speedup:.2f}x"))
    report("Fig 8: time to solution on 1K nodes", rows)
    # The reproduced claim: hybrid reaches the target loss faster.
    assert speedup > 1.1
    # Staleness grows with group count (asynchrony at work).
    st2 = results[2][0].staleness.mean()
    st8 = results[8][0].staleness.mean()
    assert st8 > st2


def test_fig8_lagging_group_jumps(benchmark):
    """SVIII-A: 'if model updates from one of the compute groups lags
    significantly behind others, it can result in jumps in the overall
    loss' — a degraded group injects visibly stale updates."""
    ds = make_hep_dataset(400, image_size=32, signal_fraction=0.5, seed=6)

    def run():
        trainer = HybridTrainer(
            lambda: build_hep_net(filters=8, rng=3),
            lambda params: Adam(params, lr=2e-3),
            hep_loss_fn,
            n_groups=3, iteration_time_fn=lambda g: 1.0, seed=2)
        return trainer.run(ds.images, ds.labels, group_batch=16,
                           n_iterations=12, drift=[1.0, 1.0, 6.0])

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    lagging = res.traces[2]
    healthy = res.traces[0]
    report("Fig 8 inset: lagging compute group", [
        ("healthy group finishes 12 iters at", "t=12",
         f"t={healthy.times[-1]:.0f}"),
        ("lagging group pace", "6x slower",
         f"{lagging.times[-1] / healthy.times[-1]:.1f}x"),
        ("max staleness (lagging updates)", "elevated",
         f"{int(res.staleness.max())}"),
    ])
    # The lagging group's updates are much staler than the average.
    assert res.staleness.max() >= 4
