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

The protocol (:mod:`repro.sim.time_to_train`) is the one
``examples/hybrid_time_to_train.py`` prints.
"""

from bench_report import report
from repro.data.hep import make_hep_dataset
from repro.distributed import HybridTrainer
from repro.models import build_hep_net
from repro.optim import Adam
from repro.sim import time_to_train as fig8
from repro.train.loop import hep_loss_fn


def test_fig8_time_to_train(benchmark):
    ds = fig8.dataset()

    def full_sweep():
        return {g: fig8.run_config(ds, g) for g in fig8.GROUP_COUNTS}

    results = benchmark.pedantic(full_sweep, rounds=1, iterations=1)

    rows = []
    times_to_loss = {}
    for g, (res, t_iter, momentum) in results.items():
        t_hit = fig8.time_to_target(res)
        times_to_loss[g] = t_hit
        label = "sync" if g == 1 else f"hybrid-{g}"
        rows.append((f"{label} (mu={momentum:.1f}, "
                     f"iter={t_iter * 1e3:.0f} ms)",
                     "reaches target", "yes" if t_hit else "no"))
    assert times_to_loss[1] is not None, "sync never reached the target loss"
    best = fig8.best_hybrid(times_to_loss)
    assert best, "no hybrid configuration reached the target loss"
    speedup = best[1]
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
