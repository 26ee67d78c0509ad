#!/usr/bin/env python
"""Hybrid vs synchronous time-to-solution (the paper's Fig 8).

Runs *real* training (the groups take turns on one compute net, each with
its own replica state, over per-layer parameter servers) of the HEP
classifier at 1, 2, 4 and 8 groups, maps each configuration's iteration
duration through the calibrated 1024-node machine model, and reports the
wall-clock speedup of the best hybrid configuration to a target loss — the
paper found 1.66x for 8 groups over sync. The protocol (same per-update
batch and virtual time budget for every configuration, momentum tuned per
group count, paper SVI-B1/B4) is :mod:`repro.sim.time_to_train`, the one
``benchmarks/test_fig8_time_to_train.py`` asserts on, so this prints the
speedup the benchmark checks. Each row also prints the run's traced peak
(tracemalloc, MiB): the groups share one compute net's activations, so it
follows the group batch, not the group count.

Run:  python examples/hybrid_time_to_train.py
"""

import tracemalloc

from repro.distributed import staleness_stats
from repro.sim import time_to_train as fig8


def main() -> None:
    print("=== Fig 8: training loss vs wall clock on 1K nodes ===\n")
    ds = fig8.dataset()
    times = {}
    for n_groups in fig8.GROUP_COUNTS:
        tracemalloc.start()
        res, t_iter, momentum = fig8.run_config(ds, n_groups)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        times[n_groups] = t_hit = fig8.time_to_target(res)
        label = "sync" if n_groups == 1 else f"hybrid-{n_groups}"
        hit = f"{t_hit:8.2f} s" if t_hit is not None else "   (not reached)"
        print(f"{label:10s} iter {t_iter * 1e3:7.1f} ms  peak "
              f"{peak_mib:5.1f} MiB  momentum {momentum:.1f}  "
              f"time-to-loss<{fig8.TARGET_LOSS}: {hit}  "
              f"[{staleness_stats(res.staleness)}]")

    best = fig8.best_hybrid(times)
    if best:
        print(f"\nbest hybrid ({best[0]} groups) vs sync speedup: "
              f"{best[1]:.2f}x   (paper: 1.66x)")


if __name__ == "__main__":
    main()
