"""Fig 8's protocol: time to a target loss on 1K nodes, sync vs 2/4/8 groups.

The paper's own decomposition: *statistical* efficiency comes from REAL
hybrid training (the groups take turns on one compute net over per-layer
parameter servers, co-simulated on a virtual clock) on synthetic HEP data;
*hardware* efficiency (seconds per iteration of each configuration) comes
from the calibrated 1024-node machine model. Every configuration gets the
same virtual wall-clock budget and the same per-update minibatch (paper
SVI-B1: "each compute group independently updates the model and is
assigned a complete batch"), so hybrid groups apply more same-quality
updates per second, at the price of staleness. Momentum is tuned per group
count (SVI-B4).

``benchmarks/test_fig8_time_to_train.py`` asserts on this protocol and
``examples/hybrid_time_to_train.py`` prints it, so both read one speedup.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.machine import cori
from repro.data.hep import HEPDataset, make_hep_dataset
from repro.distributed.hybrid import HybridTrainer, HybridTrainResult
from repro.models import build_hep_net
from repro.optim import Adam, tune_momentum_for_groups
from repro.sim.scaling import iteration
from repro.sim.workload import hep_workload
from repro.train.loop import hep_loss_fn

N_NODES = 1024
TARGET_LOSS = 0.25
#: virtual wall-clock budget every configuration gets (the paper's protocol:
#: fixed time window, loss-vs-wall-clock curves compared within it)
TIME_BUDGET = 9.0
#: per-update minibatch, identical for every configuration: hybrid groups
#: do NOT split the batch
GROUP_BATCH = 64
GROUP_COUNTS = (1, 2, 4, 8)


def dataset() -> HEPDataset:
    return make_hep_dataset(1200, image_size=32, signal_fraction=0.5, seed=5)


def iteration_seconds(n_groups: int) -> float:
    """One group's iteration time on the 1024-node machine model."""
    # Each group gets the complete batch spread over N_NODES/G nodes, so the
    # per-node batch is G: better single-node efficiency (paper SVI-B1).
    return iteration(hep_workload(), cori(seed=0), N_NODES, n_groups,
                     n_groups, n_ps=6, n_iterations=8, seed=0)[0]


def run_config(ds: HEPDataset, n_groups: int
               ) -> Tuple[HybridTrainResult, float, float]:
    """Train ``n_groups`` groups for the iterations the budget buys;
    returns ``(result, iteration seconds, momentum)``. The virtual-time
    schedule interleaves equal-speed groups round-robin (staleness ~ G-1),
    the same way on every run."""
    momentum = tune_momentum_for_groups(0.9, n_groups)
    t_iter = iteration_seconds(n_groups)
    trainer = HybridTrainer(
        lambda: build_hep_net(filters=16, rng=7),
        lambda params: Adam(params, lr=1e-3, beta1=momentum),
        hep_loss_fn, n_groups=n_groups,
        iteration_time_fn=lambda g, t=t_iter: t, seed=0)
    res = trainer.run(ds.images, ds.labels, group_batch=GROUP_BATCH,
                      n_iterations=min(90, max(8, round(TIME_BUDGET
                                                        / t_iter))))
    return res, t_iter, momentum


def time_to_target(res: HybridTrainResult) -> Optional[float]:
    """Virtual seconds until the smoothed merged loss reaches the target."""
    return res.time_to_loss(TARGET_LOSS, smooth=7)


def best_hybrid(times: Dict[int, Optional[float]]
                ) -> Optional[Tuple[int, float]]:
    """``(group count, speedup over sync)`` of the hybrid configuration
    that reaches the target first; None if sync or every hybrid never
    does."""
    hits = [g for g, t in times.items() if g > 1 and t is not None]
    if times.get(1) is None or not hits:
        return None
    best = min(hits, key=times.__getitem__)
    return best, times[1] / times[best]
