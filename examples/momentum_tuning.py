#!/usr/bin/env python
"""Momentum tuning for hybrid training, three ways (paper SVI-B4, SVIII-B).

The paper tunes explicit momentum by hand on a grid {0.0, 0.4, 0.7} per
group count, "to account for the momentum contributed by asynchrony" [31],
and points to principled tuners (YellowFin [48]) and search libraries
(Spearmint [49]) as the way forward. This example runs all three:

1. the closed-form asynchrony rule (implicit momentum = 1 - 1/G);
2. the YellowFin closed-loop tuner on a live training run;
3. GP/expected-improvement search over (lr, momentum) — the Spearmint
   stand-in — on a small real objective.

Run:  python examples/momentum_tuning.py
"""

import numpy as np

from repro.data.hep import make_hep_dataset
from repro.models import build_hep_net
from repro.optim import (
    SGD,
    YellowFin,
    effective_momentum,
    implicit_async_momentum,
    tune_momentum_for_groups,
)
from repro.train import bayes_search
from repro.train.loop import hep_loss_fn, step


def train_small(ds, opt_factory, n_iterations=50, seed=1):
    """Train the scaled-down HEP net; return the mean of the last losses."""
    net = build_hep_net(filters=8, rng=6)
    opt = opt_factory(net)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n_iterations):
        idx = rng.choice(len(ds.images), size=32, replace=False)
        losses.append(step(net, hep_loss_fn, ds.images[idx], ds.labels[idx]))
        opt.step()
    return float(np.mean(losses[-10:]))


def main() -> None:
    print("=== momentum tuning for hybrid training ===\n")

    print("[1/3] the asynchrony-begets-momentum rule [31]")
    print(f"      {'groups':>8s} {'implicit mu':>12s} "
          f"{'explicit pick':>14s} {'effective':>10s}")
    for g in (1, 2, 4, 8):
        mu_i = implicit_async_momentum(g)
        pick = tune_momentum_for_groups(0.9, g)
        eff = effective_momentum(pick, g)
        print(f"      {g:>8d} {mu_i:>12.3f} {pick:>14.1f} {eff:>10.3f}")
    print("      (the paper's grid {0.0, 0.4, 0.7} is exactly the set of "
          "picks above)\n")

    ds = make_hep_dataset(400, image_size=32, signal_fraction=0.5, seed=4)

    print("[2/3] YellowFin closed loop vs the hand grid (50 iterations)")
    for mu in (0.0, 0.4, 0.7):
        loss = train_small(
            ds, lambda n, m=mu: SGD(n.params(), lr=5e-2, momentum=m))
        print(f"      SGD grid point mu={mu:.1f}: final loss {loss:.3f}")
    loss = train_small(
        ds, lambda n: YellowFin(n.params(), lr=1e-2, lr_max=0.05))
    print(f"      YellowFin (no grid)    : final loss {loss:.3f}\n")

    print("[3/3] GP search over (lr, momentum) — 12 trials")
    space = {"lr": (5e-3, 2e-1, "log"), "momentum": (0.0, 0.9, "linear")}

    def objective(config):
        return train_small(
            ds, lambda n: SGD(n.params(), lr=config["lr"],
                              momentum=config["momentum"]),
            n_iterations=30)

    result = bayes_search(space, objective, n_trials=12, n_init=4, seed=0)
    best = result.best
    print(f"      best: lr={best.config['lr']:.3f} "
          f"momentum={best.config['momentum']:.2f} "
          f"-> loss {best.value:.3f}")
    print("      top 3 trials:")
    for t in result.top(3):
        print(f"        lr={t.config['lr']:.4f} "
              f"mu={t.config['momentum']:.2f} loss={t.value:.3f}")
    print("\nDone. The hybrid trainer composes with any of these: see "
          "examples/hybrid_time_to_train.py.")


if __name__ == "__main__":
    main()
