"""Asynchrony-begets-momentum: the theory behind the paper's momentum tuning.

Mitliagkas, Zhang, Hadjis & Re [31] show that an asynchronous system with
``G`` independent update streams behaves, in expectation, like a synchronous
system with an additional *implicit* momentum of roughly ``1 - 1/G`` (each
applied update "carries over" a geometric memory of stale gradients whose
expected staleness grows with the number of concurrent groups).

The paper (SVI-B4) tunes the *explicit* solver momentum on a grid
``{0.0, 0.4, 0.7}`` for hybrid runs "to account for the momentum contributed
by asynchrony", keeping 0.9 for the synchronous run. These helpers encode
that rule so the ablation benchmark can sweep it.
"""

from __future__ import annotations

from repro.utils.checks import require_count, require_real


def implicit_async_momentum(n_groups: int) -> float:
    """Expected implicit momentum contributed by ``n_groups`` async streams.

    One group is fully synchronous: no implicit momentum. The asymptotic
    model from [31] gives mu_implicit = 1 - 1/G.
    """
    return 1.0 - 1.0 / require_count("n_groups", n_groups)


def effective_momentum(explicit: float, n_groups: int) -> float:
    """Compose explicit solver momentum with asynchrony-implied momentum.

    Momentum composes like staleness-weighted geometric decay: the effective
    memory factor is ``1 - (1-mu_e)(1-mu_i)`` (both mechanisms multiply the
    fraction of history retained).
    """
    require_real("explicit", explicit, "[0, 1)")
    mu_i = implicit_async_momentum(n_groups)
    return 1.0 - (1.0 - explicit) * (1.0 - mu_i)


def tune_momentum_for_groups(target_effective: float, n_groups: int,
                             grid=(0.0, 0.4, 0.7, 0.9)) -> float:
    """Pick from ``grid`` the explicit momentum whose effective momentum is
    closest to ``target_effective`` given ``n_groups`` async groups.

    With the paper's target of 0.9 (the sync default): 1 group -> 0.9,
    2 groups -> 0.7..0.8, 4-8 groups -> 0.0-0.4; matching the grid the paper
    reports tuning over.
    """
    require_real("target_effective", target_effective, "[0, 1)")
    if not grid:
        raise ValueError("grid must be non-empty")
    best = None
    best_err = float("inf")
    for mu in sorted(grid):
        err = abs(effective_momentum(mu, n_groups) - target_effective)
        # Strict improvement required: ties keep the SMALLER momentum (the
        # conservative choice — over-momentum diverges, under-momentum is
        # merely slower).
        if err < best_err - 1e-9:
            best, best_err = mu, err
    assert best is not None
    return float(best)
