"""Extreme-value sampling helpers for straggler/jitter models.

A synchronous step over ``p`` nodes waits for the slowest one; with per-node
noise the expected slowdown grows like the expected maximum of ``p`` draws.
For standard normals that maximum concentrates around ``sqrt(2 ln p)`` with
Gumbel-distributed fluctuations — we sample that directly instead of drawing
``p`` values per synchronization point, which keeps full-machine sweeps cheap.
"""

from __future__ import annotations

import numpy as np

from repro.utils.checks import require_count


def expected_max_std_normal(p: int) -> float:
    """E[max of p standard normals], Gumbel approximation (exact-ish, p>=2)."""
    require_count("p", p)
    if p == 1:
        return 0.0
    a = np.sqrt(2.0 * np.log(p))
    # Standard extreme-value centering with Euler-Mascheroni correction.
    b = a - (np.log(np.log(p)) + np.log(4 * np.pi)) / (2 * a)
    return float(b + np.euler_gamma / a)


def sample_max_std_normal(p: int, rng: np.random.Generator) -> float:
    """One draw of max(p standard normals) via the Gumbel limit."""
    require_count("p", p)
    if p == 1:
        return float(rng.normal())
    if p <= 64:
        return float(rng.normal(size=p).max())
    a = np.sqrt(2.0 * np.log(p))
    b = a - (np.log(np.log(p)) + np.log(4 * np.pi)) / (2 * a)
    g = float(rng.gumbel())
    return b + g / a
