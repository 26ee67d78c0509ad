"""Deterministic RNG plumbing.

Every stochastic component in the library (data generators, jitter models,
weight initializers, failure injection) takes either a seed or a
``numpy.random.Generator``. These helpers normalize that and let a parent
seed deterministically fan out into independent child streams, which is what
keeps multi-worker runs reproducible regardless of execution interleaving.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.utils.checks import require_count

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, sequence or generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Spawn ``n`` independent generators from one parent seed.

    Used to give each simulated node / worker thread its own stream so that
    per-node jitter draws do not depend on scheduling order.
    """
    require_count("n", n, least=0)
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a child sequence from the generator's own bit stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
