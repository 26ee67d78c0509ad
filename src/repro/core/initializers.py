"""Weight initializers.

The paper's networks use ReLU activations throughout, for which the He/MSRA
initializer [34] is the appropriate default (and what Caffe's ``msra`` filler
implements). Xavier/Glorot is provided for the linear heads.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, as_rng

_UNDRAWN = ContextVar("undrawn", default=False)


@contextmanager
def undrawn():
    """Inside, initializers return untouched zero pages, not draws: for a
    net whose initial weights are never read — built only for its shapes,
    FLOPs and byte counts (``sim.workload``, the registry's publish spec),
    or about to be overwritten whole by a strict checkpoint load
    (``ModelRegistry.load``)."""
    token = _UNDRAWN.set(True)
    try:
        yield
    finally:
        _UNDRAWN.reset(token)


def he_normal(shape, fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """He et al. (2015) normal init: std = sqrt(2 / fan_in)."""
    require_count("fan_in", fan_in)
    if _UNDRAWN.get():
        return zeros(shape)
    rng = as_rng(rng)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def xavier_uniform(shape, fan_in: int, fan_out: int,
                   rng: SeedLike = None) -> np.ndarray:
    """Glorot & Bengio uniform init on [-limit, limit]."""
    require_count("fan_in", fan_in)
    require_count("fan_out", fan_out)
    if _UNDRAWN.get():
        return zeros(shape)
    rng = as_rng(rng)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)
