"""Model checkpointing.

The paper's sustained-rate measurement includes "the overhead of storing a
model snapshot to disk once in 10 iterations" (SVI-B3) — the *time* model
for that lives in :func:`repro.sim.headline.checkpoint_time`; here is the
actual save/load used by the real trainers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.sequential import Sequential


def save_checkpoint(net, path: Union[str, os.PathLike]) -> int:
    """Save a model's full state (parameters + buffers); returns bytes
    written. The keys are ``state_dict``'s (on every
    :class:`repro.core.module.Module`), which include the non-trainable
    buffers — BatchNorm running statistics would otherwise be silently lost
    across a restore.

    The live arrays are written, not a copy of them, to a temporary name
    beside ``path`` that is renamed into place once complete: a reader (or
    a crash) sees the whole checkpoint or none of it."""
    path = Path(path)
    if path.suffix != ".npz":       # as np.savez names it
        path = path.with_suffix(path.suffix + ".npz")
    state = dict(net._state_items())
    if not state:
        raise ValueError("model has no parameters to checkpoint")
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "wb") as f:
            np.savez(f, **state)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path.stat().st_size


def load_checkpoint(net, path: Union[str, os.PathLike]) -> None:
    """Load a checkpoint saved by :func:`save_checkpoint` (strict match).
    The open archive is the state mapping, so arrays are read one at a
    time as the strict loader copies them in."""
    path = Path(path)
    if path.suffix != ".npz" and not path.exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        net.load_state_dict(data)
