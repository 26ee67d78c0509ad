"""Sharded on-disk dataset store + dataset-volume accounting (Table I).

The paper's datasets live in HDF5 shards on Lustre; here a
:class:`ShardedStore` writes/reads ``.npz`` shards with the same access
pattern (sequential shard reads by the input pipeline). The I/O *time* model
lives in :class:`repro.cluster.knl.IOModel`; this module supplies the byte
accounting, including the extrapolated paper-scale volumes for Table I.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import require_count


def dataset_volume_bytes(n_images: int, channels: int, height: int,
                         width: int, itemsize: int = 4) -> int:
    """Raw volume of an image dataset (Table I's 'Volume' column)."""
    dims = dict(n_images=n_images, channels=channels, height=height,
                width=width, itemsize=itemsize)
    return math.prod(require_count(k, v) for k, v in dims.items())


class ShardedStore:
    """Directory of fixed-size ``.npz`` shards holding image/label arrays."""

    def __init__(self, root: os.PathLike, shard_size: int = 1024) -> None:
        self.root = Path(root)
        self.shard_size = require_count("shard_size", shard_size)
        self.root.mkdir(parents=True, exist_ok=True)

    def _shard_path(self, index: int) -> Path:
        return self.root / f"shard_{index:05d}.npz"

    # -- writing ---------------------------------------------------------------
    def write(self, images: np.ndarray, labels: np.ndarray) -> int:
        """Write a dataset into shards; returns the number of shards."""
        if len(images) != len(labels):
            raise ValueError("images and labels must have equal length")
        if len(images) == 0:
            raise ValueError("cannot write an empty dataset")
        n_shards = -(-len(images) // self.shard_size)
        for s in range(n_shards):
            lo = s * self.shard_size
            hi = min(len(images), lo + self.shard_size)
            np.savez(self._shard_path(s), images=images[lo:hi],
                     labels=labels[lo:hi])
        return n_shards

    # -- reading -----------------------------------------------------------------
    def shard_paths(self) -> List[Path]:
        return sorted(self.root.glob("shard_*.npz"))

    def read_shard(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        path = self._shard_path(index)
        if not path.exists():
            raise FileNotFoundError(f"no shard {index} at {path}")
        with np.load(path) as data:
            return data["images"], data["labels"]

    def read_all(self) -> Tuple[np.ndarray, np.ndarray]:
        paths = self.shard_paths()
        if not paths:
            raise FileNotFoundError(f"no shards under {self.root}")
        images, labels = [], []
        for p in paths:
            with np.load(p) as data:
                images.append(data["images"])
                labels.append(data["labels"])
        return np.concatenate(images), np.concatenate(labels)

    def iter_batches(self, batch: int) -> Iterator[Tuple[np.ndarray,
                                                         np.ndarray]]:
        """Stream fixed-size batches across shard boundaries."""
        require_count("batch", batch)
        buf_x: List[np.ndarray] = []
        buf_y: List[np.ndarray] = []
        have = 0
        for p in self.shard_paths():
            with np.load(p) as data:
                buf_x.append(data["images"])
                buf_y.append(data["labels"])
                have += len(buf_x[-1])
            while have >= batch:
                x = np.concatenate(buf_x)
                y = np.concatenate(buf_y)
                yield x[:batch], y[:batch]
                buf_x, buf_y = [x[batch:]], [y[batch:]]
                have = len(buf_x[0])

    @property
    def nbytes(self) -> int:
        return sum(p.stat().st_size for p in self.shard_paths())
