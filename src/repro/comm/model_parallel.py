"""Model parallelism over the communicator (the MLSL road not taken).

Paper SIII-D: MLSL "enables different forms of parallelism — both data and
model parallelism — to be applied to different layers of the network ...
In this work, we deal with either fully convolutional networks or those
with very small fully connected layers, so we only use data parallelism
which is well suited for such layers."

This module implements the alternative so the choice can be measured:

- :class:`ColumnParallelDense` — output features sharded across ranks,
  input replicated; forward all-gathers the output shards, backward
  all-reduces the input gradient;
- :class:`RowParallelDense` — input features sharded; forward all-reduces
  the partial products, backward all-gathers the input-gradient shards;
- :func:`halo_exchange` + :class:`SpatialParallelConv2D` — spatial model
  parallelism for convolutions: ranks own horizontal strips of the image
  and exchange halo rows with their neighbours each pass;
- byte-accounting helpers the ablation benchmark uses to show why data
  parallelism wins for conv-heavy nets with small dense layers (activations
  outweigh weights) and where model parallelism would start to win
  (climate-scale dense heads).

All layers run inside worker threads over a :class:`ThreadWorld`, one layer
instance per rank, exactly like the data-parallel trainers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comm.communicator import Communicator, shard_bounds
from repro.core.initializers import xavier_uniform, zeros
from repro.core.module import Module
from repro.core.parameter import Parameter
from repro.nn.conv import Conv2D
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, as_rng


class _ShardedDense(Module):
    """What the two sharded dense layers share. Every rank draws the FULL
    weight matrix from the shared seed and keeps its ``shard`` of the
    features along ``axis`` (0: output, 1: input), so the shards stay
    consistent with the unsharded layer."""

    kind = "dense"

    def __init__(self, comm: Communicator, in_features: int,
                 out_features: int, axis: int, name: str,
                 rng: SeedLike) -> None:
        super().__init__(name=name)
        self.comm = comm
        self.in_features = require_count("in_features", in_features)
        self.out_features = require_count("out_features", out_features)
        split = (self.out_features, self.in_features)[axis]
        if split % comm.size:
            raise ValueError(f"{('out', 'in')[axis]}_features {split} not "
                             f"divisible by {comm.size} ranks")
        self.shard = split // comm.size
        full = xavier_uniform((self.out_features, self.in_features),
                              self.in_features, self.out_features,
                              as_rng(rng))
        lo = comm.rank * self.shard
        self.weight = Parameter(full.take(range(lo, lo + self.shard), axis),
                                name=f"weight_shard{comm.rank}")
        self._cache: Optional[np.ndarray] = None

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}), "
                f"got {x.shape}")

    def params(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        return (self.out_features,)


class ColumnParallelDense(_ShardedDense):
    """Dense layer with the *output* dimension sharded across ranks.

    Every rank sees the full input ``(N, in_features)`` and computes its
    ``out_features / p`` slice; the forward output is assembled with an
    all-gather. The backward input-gradient is the sum of per-rank
    contributions, hence an all-reduce.
    """

    def __init__(self, comm: Communicator, in_features: int,
                 out_features: int, name: Optional[str] = None,
                 rng: SeedLike = None) -> None:
        super().__init__(comm, in_features, out_features, 0,
                         name or "colparallel_fc", rng)
        self.bias = Parameter(zeros(self.shard),
                              name=f"bias_shard{comm.rank}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        self._cache = x
        local = x @ self.weight.data.T + self.bias.data     # (N, shard)
        gathered = np.empty((self.comm.size,) + local.shape,
                            dtype=np.float32)
        self.comm.Allgather(local.astype(np.float32), gathered)
        # (p, N, shard) -> (N, p * shard)
        return np.ascontiguousarray(
            gathered.transpose(1, 0, 2).reshape(x.shape[0],
                                                self.out_features))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x = self._cache
        lo = self.comm.rank * self.shard
        g_local = grad_out[:, lo:lo + self.shard]
        self.weight.grad += g_local.T @ x
        self.bias.grad += g_local.sum(axis=0)
        partial = (g_local @ self.weight.data).astype(np.float32)
        self.comm.Allreduce(partial, partial)
        return partial

    def comm_bytes_per_iteration(self, batch: int) -> int:
        """Activation bytes each rank moves per iteration (fwd + bwd)."""
        return int(model_parallel_activation_bytes(
            batch, self.in_features, self.out_features, self.comm.size))


class RowParallelDense(_ShardedDense):
    """Dense layer with the *input* dimension sharded across ranks.

    Every rank multiplies its slice of the input features by its weight
    shard; the partial products are summed with an all-reduce (this is the
    natural successor layer to a :class:`ColumnParallelDense`). Input is
    taken replicated for interface symmetry; each rank reads its column
    slice.
    """

    def __init__(self, comm: Communicator, in_features: int,
                 out_features: int, name: Optional[str] = None,
                 rng: SeedLike = None) -> None:
        super().__init__(comm, in_features, out_features, 1,
                         name or "rowparallel_fc", rng)
        # Bias lives on rank 0 only (added once, post-reduction).
        self.bias = Parameter(zeros(out_features),
                              name=f"bias_shard{comm.rank}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        lo = self.comm.rank * self.shard
        x_shard = x[:, lo:lo + self.shard]
        self._cache = x_shard
        total = (x_shard @ self.weight.data.T).astype(np.float32)
        self.comm.Allreduce(total, total)
        if self.comm.rank == 0:
            total += self.bias.data
        # Broadcast rank 0's biased copy so replicas agree bit-for-bit.
        self.comm.Bcast(total, root=0)
        return total

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x_shard = self._cache
        self.weight.grad += grad_out.T @ x_shard
        if self.comm.rank == 0:
            self.bias.grad += grad_out.sum(axis=0)
        dx_shard = (grad_out @ self.weight.data).astype(np.float32)
        gathered = np.empty((self.comm.size,) + dx_shard.shape,
                            dtype=np.float32)
        self.comm.Allgather(dx_shard, gathered)
        n = grad_out.shape[0]
        return np.ascontiguousarray(
            gathered.transpose(1, 0, 2).reshape(n, self.in_features))


def _swap_with_neighbours(comm: Communicator, up: np.ndarray,
                          down: np.ndarray, tag: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Send ``up`` to rank r-1 and ``down`` to rank r+1 (tags ``tag`` and
    ``tag + 1``); return ``(rank r-1's down, rank r+1's up)``, zeros past
    the first and last rank. Even ranks send first and odd ranks receive
    first, so the exchange cannot deadlock."""
    r, p = comm.rank, comm.size
    from_above, from_below = np.zeros_like(down), np.zeros_like(up)
    for phase in (0, 1):
        if r % 2 == phase:
            if r > 0:
                comm.Send(up, dest=r - 1, tag=tag)
            if r < p - 1:
                comm.Send(down, dest=r + 1, tag=tag + 1)
        else:
            if r < p - 1:
                comm.Recv(from_below, source=r + 1, tag=tag)
            if r > 0:
                comm.Recv(from_above, source=r - 1, tag=tag + 1)
    return from_above, from_below


def halo_exchange(comm: Communicator, strip: np.ndarray,
                  halo: int) -> np.ndarray:
    """Extend a ``(N, C, rows, W)`` strip with ``halo`` rows per neighbour.

    Boundary ranks get zero rows on their outer side (the global zero pad).
    """
    if halo < 0:
        raise ValueError(f"halo must be non-negative, got {halo}")
    rows = strip.shape[2]
    if halo == 0:
        return strip.copy()
    if rows < halo:
        raise ValueError(f"strip of {rows} rows cannot donate {halo} halo "
                         "rows")
    top, bottom = _swap_with_neighbours(
        comm, np.ascontiguousarray(strip[:, :, :halo]),
        np.ascontiguousarray(strip[:, :, -halo:]), tag=1)
    return np.concatenate([top, strip, bottom], axis=2)


class SpatialParallelConv2D:
    """Spatial model parallelism: ranks convolve horizontal image strips.

    Weights are replicated (every rank builds the identical
    :class:`~repro.nn.conv.Conv2D` from the shared seed); the *activations*
    are sharded by image rows. Each forward pass exchanges ``halo`` rows
    with the neighbouring ranks; each backward pass returns the halo
    gradient contributions the same way. Stride-1 convolutions only.

    Weight gradients must still be all-reduced across ranks afterwards (each
    rank only saw its strip) — :meth:`allreduce_weight_grads` does that.
    """

    def __init__(self, comm: Communicator, in_channels: int,
                 out_channels: int, kernel_size: int,
                 image_height: int, rng: SeedLike = None) -> None:
        if kernel_size % 2 == 0:
            raise ValueError("spatial parallelism needs odd kernels")
        self.comm = comm
        self.halo = (kernel_size - 1) // 2
        self.image_height = require_count("image_height", image_height)
        if self.image_height < comm.size:
            raise ValueError(f"cannot split {image_height} rows over "
                             f"{comm.size} ranks")
        self.lo, self.hi = shard_bounds(image_height, comm.size, comm.rank)
        # pad=0: the halo exchange plus manual edge padding supplies context.
        self.conv = Conv2D(in_channels, out_channels, kernel_size, stride=1,
                           pad=0, rng=as_rng(rng))

    def forward(self, strip: np.ndarray) -> np.ndarray:
        """``strip``: this rank's ``(N, C, hi-lo, W)`` rows. Returns the
        corresponding output rows (same row count: "same" conv)."""
        rows = self.hi - self.lo
        if strip.shape[2] != rows:
            raise ValueError(
                f"rank {self.comm.rank} expects {rows} rows, "
                f"got {strip.shape[2]}")
        h = self.halo
        extended = halo_exchange(self.comm, strip, h)
        # Horizontal "same" padding is local.
        extended = np.pad(extended, ((0, 0), (0, 0), (0, 0), (h, h)))
        self._ext_shape = extended.shape
        return self.conv.forward(extended)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Returns the gradient for this rank's strip, including the
        contributions that neighbouring ranks computed for our rows."""
        g_ext = self.conv.backward(grad_out)
        h = self.halo
        if h:
            g_ext = g_ext[:, :, :, h:-h]         # drop horizontal pad
        own = g_ext[:, :, h:-h] if h else g_ext
        own = own.copy()
        if h == 0:
            return own
        # The halo rows' gradients belong to the neighbours' strips.
        recv_top, recv_bottom = _swap_with_neighbours(
            self.comm, np.ascontiguousarray(g_ext[:, :, :h]),
            np.ascontiguousarray(g_ext[:, :, -h:]), tag=3)
        own[:, :, :h] += recv_top
        own[:, :, -h:] += recv_bottom
        return own

    def allreduce_weight_grads(self) -> None:
        """Sum weight gradients across ranks (each saw only its strip)."""
        for p in self.conv.params():
            self.comm.Allreduce(p.grad, p.grad)

    def halo_bytes_per_iteration(self, batch: int, width: int,
                                 channels: int) -> int:
        """Bytes exchanged with neighbours per iteration (fwd + bwd)."""
        neighbours = (self.comm.rank > 0) + (self.comm.rank
                                             < self.comm.size - 1)
        one_way = batch * channels * self.halo * width * 4
        return int(2 * neighbours * one_way)  # halo out + halo-grad back


def data_parallel_grad_bytes(param_bytes: int, p: int) -> float:
    """Per-rank bytes a ring all-reduce of the gradients moves."""
    if p <= 1:
        return 0.0
    return 2.0 * (p - 1) / p * param_bytes


def model_parallel_activation_bytes(batch: int, in_features: int,
                                    out_features: int, p: int) -> float:
    """Per-rank activation bytes a column-parallel dense layer moves: the
    forward all-gather receives (p-1)/p of the (N, out) activations, the
    backward ring all-reduce sends 2 (p-1)/p of the (N, in) gradient."""
    if p <= 1:
        return 0.0
    return ((p - 1) / p * batch * out_features * 4
            + 2.0 * (p - 1) / p * batch * in_features * 4)
