"""Reference collective algorithms with step/byte accounting.

These operate on an explicit list of per-rank buffers (a "gods-eye" view), so
correctness of the *algorithm* (data movement schedule) can be tested without
threads, and the schedule's step/byte counts feed the alpha-beta time models
used for the at-scale simulation.

Algorithms implemented:

- ring all-reduce (reduce-scatter + all-gather), the bandwidth-optimal
  schedule MLSL/modern frameworks use for large payloads;
- Rabenseifner (recursive-halving reduce-scatter + recursive-doubling
  all-gather) for power-of-two groups;
- binomial-tree broadcast and reduce, latency-optimal for small payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.comm.communicator import shard_bounds
from repro.utils.checks import require_count


@dataclass
class CollectiveTrace:
    """Accounting of one collective execution."""

    algorithm: str
    n_ranks: int
    steps: int                 # sequential communication rounds
    bytes_per_rank: int        # bytes each rank sends over the whole schedule
    messages_per_rank: int     # messages each rank sends


def _check_same_shape(buffers: List[np.ndarray]) -> None:
    if not buffers:
        raise ValueError("need at least one buffer")
    shape = buffers[0].shape
    for i, b in enumerate(buffers):
        if b.shape != shape:
            raise ValueError(f"buffer {i} shape {b.shape} != {shape}")


def allreduce_ring(buffers: List[np.ndarray]
                   ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """Ring all-reduce (sum). Returns reduced buffers + trace.

    Each rank sends 2 * M * (p-1)/p bytes in 2(p-1) steps.
    """
    _check_same_shape(buffers)
    p = len(buffers)
    if p == 1:
        return [buffers[0].copy()], CollectiveTrace("ring", 1, 0, 0, 0)
    flats = [b.reshape(-1).astype(np.float64) for b in buffers]
    n = flats[0].size
    chunks = [slice(*shard_bounds(n, p, r)) for r in range(p)]
    work = [f.copy() for f in flats]
    # Phase 1: reduce-scatter. After p-1 steps, rank r owns the full sum of
    # chunk (r+1) mod p.
    for step in range(p - 1):
        transfers = []
        for r in range(p):
            send_chunk = (r - step) % p
            dst = (r + 1) % p
            transfers.append((r, dst, send_chunk,
                              work[r][chunks[send_chunk]].copy()))
        for _src, dst, c, payload in transfers:
            work[dst][chunks[c]] += payload
    # Phase 2: all-gather the reduced chunks around the ring.
    for step in range(p - 1):
        transfers = []
        for r in range(p):
            send_chunk = (r + 1 - step) % p
            dst = (r + 1) % p
            transfers.append((r, dst, send_chunk,
                              work[r][chunks[send_chunk]].copy()))
        for _src, dst, c, payload in transfers:
            work[dst][chunks[c]] = payload
    out = [w.reshape(buffers[0].shape).astype(buffers[0].dtype)
           for w in work]
    itemsize = buffers[0].itemsize
    bytes_per_rank = int(2 * (p - 1) / p * n * itemsize)
    trace = CollectiveTrace("ring", p, 2 * (p - 1), bytes_per_rank,
                            2 * (p - 1))
    return out, trace


def allreduce_rabenseifner(buffers: List[np.ndarray]
                           ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """Recursive halving/doubling all-reduce; requires power-of-two ranks."""
    _check_same_shape(buffers)
    p = len(buffers)
    if p & (p - 1):
        raise ValueError(f"rabenseifner requires power-of-two ranks, got {p}")
    if p == 1:
        return [buffers[0].copy()], CollectiveTrace("rabenseifner", 1, 0, 0, 0)
    flats = [b.reshape(-1).astype(np.float64).copy() for b in buffers]
    n = flats[0].size
    # Reduce-scatter by recursive halving. own[r] = (start, length) slice view
    own = [(0, n)] * p
    steps = 0
    dist = p // 2
    while dist >= 1:
        steps += 1
        new_flats = [f.copy() for f in flats]
        new_own = list(own)
        for r in range(p):
            partner = r ^ dist
            start, length = own[r]
            half = length // 2
            lo = (start, half)
            hi = (start + half, length - half)
            keep, give = (lo, hi) if r < partner else (hi, lo)
            ks, kl = keep
            new_flats[r][ks:ks + kl] = (flats[r][ks:ks + kl]
                                        + flats[partner][ks:ks + kl])
            new_own[r] = keep
        flats, own = new_flats, new_own
        dist //= 2
    # All-gather by recursive doubling.
    dist = 1
    while dist < p:
        steps += 1
        new_flats = [f.copy() for f in flats]
        new_own = list(own)
        for r in range(p):
            partner = r ^ dist
            ps, pl = own[partner]
            new_flats[r][ps:ps + pl] = flats[partner][ps:ps + pl]
            ms, ml = own[r]
            lo = min(ms, ps)
            new_own[r] = (lo, ml + pl)
        flats, own = new_flats, new_own
        dist *= 2
    out = [f.reshape(buffers[0].shape).astype(buffers[0].dtype)
           for f in flats]
    itemsize = buffers[0].itemsize
    # Each rank sends ~2 * M * (p-1)/p bytes total but in only 2 log2(p) steps.
    bytes_per_rank = int(2 * (p - 1) / p * n * itemsize)
    trace = CollectiveTrace("rabenseifner", p, steps, bytes_per_rank, steps)
    return out, trace


def allgather_ring(buffers: List[np.ndarray]
                   ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """Ring all-gather: every rank ends with the concatenation of all inputs."""
    _check_same_shape(buffers)
    p = len(buffers)
    gathered = np.stack(buffers)
    out = [gathered.copy() for _ in range(p)]
    itemsize = buffers[0].itemsize
    n = buffers[0].size
    trace = CollectiveTrace("allgather_ring", p, max(0, p - 1),
                            int((p - 1) * n * itemsize), max(0, p - 1))
    return out, trace


def bcast_binomial(buffers: List[np.ndarray], root: int = 0
                   ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """Binomial-tree broadcast: ceil(log2 p) steps."""
    _check_same_shape(buffers)
    p = len(buffers)
    if require_count("root", root, least=0) >= p:
        raise ValueError(f"root {root} out of range")
    steps = 0
    virtual_have = {0}  # virtual rank 0 == root
    while len(virtual_have) < p:
        steps += 1
        new = set()
        # classic binomial: at step k, each holder v sends to v + 2^(k-1)
        span = 1 << (steps - 1)
        for v in list(virtual_have):
            target = v + span
            if target < p:
                new.add(target)
        virtual_have |= new
    out = [buffers[root].copy() for _ in range(p)]
    itemsize = buffers[0].itemsize
    trace = CollectiveTrace("bcast_binomial", p, steps,
                            int(buffers[0].size * itemsize), steps)
    return out, trace


def reduce_binomial(buffers: List[np.ndarray], root: int = 0
                    ) -> Tuple[np.ndarray, CollectiveTrace]:
    """Binomial-tree reduce (sum) to ``root``: ceil(log2 p) steps."""
    _check_same_shape(buffers)
    p = len(buffers)
    if require_count("root", root, least=0) >= p:
        raise ValueError(f"root {root} out of range")
    acc = np.zeros_like(buffers[0], dtype=np.float64)
    for b in buffers:
        acc += b
    steps = int(np.ceil(np.log2(p))) if p > 1 else 0
    itemsize = buffers[0].itemsize
    trace = CollectiveTrace("reduce_binomial", p, steps,
                            int(buffers[0].size * itemsize), steps)
    return acc.astype(buffers[0].dtype), trace


def reduce_scatter_ring(buffers: List[np.ndarray]
                        ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """Ring reduce-scatter (sum): rank r ends with chunk r of the full sum.

    This is phase 1 of the ring all-reduce on its own — the building block
    MLSL exposes for fused gradient-reduction + sharded-solver schemes.
    Chunks partition the flattened buffer as :func:`shard_bounds` cuts it,
    the chunks the thread communicator's ``Reduce_scatter`` hands out.
    """
    _check_same_shape(buffers)
    p, n = len(buffers), buffers[0].size
    flat_sum = np.zeros(n, dtype=np.float64)
    for b in buffers:
        flat_sum += b.reshape(-1)
    out = [flat_sum[slice(*shard_bounds(n, p, r))].astype(buffers[0].dtype)
           for r in range(p)]
    itemsize = buffers[0].itemsize
    bytes_per_rank = int((p - 1) / p * n * itemsize) if p > 1 else 0
    trace = CollectiveTrace("reduce_scatter_ring", p, max(0, p - 1),
                            bytes_per_rank, max(0, p - 1))
    return out, trace


def alltoall(buffers: List[np.ndarray]
             ) -> Tuple[List[np.ndarray], CollectiveTrace]:
    """All-to-all: rank r sends row i of its buffer to rank i.

    Input per rank: ``(p, ...)`` — row i destined for rank i. Output per
    rank: ``(p, ...)`` — row j received from rank j. The transpose pattern
    behind model-parallel activation redistribution.
    """
    _check_same_shape(buffers)
    p = len(buffers)
    for i, b in enumerate(buffers):
        if b.shape[0] != p:
            raise ValueError(
                f"buffer {i} first dim {b.shape[0]} != world size {p}")
    out = [np.stack([buffers[src][dst] for src in range(p)])
           for dst in range(p)]
    itemsize = buffers[0].itemsize
    row = buffers[0][0].size
    trace = CollectiveTrace("alltoall", p, max(0, p - 1),
                            int((p - 1) * row * itemsize), max(0, p - 1))
    return out, trace
