"""Thread-backed communicator with mpi4py idioms.

``ThreadWorld(n)`` builds ``n`` rank-endpoints sharing barriers, reduction
slots and message queues. Buffer-style (capitalized) methods operate in-place
on NumPy arrays, exactly like mpi4py's ``Comm.Allreduce``/``Comm.Bcast``;
``Split`` creates sub-communicators the way the hybrid trainer carves compute
groups out of the world (paper SIII-E).

This is an *execution* substrate (correct data movement between worker
threads); the *time* a collective would take on Cori's Aries network comes
from :mod:`repro.comm.cost_model`.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Reduction ops, mpi4py-style module constants.
SUM = "sum"
MAX = "max"
MIN = "min"
PROD = "prod"

_OP_FUNCS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    SUM: lambda a, b: a + b,
    MAX: np.maximum,
    MIN: np.minimum,
    PROD: lambda a, b: a * b,
}


class _Group:
    """Shared state for one communicator group (world or split color)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.barrier = threading.Barrier(size)
        self.slots: List[Optional[np.ndarray]] = [None] * size
        self.result: Optional[np.ndarray] = None
        self.lock = threading.Lock()
        # (src, dst, tag) -> queue of messages
        self.mailboxes: Dict[Tuple[int, int, int], "queue.Queue"] = {}
        self.mbox_lock = threading.Lock()
        # split coordination: rank -> (color, key)
        self.split_args: Dict[int, Tuple[int, int]] = {}
        self.split_result: Dict[int, "Communicator"] = {}

    def mailbox(self, src: int, dst: int, tag: int) -> "queue.Queue":
        key = (src, dst, tag)
        with self.mbox_lock:
            if key not in self.mailboxes:
                self.mailboxes[key] = queue.Queue()
            return self.mailboxes[key]


class Communicator:
    """One rank's endpoint into a group. mpi4py-style surface."""

    def __init__(self, group: _Group, rank: int) -> None:
        self._group = group
        self._rank = rank

    # -- introspection ------------------------------------------------------
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._group.size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._group.size

    # -- synchronization ----------------------------------------------------
    def Barrier(self) -> None:
        self._group.barrier.wait()

    def Abort(self) -> None:
        """Break the group: every rank waiting in, or later entering, one
        of its collectives raises ``threading.BrokenBarrierError`` instead
        of waiting for a rank that will never arrive. As with MPI's, the
        group is not usable afterwards."""
        self._group.barrier.abort()

    # -- collectives --------------------------------------------------------
    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: str = SUM) -> None:
        """All ranks contribute ``sendbuf``; every ``recvbuf`` gets the
        reduction. Buffers must be same-shaped arrays."""
        if op not in _OP_FUNCS:
            raise ValueError(f"unknown op {op!r}")
        if sendbuf.shape != recvbuf.shape:
            raise ValueError(
                f"sendbuf {sendbuf.shape} != recvbuf {recvbuf.shape}")
        g = self._group
        g.slots[self._rank] = sendbuf
        g.barrier.wait()
        if self._rank == 0:
            acc = g.slots[0].copy()
            fn = _OP_FUNCS[op]
            for other in g.slots[1:]:
                acc = fn(acc, other)
            g.result = acc
        g.barrier.wait()
        recvbuf[...] = g.result
        g.barrier.wait()  # keep g.result alive until all ranks copied

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        g = self._group
        if not 0 <= root < g.size:
            raise ValueError(f"root {root} out of range")
        if self._rank == root:
            g.result = buf
        g.barrier.wait()
        if self._rank != root:
            buf[...] = g.result
        g.barrier.wait()

    def Reduce(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               op: str = SUM, root: int = 0) -> None:
        g = self._group
        if not 0 <= root < g.size:
            raise ValueError(f"root {root} out of range")
        if op not in _OP_FUNCS:
            raise ValueError(f"unknown op {op!r}")
        g.slots[self._rank] = sendbuf
        g.barrier.wait()
        if self._rank == root:
            if recvbuf is None:
                raise ValueError("root must supply recvbuf")
            acc = g.slots[0].copy()
            fn = _OP_FUNCS[op]
            for other in g.slots[1:]:
                acc = fn(acc, other)
            recvbuf[...] = acc
        g.barrier.wait()

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """``recvbuf`` is (size, *sendbuf.shape)."""
        g = self._group
        expected = (g.size,) + sendbuf.shape
        if recvbuf.shape != expected:
            raise ValueError(f"recvbuf {recvbuf.shape} != {expected}")
        g.slots[self._rank] = sendbuf
        g.barrier.wait()
        for i in range(g.size):
            recvbuf[i] = g.slots[i]
        g.barrier.wait()

    # -- point to point -----------------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self._group.size:
            raise ValueError(f"dest {dest} out of range")
        self._group.mailbox(self._rank, dest, tag).put(buf.copy())

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0,
             timeout: Optional[float] = None) -> None:
        if not 0 <= source < self._group.size:
            raise ValueError(f"source {source} out of range")
        msg = self._group.mailbox(source, self._rank, tag).get(timeout=timeout)
        if msg.shape != buf.shape:
            raise ValueError(
                f"received shape {msg.shape}, buffer is {buf.shape}")
        buf[...] = msg

    # -- object (pickle-free, any python value) variants --------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._group.mailbox(self._rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0,
             timeout: Optional[float] = None):
        return self._group.mailbox(source, self._rank, tag).get(
            timeout=timeout)

    # -- splitting ----------------------------------------------------------
    def Split(self, color: int, key: Optional[int] = None) -> "Communicator":
        """Partition the group by ``color``; ranks ordered by ``key``.

        The hybrid trainer uses this to carve disjoint compute groups and the
        PS group out of the world communicator (our MLSL extension analog).
        """
        g = self._group
        my_key = self._rank if key is None else key
        with g.lock:
            g.split_args[self._rank] = (color, my_key)
        g.barrier.wait()
        if self._rank == 0:
            by_color: Dict[int, List[Tuple[int, int]]] = {}
            for rank, (c, k) in g.split_args.items():
                by_color.setdefault(c, []).append((k, rank))
            for c, members in by_color.items():
                members.sort()
                sub = _Group(len(members))
                for new_rank, (_k, old_rank) in enumerate(members):
                    g.split_result[old_rank] = Communicator(sub, new_rank)
        g.barrier.wait()
        result = g.split_result[self._rank]
        g.barrier.wait()
        if self._rank == 0:
            g.split_args.clear()
            g.split_result.clear()
        return result


class ThreadWorld:
    """Factory for a world of ``n`` thread-rank communicators.

    Typical use::

        world = ThreadWorld(8)
        def worker(rank):
            comm = world.comm(rank)
            ...
        threads = [threading.Thread(target=worker, args=(r,)) for r in range(8)]
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"world size must be positive, got {size}")
        self._group = _Group(size)
        self._comms = [Communicator(self._group, r) for r in range(size)]

    @property
    def size(self) -> int:
        return self._group.size

    def comm(self, rank: int) -> Communicator:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return self._comms[rank]

    def communicators(self) -> List[Communicator]:
        return list(self._comms)
