"""Thread-backed communicator with mpi4py idioms.

``ThreadWorld(n)`` builds ``n`` rank-endpoints sharing a barrier, argument
slots and message queues. Buffer-style (capitalized) methods operate
in-place on NumPy arrays, exactly like mpi4py's ``Comm.Allreduce`` /
``Comm.Bcast``; ``Split`` creates sub-communicators the way the hybrid
trainer carves compute groups out of the world (paper SIII-E).

A collective posts every rank's arguments and crosses a barrier; then every
rank checks all of them and, on a mismatch, raises the same ``ValueError``,
so no rank is left waiting for one that gave up. ``Allreduce``, ``Reduce``
and ``Reduce_scatter`` share one reduction: each rank reduces its own
:func:`shard_bounds` chunk of every rank's buffer, in rank order, so no rank
reduces for the others. ``Allreduce`` is that reduce-scatter plus an
all-gather of the chunks, the schedule
:func:`repro.comm.collectives.allreduce_ring` models step by step. Every
collective, ``Split`` included, crosses two barriers.

This is an *execution* substrate (correct data movement between worker
threads); the *time* a collective would take on Cori's Aries network comes
from :mod:`repro.comm.cost_model`.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.checks import require_count

# Reduction ops, mpi4py-style module constants.
SUM = "sum"
MAX = "max"
MIN = "min"
PROD = "prod"

_OP_FUNCS = {SUM: np.add, MAX: np.maximum, MIN: np.minimum, PROD: np.multiply}


def shard_bounds(total: int, p: int, rank: int) -> Tuple[int, int]:
    """[lo, hi) of ``rank``'s contiguous chunk of ``total`` elements split
    over ``p`` ranks (``np.array_split`` semantics: the first ``total % p``
    chunks are one longer). The one split rule: collective chunks, solver
    shards and image strips all use it."""
    base, extra = divmod(total, p)
    lo = rank * base + min(rank, extra)
    return lo, lo + base + (1 if rank < extra else 0)


def _width(total: int, p: int, rank: int) -> int:
    lo, hi = shard_bounds(total, p, rank)
    return hi - lo


def _disagreement(posted: List[tuple], shapes) -> Optional[str]:
    """What the ranks' posted ``(sendbuf, recvbuf, op, root)`` disagree on,
    in words built from the posted values alone (so every rank's are the
    same), or None. Every rank must pass rank 0's op and root, and the
    dtype of the reference rank's (root's, else rank 0's) ``sendbuf``;
    ``shapes(reference sendbuf, reference recvbuf)`` lists each rank's
    ``(sendbuf, recvbuf)`` shape (an int: a size; None: not read)."""
    _, _, op, root = posted[0]
    for r, (_, _, r_op, r_root) in enumerate(posted):
        if (r_op, r_root) != (op, root):
            return (f"rank {r} passed op={r_op!r}, root={r_root!r}; "
                    f"rank 0 passed op={op!r}, root={root!r}")
    if op is not None and op not in _OP_FUNCS:
        return f"unknown op {op!r}"
    if root is not None and not 0 <= root < len(posted):
        return f"root {root} out of range"
    ref, ref_recv, _, _ = posted[root or 0]
    for r, ((send, recv, _, _), wants) in enumerate(
            zip(posted, shapes(ref, ref_recv))):
        for name, buf, want in zip(("sendbuf", "recvbuf"), (send, recv),
                                   wants):
            if want is None:
                continue
            if buf is None:
                return f"rank {r} passed no {name}"
            got = buf.shape if isinstance(want, tuple) else buf.size
            if got != want or buf.dtype != ref.dtype:
                return (f"rank {r}'s {name} is {buf.dtype} {got}, expected "
                        f"{ref.dtype} {want}")
    return None


class _Group:
    """Shared state for one communicator group (world or split color)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.barrier = threading.Barrier(size)
        # each rank's arguments to the collective in progress
        self.slots: List[Optional[tuple]] = [None] * size
        self.result: Optional[np.ndarray] = None  # the shared reduction
        self.split: Dict[int, "Communicator"] = {}  # old rank -> new comm
        # (src, dst, tag) -> queue of messages
        self.mailboxes: Dict[Tuple[int, int, int], "queue.Queue"] = {}
        self.mbox_lock = threading.Lock()

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
    def _exchange(self, sendbuf, recvbuf, op, root, shapes) -> List[tuple]:
        """Post this rank's arguments, wait for every rank's (barrier 1)
        and return them all if they agree (:func:`_disagreement`). If not,
        every rank crosses barrier 2, so none posts its next collective's
        arguments over ones another is still checking, and raises."""
        g = self._group
        g.slots[self._rank] = (sendbuf, recvbuf, op, root)
        g.barrier.wait()
        posted = list(g.slots)
        problem = _disagreement(posted, shapes)
        if problem:
            g.barrier.wait()
            raise ValueError(problem)
        return posted

    def _reduce(self, sendbuf, recvbuf, op, root, recv_shape) -> np.ndarray:
        """The one reduction body: this rank reduces its own
        :func:`shard_bounds` chunk of every rank's flattened ``sendbuf``,
        in rank order 0..p-1, into the shared flat result it returns. Each
        element sees the order one rank reducing everything would use, so
        the result is bit-identical to it. ``recv_shape(sendbuf, r)`` is
        rank ``r``'s ``recvbuf`` shape (None: not read). All chunks are
        final on return (barrier 2), and the caller copies its part out."""
        g = self._group
        if self._rank == 0:
            g.result = np.empty(sendbuf.size, sendbuf.dtype)
        posted = self._exchange(
            sendbuf, recvbuf, op, root,
            lambda ref, _: [(ref.shape, recv_shape(ref, r))
                            for r in range(g.size)])
        out = g.result  # rank 0 rebinds it only after every rank is past here
        lo, hi = shard_bounds(out.size, g.size, self._rank)
        chunk, fn = out[lo:hi], _OP_FUNCS[op]
        chunk[...] = posted[0][0].reshape(-1)[lo:hi]
        for send, *_ in posted[1:]:
            fn(chunk, send.reshape(-1)[lo:hi], out=chunk)
        g.barrier.wait()  # no rank changes a sendbuf another still reads
        return out

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: str = SUM) -> None:
        """Every ``recvbuf`` (which may be the ``sendbuf``) gets the
        reduction of every rank's same-shaped ``sendbuf``: the
        reduce-scatter of :meth:`_reduce`, then an all-gather of the chunks
        from the shared result (2 barriers)."""
        out = self._reduce(sendbuf, recvbuf, op, None,
                           lambda ref, r: ref.shape)
        recvbuf[...] = out.reshape(recvbuf.shape)

    def Reduce(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               op: str = SUM, root: int = 0) -> None:
        """``root``'s ``recvbuf`` gets the reduction; no other rank's is
        read (2 barriers)."""
        out = self._reduce(sendbuf, recvbuf, op, root,
                           lambda ref, r: ref.shape if r == root else None)
        if self._rank == root:
            recvbuf[...] = out.reshape(recvbuf.shape)

    def Reduce_scatter(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                       op: str = SUM) -> None:
        """Rank r's 1-D ``recvbuf`` gets chunk r (:func:`shard_bounds`) of
        the flattened reduction (2 barriers)."""
        out = self._reduce(sendbuf, recvbuf, op, None,
                           lambda ref, r: (_width(ref.size, self.size, r),))
        lo, hi = shard_bounds(out.size, self.size, self._rank)
        recvbuf[...] = out[lo:hi]

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Every ``buf`` gets ``root``'s (2 barriers)."""
        posted = self._exchange(buf, None, None, root,
                                lambda ref, _: [(ref.shape, None)] * self.size)
        if self._rank != root:
            buf[...] = posted[root][0]
        self._group.barrier.wait()

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """Rank r's ``sendbuf`` fills chunk r of every ``recvbuf`` as
        :func:`shard_bounds` cuts it: row r of a ``(size, *sendbuf.shape)``
        ``recvbuf``, or an uneven shard of a flat one (2 barriers)."""
        p = self.size
        posted = self._exchange(
            sendbuf, recvbuf, None, None,
            lambda _, recv: [(_width(np.size(recv), p, r), np.shape(recv))
                             for r in range(p)])
        recvbuf[...] = np.concatenate(
            [send.reshape(-1) for send, *_ in posted]).reshape(recvbuf.shape)
        self._group.barrier.wait()

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
        """Partition the group by ``color``; ranks ordered by ``key``, then
        by rank (2 barriers).

        The hybrid trainer uses this to carve disjoint compute groups and the
        PS group out of the world communicator (our MLSL extension analog).
        """
        g = self._group
        g.slots[self._rank] = (color, self._rank if key is None else key)
        g.barrier.wait()
        if self._rank == 0:  # every rank has read the last split by now
            by_color: Dict[int, List[Tuple[int, int]]] = {}
            for rank, (c, k) in enumerate(g.slots):
                by_color.setdefault(c, []).append((k, rank))
            g.split = {}
            for members in by_color.values():
                sub = _Group(len(members))
                for new_rank, (_, old_rank) in enumerate(sorted(members)):
                    g.split[old_rank] = Communicator(sub, new_rank)
        g.barrier.wait()
        return g.split[self._rank]


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
        size = require_count("size", size)
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
