"""The thread communicator's collectives against two references.

Every threaded reduction must equal a rank-order ``functools.reduce`` of
the ranks' buffers exactly (the order the ranks are numbered in, element
for element), and agree with the gods-eye schedules of
:mod:`repro.comm.collectives` to float tolerance, which makes that module
the oracle of the threaded one. Ranks that disagree on a collective's
arguments must all raise the same error, and none may be left waiting.
"""

import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    MAX,
    MIN,
    PROD,
    SUM,
    ThreadWorld,
    allgather_ring,
    allreduce_ring,
    reduce_scatter_ring,
    shard_bounds,
)

OPS = {SUM: np.add, MAX: np.maximum, MIN: np.minimum, PROD: np.multiply}


@st.composite
def cases(draw):
    """``(ranks' buffers, op)``: 1-7 ranks, sizes below, at and above the
    rank count and not divisible by it, float32 or float64."""
    p = draw(st.integers(1, 7))
    n = draw(st.integers(1, 17))
    shape = draw(st.sampled_from([(n,), (n, 2), (2, n)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bufs = [rng.uniform(-2.0, 2.0, size=shape).astype(dtype)
            for _ in range(p)]
    return bufs, draw(st.sampled_from(sorted(OPS)))


def outcomes(p, fn):
    """``fn(comm)``'s result or raised exception on every rank, each on its
    own thread; a rank still blocked after the timeout fails the test."""
    world = ThreadWorld(p)
    results = [None] * p

    def wrap(r):
        try:
            results[r] = fn(world.comm(r))
        except Exception as exc:  # noqa: BLE001 - returned
            results[r] = exc

    threads = [threading.Thread(target=wrap, args=(r,), daemon=True)
               for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "a rank is blocked"
    return results


def run_ranks(p, fn):
    """``[fn(comm) for every rank]``; re-raise the first rank's error."""
    results = outcomes(p, fn)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def close(a, b):
    tol = 1e-5 if a.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


@settings(max_examples=40, deadline=None)
@given(case=cases(), in_place=st.booleans())
def test_allreduce(case, in_place):
    bufs, op = case
    expected = functools.reduce(OPS[op], bufs)

    def fn(comm):
        send = bufs[comm.rank]
        recv = send.copy() if in_place else np.empty_like(send)
        comm.Allreduce(recv if in_place else send, recv, op=op)
        return recv

    ring = allreduce_ring(bufs)[0] if op == SUM else None
    for r, got in enumerate(run_ranks(len(bufs), fn)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        if ring is not None:
            close(got, ring[r])


@settings(max_examples=40, deadline=None)
@given(case=cases(), root=st.integers(0, 6))
def test_reduce(case, root):
    bufs, op = case
    root %= len(bufs)

    def fn(comm):
        recv = np.empty_like(bufs[0]) if comm.rank == root else None
        comm.Reduce(bufs[comm.rank], recv, op=op, root=root)
        return recv

    got = run_ranks(len(bufs), fn)[root]
    assert np.array_equal(got, functools.reduce(OPS[op], bufs))
    if op == SUM:
        close(got, allreduce_ring(bufs)[0][root])


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_allgather(case):
    bufs, _ = case
    p = len(bufs)

    def fn(comm):
        recv = np.empty((p,) + bufs[0].shape, dtype=bufs[0].dtype)
        comm.Allgather(bufs[comm.rank], recv)
        return recv

    ring = allgather_ring(bufs)[0]
    for r, got in enumerate(run_ranks(p, fn)):
        assert np.array_equal(got, np.stack(bufs))
        close(got, ring[r])


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_reduce_scatter(case):
    bufs, op = case
    p = len(bufs)
    flat = functools.reduce(OPS[op], bufs).reshape(-1)

    def fn(comm):
        lo, hi = shard_bounds(bufs[0].size, p, comm.rank)
        recv = np.empty(hi - lo, dtype=bufs[0].dtype)
        comm.Reduce_scatter(bufs[comm.rank], recv, op=op)
        return recv

    ring = reduce_scatter_ring(bufs)[0] if op == SUM else None
    for r, got in enumerate(run_ranks(p, fn)):
        assert np.array_equal(got, flat[slice(*shard_bounds(flat.size, p,
                                                            r))])
        if ring is not None:
            close(got, ring[r])


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_allgather_of_uneven_shards_into_a_flat_buffer(case):
    """The sharded solver's all-gather: rank r's shard of a flat vector,
    cut by :func:`shard_bounds`, lands at its place in every copy."""
    bufs, _ = case
    p, full = len(bufs), bufs[0].reshape(-1)

    def fn(comm):
        recv = np.empty_like(full)
        comm.Allgather(full[slice(*shard_bounds(full.size, p, comm.rank))],
                       recv)
        return recv

    for got in run_ranks(p, fn):
        assert np.array_equal(got, full)


F32 = np.float32


@pytest.mark.parametrize("call", [
    # rank 1 used to raise while rank 0 waited in its last barrier forever
    lambda comm: comm.Allreduce(*[np.zeros(3 if comm.rank == 0 else 1)] * 2),
    # a (3, 1) and a (1, 3) buffer were broadcast into a (3, 3) sum
    lambda comm: comm.Reduce(np.zeros((3, 1) if comm.rank == 0 else (1, 3)),
                             np.zeros((3, 1)) if comm.rank == 0 else None),
    # a (1,) root buffer was broadcast into a (4,) buffer
    lambda comm: comm.Bcast(np.zeros(1 if comm.rank == 0 else 4)),
    # the root raised after the first barrier, the others waited forever
    lambda comm: comm.Reduce(np.zeros(2), None),
    lambda comm: comm.Allreduce(np.zeros(2, dtype=F32 if comm.rank else None),
                                np.zeros(2, dtype=F32 if comm.rank else None)),
    lambda comm: comm.Allreduce(np.zeros(2), np.zeros(2),
                                op=MAX if comm.rank else SUM),
    lambda comm: comm.Allreduce(np.zeros(2), np.zeros(2), op="mean"),
    lambda comm: comm.Reduce(np.zeros(2), np.zeros(2), root=comm.rank),
    lambda comm: comm.Bcast(np.zeros(2), root=3),
    lambda comm: comm.Reduce_scatter(np.zeros(5), np.zeros(2)),
    lambda comm: comm.Allgather(np.zeros(2), np.zeros(3)),
    lambda comm: comm.Allgather(np.zeros(2), np.zeros(5 if comm.rank else 4)),
], ids=["allreduce_shapes", "reduce_shapes", "bcast_shapes",
        "reduce_root_without_recvbuf", "allreduce_dtypes", "allreduce_ops",
        "unknown_op", "reduce_roots", "bcast_root_out_of_range",
        "reduce_scatter_recvbuf", "allgather_recvbuf",
        "allgather_recvbufs_differ"])
def test_ranks_that_disagree_all_raise_the_same_error(call):
    """Every rank checks every rank's arguments after the first barrier,
    so each raises the same ``ValueError`` and the group stays usable."""
    def fn(comm):
        try:
            call(comm)
        except ValueError as exc:
            error = str(exc)
        total = np.empty(1)
        comm.Allreduce(np.ones(1), total)
        return error

    errors = outcomes(2, fn)
    assert isinstance(errors[0], str) and errors[0] == errors[1]
