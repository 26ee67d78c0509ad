"""Communication substrate: thread communicators, collective algorithms,
cost models."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    AlphaBetaModel,
    MAX,
    SUM,
    ThreadWorld,
    allgather_ring,
    allreduce_rabenseifner,
    allreduce_ring,
    allreduce_time,
    bcast_binomial,
    bcast_time,
    point_to_point_time,
    reduce_binomial,
    reduce_time,
)


def run_ranks(world, fn):
    """Run fn(comm) on every rank in threads; re-raise first error."""
    errors = []

    def wrap(r):
        try:
            fn(world.comm(r))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
            raise

    threads = [threading.Thread(target=wrap, args=(r,), daemon=True)
               for r in range(world.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestThreadWorld:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_allreduce_sum(self, p):
        world = ThreadWorld(p)
        results = {}

        def fn(comm):
            send = np.full(5, float(comm.rank + 1), dtype=np.float32)
            recv = np.empty_like(send)
            comm.Allreduce(send, recv)
            results[comm.rank] = recv

        run_ranks(world, fn)
        expected = sum(range(1, p + 1))
        for r in range(p):
            np.testing.assert_allclose(results[r], expected)

    def test_allreduce_max(self):
        world = ThreadWorld(3)
        results = {}

        def fn(comm):
            send = np.array([float(comm.rank)], dtype=np.float32)
            recv = np.empty_like(send)
            comm.Allreduce(send, recv, op=MAX)
            results[comm.rank] = recv[0]

        run_ranks(world, fn)
        assert all(v == 2.0 for v in results.values())

    def test_bcast(self):
        world = ThreadWorld(4)
        results = {}

        def fn(comm):
            buf = (np.arange(3, dtype=np.float32) if comm.rank == 1
                   else np.zeros(3, dtype=np.float32))
            comm.Bcast(buf, root=1)
            results[comm.rank] = buf.copy()

        run_ranks(world, fn)
        for r in range(4):
            np.testing.assert_array_equal(results[r], [0, 1, 2])

    def test_reduce_to_root(self):
        world = ThreadWorld(4)
        results = {}

        def fn(comm):
            send = np.full(2, 1.0, dtype=np.float32)
            recv = np.empty(2, dtype=np.float32) if comm.rank == 0 else None
            comm.Reduce(send, recv, root=0)
            if comm.rank == 0:
                results["root"] = recv.copy()

        run_ranks(world, fn)
        np.testing.assert_array_equal(results["root"], [4.0, 4.0])

    def test_allgather(self):
        world = ThreadWorld(3)
        results = {}

        def fn(comm):
            send = np.array([float(comm.rank)], dtype=np.float32)
            recv = np.empty((3, 1), dtype=np.float32)
            comm.Allgather(send, recv)
            results[comm.rank] = recv.copy()

        run_ranks(world, fn)
        np.testing.assert_array_equal(results[2].ravel(), [0, 1, 2])

    def test_send_recv(self):
        world = ThreadWorld(2)
        results = {}

        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.array([7.0], dtype=np.float32), dest=1, tag=3)
            else:
                buf = np.zeros(1, dtype=np.float32)
                comm.Recv(buf, source=0, tag=3, timeout=10)
                results["got"] = buf[0]

        run_ranks(world, fn)
        assert results["got"] == 7.0

    def test_object_send_recv(self):
        world = ThreadWorld(2)
        results = {}

        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": 1}, dest=1)
            else:
                results["obj"] = comm.recv(source=0, timeout=10)

        run_ranks(world, fn)
        assert results["obj"] == {"a": 1}

    def test_split_into_groups(self):
        world = ThreadWorld(4)
        results = {}

        def fn(comm):
            color = comm.rank // 2
            sub = comm.Split(color)
            send = np.array([1.0], dtype=np.float32)
            recv = np.empty(1, dtype=np.float32)
            sub.Allreduce(send, recv)
            results[comm.rank] = (sub.size, recv[0])

        run_ranks(world, fn)
        assert all(v == (2, 2.0) for v in results.values())

    def test_abort_releases_a_rank_waiting_in_a_collective(self):
        world = ThreadWorld(2)
        raised = []

        def waiting_rank():
            try:
                world.comm(1).Allreduce(np.zeros(1), np.zeros(1))
            except threading.BrokenBarrierError:
                raised.append(1)

        t = threading.Thread(target=waiting_rank, daemon=True)
        t.start()
        world.comm(0).Abort()
        t.join(timeout=10)
        assert not t.is_alive() and raised == [1]
        with pytest.raises(threading.BrokenBarrierError):
            world.comm(0).Barrier()

    def test_allreduce_shape_mismatch(self):
        world = ThreadWorld(1)
        comm = world.comm(0)
        with pytest.raises(ValueError):
            comm.Allreduce(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("peer", [5, 2, -1, 1.5, "1"])
    @pytest.mark.parametrize("call", [
        lambda comm, p: comm.send({"a": 1}, dest=p),
        lambda comm, p: comm.recv(source=p, timeout=0.2),
        lambda comm, p: comm.Send(np.zeros(1), dest=p),
        lambda comm, p: comm.Recv(np.zeros(1), source=p, timeout=0.2),
    ], ids=["send", "recv", "Send", "Recv"])
    def test_a_point_to_point_call_refuses_a_peer_outside_the_group(
            self, call, peer):
        comm = ThreadWorld(2).comm(0)
        with pytest.raises(ValueError, match="out of range"):
            call(comm, peer)
        assert not comm._group.mailboxes   # nothing was posted or awaited

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            ThreadWorld(2).comm(5)
        with pytest.raises(ValueError):
            ThreadWorld(0)


class TestCollectiveAlgorithms:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_ring_allreduce_sums(self, p, rng):
        bufs = [rng.normal(size=11).astype(np.float32) for _ in range(p)]
        expected = np.sum(bufs, axis=0)
        out, trace = allreduce_ring(bufs)
        for o in out:
            np.testing.assert_allclose(o, expected, rtol=1e-5)
        assert trace.steps == 2 * (p - 1)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_rabenseifner_sums(self, p, rng):
        bufs = [rng.normal(size=16).astype(np.float32) for _ in range(p)]
        expected = np.sum(bufs, axis=0)
        out, trace = allreduce_rabenseifner(bufs)
        for o in out:
            np.testing.assert_allclose(o, expected, rtol=1e-5)
        if p > 1:
            assert trace.steps == 2 * int(np.log2(p))

    def test_rabenseifner_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            allreduce_rabenseifner([np.zeros(4)] * 3)

    def test_ring_bandwidth_optimality(self):
        """Ring all-reduce sends 2M(p-1)/p bytes/rank — less than 2M."""
        bufs = [np.zeros(100, dtype=np.float32)] * 8
        _, trace = allreduce_ring(bufs)
        assert trace.bytes_per_rank == int(2 * 7 / 8 * 400)

    def test_allgather(self, rng):
        bufs = [rng.normal(size=3).astype(np.float32) for _ in range(4)]
        out, _ = allgather_ring(bufs)
        np.testing.assert_allclose(out[2], np.stack(bufs), rtol=1e-6)

    def test_bcast(self, rng):
        bufs = [rng.normal(size=5).astype(np.float32) for _ in range(5)]
        out, trace = bcast_binomial(bufs, root=2)
        for o in out:
            np.testing.assert_array_equal(o, bufs[2])
        assert trace.steps == 3  # ceil(log2 5)

    def test_reduce(self, rng):
        bufs = [rng.normal(size=5).astype(np.float32) for _ in range(3)]
        out, _ = reduce_binomial(bufs)
        np.testing.assert_allclose(out, np.sum(bufs, axis=0), rtol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(p=st.integers(1, 10), n=st.integers(1, 40),
           seed=st.integers(0, 10**6))
    def test_ring_matches_rabenseifner_semantics(self, p, n, seed):
        """Property: both algorithms compute the same reduction."""
        rng = np.random.default_rng(seed)
        bufs = [rng.normal(size=n) for _ in range(p)]
        ring, _ = allreduce_ring(bufs)
        expected = np.sum(bufs, axis=0)
        np.testing.assert_allclose(ring[0], expected, rtol=1e-8)


class TestCostModel:
    def test_single_node_free(self):
        m = AlphaBetaModel()
        assert allreduce_time(1000, 1, m) == 0.0
        assert bcast_time(1000, 1, m) == 0.0

    def test_bandwidth_term_dominates_large(self):
        m = AlphaBetaModel()
        t = allreduce_time(10**9, 64, m, algorithm="ring")
        # ~2 * 1GB / 8GBps = 0.25 s
        assert t == pytest.approx(0.25, rel=0.15)

    def test_latency_term_dominates_small(self):
        m = AlphaBetaModel()
        ring = allreduce_time(100, 1024, m, algorithm="ring")
        tree = allreduce_time(100, 1024, m, algorithm="tree")
        assert tree < ring  # auto should pick tree for tiny payloads
        assert allreduce_time(100, 1024, m) == tree

    def test_auto_picks_min(self):
        m = AlphaBetaModel()
        for nbytes in (100, 10**6, 10**9):
            auto = allreduce_time(nbytes, 128, m)
            assert auto == min(
                allreduce_time(nbytes, 128, m, "ring"),
                allreduce_time(nbytes, 128, m, "tree"))

    def test_endpoints_improve_bandwidth(self):
        m = AlphaBetaModel()
        m2 = m.with_endpoints(2.0)
        assert point_to_point_time(10**8, m2) < point_to_point_time(10**8, m)

    def test_monotone_in_bytes_and_nodes(self):
        m = AlphaBetaModel()
        assert allreduce_time(2 * 10**6, 64, m) > allreduce_time(10**6, 64, m)
        assert reduce_time(10**6, 128, m) >= reduce_time(10**6, 4, m)

    def test_validation(self):
        m = AlphaBetaModel()
        with pytest.raises(ValueError):
            allreduce_time(-1, 4, m)
        with pytest.raises(ValueError):
            allreduce_time(10, 0, m)
        with pytest.raises(ValueError):
            allreduce_time(10, 4, m, algorithm="nope")
        with pytest.raises(ValueError):
            AlphaBetaModel(bandwidth=-1)
