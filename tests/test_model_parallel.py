"""Model parallelism over the thread communicator (paper SIII-D)."""

import threading

import numpy as np
import pytest

from repro.comm import ThreadWorld, shard_bounds
from repro.comm.model_parallel import (
    ColumnParallelDense,
    RowParallelDense,
    SpatialParallelConv2D,
    data_parallel_grad_bytes,
    halo_exchange,
    model_parallel_activation_bytes,
)
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense


def _run_ranks(world, fn):
    """Run ``fn(rank, comm)`` on every rank; re-raise the first error."""
    results = [None] * world.size
    errors = []

    def worker(r):
        try:
            results[r] = fn(r, world.comm(r))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((r, exc))

    threads = [threading.Thread(target=worker, args=(r,), daemon=True)
               for r in range(world.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        r, exc = errors[0]
        raise RuntimeError(f"rank {r} failed: {exc!r}") from exc
    return results


def _reference_dense(in_f, out_f, seed):
    return Dense(in_f, out_f, rng=np.random.default_rng(seed))


class TestColumnParallel:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_forward_matches_unsharded(self, p, rng):
        world = ThreadWorld(p)
        x = rng.normal(size=(6, 10)).astype(np.float32)
        ref = _reference_dense(10, 8, seed=3)
        expected = ref.forward(x)

        def fn(r, comm):
            layer = ColumnParallelDense(comm, 10, 8,
                                        rng=np.random.default_rng(3))
            return layer.forward(x)

        for out in _run_ranks(world, fn):
            np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_backward_matches_unsharded(self, rng):
        p = 2
        world = ThreadWorld(p)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        g = rng.normal(size=(5, 8)).astype(np.float32)
        ref = _reference_dense(6, 8, seed=4)
        ref.forward(x)
        expected_dx = ref.backward(g)

        def fn(r, comm):
            layer = ColumnParallelDense(comm, 6, 8,
                                        rng=np.random.default_rng(4))
            layer.forward(x)
            dx = layer.backward(g)
            return dx, layer.weight.grad.copy(), layer.bias.grad.copy()

        results = _run_ranks(world, fn)
        shard = 8 // p
        for r, (dx, wg, bg) in enumerate(results):
            np.testing.assert_allclose(dx, expected_dx, rtol=1e-4, atol=1e-5)
            lo = r * shard
            np.testing.assert_allclose(
                wg, ref.weight.grad[lo:lo + shard], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(
                bg, ref.bias.grad[lo:lo + shard], rtol=1e-5, atol=1e-6)

    def test_indivisible_output_raises(self):
        world = ThreadWorld(3)

        def fn(r, comm):
            ColumnParallelDense(comm, 4, 8, rng=0)

        with pytest.raises(RuntimeError, match="not divisible"):
            _run_ranks(world, fn)

    def test_comm_bytes_accounting(self):
        world = ThreadWorld(4)

        def fn(r, comm):
            layer = ColumnParallelDense(comm, 16, 8, rng=0)
            return layer.comm_bytes_per_iteration(batch=32)

        (b, *_rest) = _run_ranks(world, fn)
        expected = int(3 / 4 * 32 * 8 * 4 + 2 * 3 / 4 * 32 * 16 * 4)
        assert b == expected


class TestRowParallel:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_forward_matches_unsharded(self, p, rng):
        world = ThreadWorld(p)
        x = rng.normal(size=(4, 12)).astype(np.float32)
        ref = _reference_dense(12, 5, seed=5)
        expected = ref.forward(x)

        def fn(r, comm):
            layer = RowParallelDense(comm, 12, 5,
                                     rng=np.random.default_rng(5))
            return layer.forward(x)

        for out in _run_ranks(world, fn):
            np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_backward_matches_unsharded(self, rng):
        p = 3
        world = ThreadWorld(p)
        x = rng.normal(size=(4, 12)).astype(np.float32)
        g = rng.normal(size=(4, 5)).astype(np.float32)
        ref = _reference_dense(12, 5, seed=6)
        ref.forward(x)
        expected_dx = ref.backward(g)

        def fn(r, comm):
            layer = RowParallelDense(comm, 12, 5,
                                     rng=np.random.default_rng(6))
            layer.forward(x)
            return layer.backward(g), layer.weight.grad.copy()

        results = _run_ranks(world, fn)
        shard = 12 // p
        for r, (dx, wg) in enumerate(results):
            np.testing.assert_allclose(dx, expected_dx, rtol=1e-4, atol=1e-5)
            lo = r * shard
            np.testing.assert_allclose(
                wg, ref.weight.grad[:, lo:lo + shard], rtol=1e-4, atol=1e-5)

    def test_indivisible_input_raises(self):
        world = ThreadWorld(5)

        def fn(r, comm):
            RowParallelDense(comm, 12, 4, rng=0)

        with pytest.raises(RuntimeError, match="not divisible"):
            _run_ranks(world, fn)


class TestStripBounds:
    def test_partition_covers_exactly(self):
        for height in (7, 8, 13):
            for p in (1, 2, 3, 4):
                rows = []
                for r in range(p):
                    lo, hi = shard_bounds(height, p, r)
                    rows.extend(range(lo, hi))
                assert rows == list(range(height))

    def test_too_many_ranks_raises(self):
        with pytest.raises(ValueError, match="cannot split"):
            SpatialParallelConv2D(ThreadWorld(3).comm(0), 1, 1, 3,
                                  image_height=2)


class TestHaloExchange:
    def test_interior_rows_travel(self, rng):
        p = 3
        world = ThreadWorld(p)
        full = rng.normal(size=(2, 1, 9, 4)).astype(np.float32)

        def fn(r, comm):
            lo, hi = shard_bounds(9, p, r)
            return halo_exchange(comm, full[:, :, lo:hi].copy(), halo=1)

        results = _run_ranks(world, fn)
        # Middle rank's extended strip equals the global rows lo-1 .. hi.
        lo, hi = shard_bounds(9, p, 1)
        np.testing.assert_array_equal(results[1],
                                      full[:, :, lo - 1:hi + 1])
        # Boundary ranks get zero rows on the outside.
        np.testing.assert_array_equal(results[0][:, :, 0], 0.0)
        np.testing.assert_array_equal(results[-1][:, :, -1], 0.0)

    def test_halo_zero_is_copy(self, rng):
        world = ThreadWorld(2)
        full = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)

        def fn(r, comm):
            lo, hi = shard_bounds(4, 2, r)
            return halo_exchange(comm, full[:, :, lo:hi].copy(), halo=0)

        results = _run_ranks(world, fn)
        np.testing.assert_array_equal(results[0], full[:, :, :2])

    def test_strip_too_small_raises(self):
        world = ThreadWorld(2)

        def fn(r, comm):
            halo_exchange(comm, np.zeros((1, 1, 1, 4), dtype=np.float32),
                          halo=2)

        with pytest.raises(RuntimeError, match="donate"):
            _run_ranks(world, fn)


class TestSpatialParallelConv:
    @pytest.mark.parametrize("p,height", [(2, 8), (3, 9), (4, 11)])
    def test_forward_matches_full_conv(self, p, height, rng):
        world = ThreadWorld(p)
        x = rng.normal(size=(2, 3, height, 6)).astype(np.float32)
        ref = Conv2D(3, 4, 3, stride=1, pad=1, rng=np.random.default_rng(8))
        expected = ref.forward(x)

        def fn(r, comm):
            layer = SpatialParallelConv2D(comm, 3, 4, 3, image_height=height,
                                          rng=np.random.default_rng(8))
            lo, hi = layer.lo, layer.hi
            return layer.forward(x[:, :, lo:hi].copy())

        results = _run_ranks(world, fn)
        assembled = np.concatenate(results, axis=2)
        np.testing.assert_allclose(assembled, expected, rtol=1e-4, atol=1e-5)

    def test_backward_matches_full_conv(self, rng):
        p, height = 2, 8
        world = ThreadWorld(p)
        x = rng.normal(size=(1, 2, height, 5)).astype(np.float32)
        g = rng.normal(size=(1, 3, height, 5)).astype(np.float32)
        ref = Conv2D(2, 3, 3, stride=1, pad=1, rng=np.random.default_rng(9))
        ref.forward(x)
        expected_dx = ref.backward(g)

        def fn(r, comm):
            layer = SpatialParallelConv2D(comm, 2, 3, 3, image_height=height,
                                          rng=np.random.default_rng(9))
            lo, hi = layer.lo, layer.hi
            layer.forward(x[:, :, lo:hi].copy())
            dx = layer.backward(g[:, :, lo:hi].copy())
            layer.allreduce_weight_grads()
            return dx, layer.conv.weight.grad.copy()

        results = _run_ranks(world, fn)
        assembled_dx = np.concatenate([r[0] for r in results], axis=2)
        np.testing.assert_allclose(assembled_dx, expected_dx,
                                   rtol=1e-4, atol=1e-5)
        # After the weight-grad all-reduce every rank holds the full grad.
        for _dx, wg in results:
            np.testing.assert_allclose(wg, ref.weight.grad,
                                       rtol=1e-4, atol=1e-5)

    def test_even_kernel_rejected(self):
        world = ThreadWorld(2)

        def fn(r, comm):
            SpatialParallelConv2D(comm, 1, 1, 2, image_height=8, rng=0)

        with pytest.raises(RuntimeError, match="odd"):
            _run_ranks(world, fn)

    def test_halo_bytes_accounting(self):
        world = ThreadWorld(3)

        def fn(r, comm):
            layer = SpatialParallelConv2D(comm, 4, 4, 3, image_height=9,
                                          rng=0)
            return layer.halo_bytes_per_iteration(batch=8, width=16,
                                                  channels=4)

        results = _run_ranks(world, fn)
        one_way = 8 * 4 * 1 * 16 * 4
        assert results[0] == 2 * 1 * one_way      # edge: one neighbour
        assert results[1] == 2 * 2 * one_way      # middle: two neighbours


class TestCostHelpers:
    def test_data_parallel_dominates_for_small_models(self):
        """The paper's regime: a 2.3 MiB model, activations >> weights —
        data parallelism moves far fewer bytes than model parallelism."""
        p, batch = 64, 8
        hep_model_bytes = int(2.3 * 2**20)
        dp = data_parallel_grad_bytes(hep_model_bytes, p)
        # A hypothetical sharded dense layer on HEP-scale activations.
        mp = model_parallel_activation_bytes(batch * 128, 4096, 4096, p)
        assert dp < mp

    def test_model_parallel_wins_for_huge_dense(self):
        """Where model parallelism would pay off: an enormous dense layer
        (weights >> activations) at tiny batch."""
        p, batch = 64, 1
        weight_bytes = 4 * 32768 * 32768
        dp = data_parallel_grad_bytes(weight_bytes, p)
        mp = model_parallel_activation_bytes(batch, 32768, 32768, p)
        assert mp < dp

    def test_single_rank_is_free(self):
        assert data_parallel_grad_bytes(1000, 1) == 0.0
        assert model_parallel_activation_bytes(8, 64, 64, 1) == 0.0
