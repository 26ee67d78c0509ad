"""Sharded-solver (ZeRO-1-style) data parallelism."""

import threading

import numpy as np
import pytest

from repro.comm import ThreadWorld, shard_bounds
from repro.data.hep import make_hep_dataset
from repro.distributed import (
    ShardedSolverDataParallel,
    SyncDataParallel,
    solver_time_saving,
)
from repro.models import build_hep_net
from repro.optim import SGD, Adam
from repro.train.loop import hep_loss_fn


@pytest.fixture(scope="module")
def tiny_ds():
    return make_hep_dataset(160, image_size=16, signal_fraction=0.5, seed=4)


class TestShardBounds:
    def test_partition_covers_exactly(self):
        for total in (10, 16, 17):
            for p in (1, 2, 3, 5):
                covered = []
                for r in range(p):
                    lo, hi = shard_bounds(total, p, r)
                    covered.extend(range(lo, hi))
                assert covered == list(range(total))

    def test_remainder_goes_to_first_shards(self):
        assert shard_bounds(10, 3, 0) == (0, 4)
        assert shard_bounds(10, 3, 1) == (4, 7)
        assert shard_bounds(10, 3, 2) == (7, 10)


class TestEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_unsharded_sgd(self, p, tiny_ds):
        """The sharded-solver step is bit-for-bit the unsharded step for a
        stateless-per-coordinate solver like SGD."""
        world_a = ThreadWorld(p)
        a = SyncDataParallel(
            world_a, lambda: build_hep_net(filters=4, rng=1),
            lambda net: SGD(net.params(), lr=0.05, momentum=0.9),
            hep_loss_fn)
        world_b = ThreadWorld(p)
        b = ShardedSolverDataParallel(
            world_b, lambda: build_hep_net(filters=4, rng=1),
            lambda params: SGD(params, lr=0.05, momentum=0.9),
            hep_loss_fn)
        res_a = a.run(tiny_ds.images[:32], tiny_ds.labels[:32],
                      n_iterations=4)
        res_b = b.run(tiny_ds.images[:32], tiny_ds.labels[:32],
                      n_iterations=4)
        np.testing.assert_allclose(res_a.losses, res_b.losses, rtol=1e-5)
        for pa, pb in zip(a.net.params(), b.net.params()):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-4,
                                       atol=1e-6)

    def test_matches_unsharded_adam(self, tiny_ds):
        """Adam keeps per-coordinate state; sharding must not change it
        (each coordinate's m/v live on exactly one rank)."""
        p = 3
        a = SyncDataParallel(
            ThreadWorld(p), lambda: build_hep_net(filters=4, rng=2),
            lambda net: Adam(net.params(), lr=1e-3), hep_loss_fn)
        b = ShardedSolverDataParallel(
            ThreadWorld(p), lambda: build_hep_net(filters=4, rng=2),
            lambda params: Adam(params, lr=1e-3), hep_loss_fn)
        res_a = a.run(tiny_ds.images[:30], tiny_ds.labels[:30],
                      n_iterations=3)
        res_b = b.run(tiny_ds.images[:30], tiny_ds.labels[:30],
                      n_iterations=3)
        np.testing.assert_allclose(res_a.losses, res_b.losses, rtol=1e-5)
        for pa, pb in zip(a.net.params(), b.net.params()):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-4,
                                       atol=1e-6)

    def test_replicas_stay_identical(self, tiny_ds):
        p = 2
        trainer = ShardedSolverDataParallel(
            ThreadWorld(p), lambda: build_hep_net(filters=4, rng=3),
            lambda params: SGD(params, lr=0.05), hep_loss_fn)
        trainer.run(tiny_ds.images[:16], tiny_ds.labels[:16],
                    n_iterations=3)
        ref = trainer.nets[0].state_dict()
        for net in trainer.nets[1:]:
            for name, val in net.state_dict().items():
                np.testing.assert_array_equal(val, ref[name])


class TestAccounting:
    def test_solver_state_fraction(self, tiny_ds):
        trainer = ShardedSolverDataParallel(
            ThreadWorld(4), lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=1e-3), hep_loss_fn)
        assert trainer.solver_state_fraction() == 0.25
        total = sum(p.size for p in trainer.net.params())
        assert sum(s.size for s in trainer._shards) == total

    def test_solver_time_saving(self):
        # Fig 5a: 12.5% of a 106 ms iteration is solver; 64 ranks shard it.
        t = 0.125 * 0.106
        assert solver_time_saving(t, 64) == pytest.approx(t * 63 / 64)
        assert solver_time_saving(t, 1) == 0.0
        with pytest.raises(ValueError):
            solver_time_saving(-1.0, 4)
        with pytest.raises(ValueError):
            solver_time_saving(1.0, 0)

    @pytest.mark.parametrize("cls, opt_factory, per_step", [
        (SyncDataParallel, lambda net: SGD(net.params(), lr=0.05), 2),
        (ShardedSolverDataParallel, lambda params: SGD(params, lr=0.05), 4)])
    def test_barriers_per_step(self, cls, opt_factory, per_step, tiny_ds):
        """A sync step is one all-reduce; a sharded step one reduce-scatter
        and one all-gather: 2 barriers each, not 3 + 2p for an all-reduce
        plus p broadcasts."""
        p, waits, lock = 3, [], threading.Lock()
        world = ThreadWorld(p)
        barrier = world._group.barrier

        class Counting:
            def wait(self):
                with lock:
                    waits.append(1)
                return barrier.wait()

            def abort(self):
                barrier.abort()

        world._group.barrier = Counting()
        trainer = cls(world, lambda: build_hep_net(filters=4, rng=3),
                      opt_factory, hep_loss_fn)
        trainer.run(tiny_ds.images[:12], tiny_ds.labels[:12], n_iterations=2)
        assert len(waits) == p * per_step * 2

    def test_invalid_run_args(self, tiny_ds):
        trainer = ShardedSolverDataParallel(
            ThreadWorld(2), lambda: build_hep_net(filters=4, rng=3),
            lambda params: SGD(params, lr=0.05), hep_loss_fn)
        with pytest.raises(ValueError, match="cannot be split"):
            trainer.run(tiny_ds.images[:1], tiny_ds.labels[:1],
                        n_iterations=1)
        with pytest.raises(ValueError, match="n_iterations"):
            trainer.run(tiny_ds.images[:8], tiny_ds.labels[:8],
                        n_iterations=0)
