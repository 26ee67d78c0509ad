"""Distributed training: flatten utils, sync equivalence, PS semantics,
hybrid trainer."""

import threading

import numpy as np
import pytest

from repro.comm import ThreadWorld
from repro.core.parameter import Parameter
from repro.distributed import (
    HybridTrainer,
    ParameterServer,
    PSRegistry,
    ShardedSolverDataParallel,
    SyncDataParallel,
    flatten_grads,
    flatten_params,
    staleness_stats,
    unflatten_into,
)
from repro.models import build_hep_net
from repro.optim import SGD, Adam
from repro.train.loop import hep_loss_fn


def tiny_factory(seed=9, filters=8):
    def make():
        return build_hep_net(filters=filters, rng=seed)
    return make


@pytest.fixture(scope="module")
def tiny_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 2, 64).astype(np.int64)
    return x, y


class TestFlatten:
    def test_roundtrip(self, rng):
        ps = [Parameter(rng.normal(size=(3, 4)).astype(np.float32), "a"),
              Parameter(rng.normal(size=(5,)).astype(np.float32), "b")]
        flat = flatten_params(ps)
        assert flat.size == 17
        zeroed = [Parameter(np.zeros((3, 4)), "a"),
                  Parameter(np.zeros(5), "b")]
        unflatten_into(flat, zeroed, target="data")
        np.testing.assert_array_equal(zeroed[0].data, ps[0].data)
        np.testing.assert_array_equal(zeroed[1].data, ps[1].data)

    def test_grads(self, rng):
        p = Parameter(np.zeros(4), "a")
        p.grad[:] = [1, 2, 3, 4]
        np.testing.assert_array_equal(flatten_grads([p]), [1, 2, 3, 4])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_into(np.zeros(3), [Parameter(np.zeros(4), "a")])

    def test_bad_target(self):
        with pytest.raises(ValueError):
            unflatten_into(np.zeros(1), [Parameter(np.zeros(1), "a")],
                           target="nope")

    def test_empty(self):
        assert flatten_params([]).size == 0


class TestSyncEquivalence:
    """The core MLSL invariant: p-way synchronous data parallelism is
    bit-compatible with single-process large-batch training."""

    def test_two_way_equals_serial(self, tiny_data):
        x, y = tiny_data
        # Serial reference: one net, full batch of 32.
        ref = tiny_factory()()
        ref_opt = SGD(ref.params(), lr=0.05)
        for it in range(3):
            ref.zero_grad()
            loss, grad = hep_loss_fn(ref, x[:32], y[:32])
            ref.backward(grad)
            ref_opt.step()
        # Distributed: 2 ranks, each 16 samples, same init.
        world = ThreadWorld(2)
        sdp = SyncDataParallel(world, tiny_factory(),
                               lambda net: SGD(net.params(), lr=0.05),
                               hep_loss_fn)
        # Disable the data rolling so both see exactly x[:32] each iter.
        res = sdp.run(x[:32], y[:32], n_iterations=3)
        for p_ref, p_dist in zip(ref.params(), sdp.net.params()):
            np.testing.assert_allclose(p_dist.data, p_ref.data, rtol=2e-4,
                                       atol=2e-5)

    def test_replicas_stay_identical(self, tiny_data):
        x, y = tiny_data
        world = ThreadWorld(4)
        sdp = SyncDataParallel(world, tiny_factory(),
                               lambda net: SGD(net.params(), lr=0.05),
                               hep_loss_fn)
        sdp.run(x, y, n_iterations=2)
        ref = sdp.nets[0].state_dict()
        for net in sdp.nets[1:]:
            for k, v in net.state_dict().items():
                np.testing.assert_array_equal(v, ref[k])

    def test_loss_decreases(self, hep_ds):
        world = ThreadWorld(2)
        sdp = SyncDataParallel(world, tiny_factory(),
                               lambda net: Adam(net.params(), lr=1e-3),
                               hep_loss_fn)
        res = sdp.run(hep_ds.images[:64], hep_ds.labels[:64],
                      n_iterations=12)
        assert np.mean(res.losses[-3:]) < np.mean(res.losses[:3])

    def test_batch_too_small_raises(self, tiny_data):
        x, y = tiny_data
        world = ThreadWorld(8)
        sdp = SyncDataParallel(world, tiny_factory(),
                               lambda net: SGD(net.params(), lr=0.1),
                               hep_loss_fn)
        with pytest.raises(ValueError):
            sdp.run(x[:4], y[:4], n_iterations=1)


def returns_within(fn, timeout=30.0):
    """Run ``fn()`` on a daemon thread and return what it raised (``None``
    if nothing); fail if it is still blocked after ``timeout`` seconds."""
    raised = []

    def target():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001
            raised.append(exc)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"still blocked after {timeout} s"
    return raised[0] if raised else None


class TestRankFailure:
    """A rank that raises must not leave the others waiting in a
    collective for a contribution that never comes."""

    @pytest.mark.parametrize("cls, opt_factory", [
        (SyncDataParallel, lambda net: SGD(net.params(), lr=0.05)),
        (ShardedSolverDataParallel, lambda params: SGD(params, lr=0.05)),
    ], ids=["sync", "sharded"])
    def test_failing_rank_fails_the_run(self, cls, opt_factory, tiny_data):
        x, y = tiny_data
        trainer = cls(ThreadWorld(2), tiny_factory(), opt_factory,
                      hep_loss_fn)
        bad = trainer.nets[1]

        def loss_fn(net, xb, yb):
            if net is bad:
                raise ArithmeticError("diverged")
            return hep_loss_fn(net, xb, yb)

        trainer.loss_fn = loss_fn
        exc = returns_within(lambda: trainer.run(x[:16], y[:16],
                                                 n_iterations=3))
        assert isinstance(exc, RuntimeError)
        assert "rank 1" in str(exc) and "diverged" in str(exc)
        assert isinstance(exc.__cause__, ArithmeticError)


def layer_like(name="fc", shape=(4, 3)):
    """A minimal trainable-layer stand-in for PS tests."""
    from repro.nn.dense import Dense

    layer = Dense(shape[1], shape[0], name=name, rng=0)
    for p in layer.params():
        p.name = f"{name}.{p.name}" if not p.name.startswith(name) else p.name
    return layer


class TestParameterServer:
    def test_push_applies_update(self):
        layer = layer_like()
        ps = ParameterServer("fc", layer.params(),
                             lambda params: SGD(params, lr=1.0))
        w0, v0 = ps.read()
        grads = [np.ones_like(w) for w in w0]
        w1, v1 = ps.push(grads, read_version=v0)
        assert v1 == v0 + 1
        np.testing.assert_allclose(w1[0], w0[0] - 1.0, rtol=1e-6)

    def test_staleness_recorded(self):
        layer = layer_like()
        ps = ParameterServer("fc", layer.params(),
                             lambda params: SGD(params, lr=0.1))
        _, v = ps.read()
        grads = [np.zeros_like(p.data) for p in ps.params]
        ps.push(grads, read_version=v)        # staleness 0
        ps.push(grads, read_version=v)        # staleness 1 (stale read)
        np.testing.assert_array_equal(ps.staleness_values(), [0, 1])

    def test_gradient_shape_checked(self):
        layer = layer_like()
        ps = ParameterServer("fc", layer.params(),
                             lambda params: SGD(params, lr=0.1))
        with pytest.raises(ValueError):
            ps.push([np.zeros((1, 1)), np.zeros(1)], read_version=0)

    def test_registry_one_ps_per_layer(self):
        net = build_hep_net(filters=8, rng=0)
        reg = PSRegistry(net.trainable_layers(),
                         lambda params: SGD(params, lr=0.1))
        assert len(reg) == 6  # 5 convs + fc (paper Fig 4 for HEP)

    def test_registry_pull_push_roundtrip(self):
        net = build_hep_net(filters=8, rng=0)
        other = build_hep_net(filters=8, rng=1)  # different init
        reg = PSRegistry(net.trainable_layers(),
                         lambda params: SGD(params, lr=0.1))
        versions = reg.pull_into(other.trainable_layers())
        # after pull, replica weights equal PS weights (net's init)
        np.testing.assert_allclose(other.params()[0].data,
                                   net.params()[0].data, rtol=1e-6)
        for layer in other.trainable_layers():
            for p in layer.params():
                p.grad[...] = 0.0
        new_versions = reg.push_from(other.trainable_layers(), versions)
        assert all(new_versions[k] == versions[k] + 1 for k in versions)


class TestHybridTrainer:
    def test_single_group_is_sequential(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=1, seed=0)
        res = tr.run(hep_ds.images[:64], hep_ds.labels[:64],
                     group_batch=16, n_iterations=8)
        assert res.staleness.max() == 0
        assert len(res.traces) == 1
        assert len(res.traces[0].losses) == 8

    def test_multi_group_staleness_positive(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=4, seed=0)
        res = tr.run(hep_ds.images[:64], hep_ds.labels[:64],
                     group_batch=8, n_iterations=6)
        assert res.staleness.mean() > 0.5

    def test_no_drift_is_uniform_drift_and_reproducible(self, hep_ds):
        def run(drift):
            tr = HybridTrainer(tiny_factory(),
                               lambda params: Adam(params, lr=1e-3),
                               hep_loss_fn, n_groups=4, seed=0)
            res = tr.run(hep_ds.images[:64], hep_ds.labels[:64],
                         group_batch=8, n_iterations=4, drift=drift)
            return ([t.times for t in res.traces],
                    [t.losses for t in res.traces], res.staleness.tolist())

        first = run(None)
        assert run(None) == first
        assert run([1.0] * 4) == first

    def test_learning_happens(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=2, seed=0)
        res = tr.run(hep_ds.images[:128], hep_ds.labels[:128],
                     group_batch=16, n_iterations=15)
        times, losses = res.merged_curve(smooth=5)
        assert losses[-1] < losses[0]

    def test_virtual_clock(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=2,
                           iteration_time_fn=lambda g: 2.5, seed=0)
        res = tr.run(hep_ds.images[:32], hep_ds.labels[:32],
                     group_batch=8, n_iterations=4)
        np.testing.assert_allclose(res.traces[0].times,
                                   [2.5, 5.0, 7.5, 10.0])

    def test_drift_slows_one_group(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=2,
                           iteration_time_fn=lambda g: 1.0, seed=0)
        res = tr.run(hep_ds.images[:32], hep_ds.labels[:32],
                     group_batch=8, n_iterations=3, drift=[1.0, 3.0])
        assert res.traces[1].times[-1] == pytest.approx(
            3 * res.traces[0].times[-1])

    def test_time_to_loss(self):
        from repro.distributed.hybrid import GroupTrace, HybridTrainResult

        tr = GroupTrace(group=0, times=[1.0, 2.0, 3.0],
                        losses=[0.9, 0.5, 0.1])
        assert tr.time_to_loss(0.5) == 2.0
        assert tr.time_to_loss(0.01) is None

    def test_validation(self, hep_ds):
        tr = HybridTrainer(tiny_factory(),
                           lambda params: Adam(params, lr=1e-3),
                           hep_loss_fn, n_groups=2, seed=0)
        with pytest.raises(ValueError):
            tr.run(hep_ds.images[:16], hep_ds.labels[:16],
                   group_batch=99, n_iterations=1)
        with pytest.raises(ValueError):
            tr.run(hep_ds.images[:16], hep_ds.labels[:16],
                   group_batch=4, n_iterations=1, drift=[1.0])


class TestStalenessStats:
    def test_implied_momentum(self):
        stats = staleness_stats(np.array([3, 3, 3]))
        assert stats.mean == 3.0
        assert stats.implied_momentum == pytest.approx(0.75)

    def test_empty(self):
        stats = staleness_stats(np.zeros(0))
        assert stats.mean == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            staleness_stats(np.array([-1]))
