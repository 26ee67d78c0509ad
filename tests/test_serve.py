"""repro.serve: batching policy, registry, router, SLO simulator."""

import gc
import inspect
import math

import numpy as np
import pytest

from repro import serve
from repro.core import Sequential
from repro.models import build_hep_net
from repro.models.climate import build_climate_net
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.fft_conv import FFTConv2D
from repro.nn.pooling import MaxPool2D
from repro.nn.winograd import WinogradConv2D
from repro.serve import (
    LAUNCH_ORDERS,
    MMPP,
    AutoscalingSimulator,
    BatchExecutor,
    BatchingPolicy,
    ModelRegistry,
    PolicyComparison,
    ReplicaBatchQueue,
    Router,
    ServiceTimeModel,
    ServingSimulator,
    SweepReport,
    ZipfPopularity,
    compare_batching_modes,
    plan_batches,
    sweep_cache_sizes,
)
from repro.serve.metrics import LatencyStats
from repro.serve.obs import Profiler
from repro.serve.reference import EventLoopSimulator
from repro.sim.workload import custom_workload


@pytest.fixture(scope="module")
def tiny_wl():
    net = build_hep_net(filters=8, n_units=3, rng=0)
    return custom_workload("tiny_hep", net, (3, 16, 16))


def const_service(t=0.1):
    return lambda b: t


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            BatchingPolicy(max_wait=-1.0)
        with pytest.raises(ValueError, match="max_wait"):
            BatchingPolicy(max_wait=math.nan)
        with pytest.raises(ValueError, match="batching mode"):
            BatchingPolicy(mode="eager")

    def test_defaults(self):
        p = BatchingPolicy()
        assert p.max_batch == 32 and p.max_wait > 0
        assert p.mode == "windowed"

    def test_launch_wait_by_mode(self):
        """Continuous mode never holds a partial batch: its effective hold
        time is zero no matter what max_wait says."""
        p = BatchingPolicy(max_wait=0.25)
        assert p.launch_wait == 0.25
        c = p.with_mode("continuous")
        assert c.launch_wait == 0.0 and c.max_wait == 0.25
        assert c.max_batch == p.max_batch
        assert c.with_mode("windowed") == p


class TestZipfPopularity:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        # NaN used to pass (``alpha < 0`` is false for it) and made every
        # weight NaN at the first draw.
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            ZipfPopularity(alpha=alpha)

    def test_zero_alpha_is_uniform(self):
        assert ZipfPopularity(alpha=0.0, n_keys=4).head_mass(1) == 0.25


class TestPlanBatches:
    def test_simultaneous_arrivals_fill_batches(self):
        policy = BatchingPolicy(max_batch=4, max_wait=0.05)
        batches = plan_batches([0.0] * 6, policy, const_service(0.1))
        assert [b.size for b in batches] == [4, 2]
        # Full batch launches immediately; remainder waits for the replica
        # (service time 0.1 > max_wait 0.05).
        assert batches[0].start == 0.0
        assert batches[1].start == pytest.approx(0.1)

    def test_max_wait_fires_partial_batch(self):
        policy = BatchingPolicy(max_batch=8, max_wait=0.02)
        batches = plan_batches([0.0], policy, const_service(0.1))
        assert len(batches) == 1
        assert batches[0].start == pytest.approx(0.02)
        assert batches[0].size == 1

    def test_arrivals_during_service_coalesce(self):
        # One request launches alone; everything arriving during its service
        # window launches together when the replica frees up.
        policy = BatchingPolicy(max_batch=8, max_wait=0.0)
        arrivals = [0.0, 0.01, 0.02, 0.03]
        batches = plan_batches(arrivals, policy, const_service(0.1))
        assert [b.size for b in batches] == [1, 3]
        assert batches[1].start == pytest.approx(0.1)

    def test_request_ids_fifo(self):
        policy = BatchingPolicy(max_batch=2, max_wait=0.0)
        batches = plan_batches([0.0, 0.0, 0.0, 0.0], policy,
                               const_service(0.01))
        assert batches[0].request_ids == (0, 1)
        assert batches[1].request_ids == (2, 3)

    def test_completion_times(self):
        policy = BatchingPolicy(max_batch=2, max_wait=0.01)
        batches = plan_batches([0.0, 0.0], policy, const_service(0.5))
        assert batches[0].completion == pytest.approx(0.5)

    def test_arrivals_before_free_at_queue_up(self):
        """Requests arriving while the replica is mid-batch must queue, not
        be rejected: free_at models a busy replica, not a time floor."""
        policy = BatchingPolicy(max_batch=2, max_wait=0.01)
        batches = plan_batches([0.0, 0.1], policy, const_service(0.3),
                               free_at=0.5)
        assert [b.size for b in batches] == [2]
        assert batches[0].start == pytest.approx(0.5)

    def test_continuous_skips_the_hold_window(self):
        """Continuous mode launches a lone request immediately on an idle
        replica where windowed mode would hold it for max_wait."""
        policy = BatchingPolicy(max_batch=8, max_wait=0.02,
                                mode="continuous")
        batches = plan_batches([0.0, 0.05], policy, const_service(0.01))
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].start == 0.0
        assert batches[1].start == pytest.approx(0.05)

    def test_continuous_coalesces_behind_busy_replica(self):
        """Continuous mode still batches: everything queued during a
        service window launches together when the replica frees."""
        policy = BatchingPolicy(max_batch=8, max_wait=0.02,
                                mode="continuous")
        batches = plan_batches([0.0, 0.01, 0.02, 0.03], policy,
                               const_service(0.1))
        assert [b.size for b in batches] == [1, 3]
        assert batches[1].start == pytest.approx(0.1)


class TestReplicaBatchQueue:
    def test_push_must_be_nondecreasing(self):
        q = ReplicaBatchQueue(BatchingPolicy(), const_service())
        q.push(1.0, 0)
        with pytest.raises(ValueError, match="nondecreasing"):
            q.push(0.5, 1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_push_must_be_finite(self, t):
        # NaN compares False against the clock, so a bare ``t < clock``
        # admitted it; a later finite push then had to follow it
        q = ReplicaBatchQueue(BatchingPolicy(), const_service())
        with pytest.raises(ValueError, match="finite"):
            q.push(t, 0)
        q.push(1.0, 0)
        with pytest.raises(ValueError, match="finite"):
            q.push(t, 1)
        assert q.queue_depth == 1

    def test_push_and_advance_return_the_next_launch(self):
        q = ReplicaBatchQueue(BatchingPolicy(max_batch=2, max_wait=0.5),
                              const_service(1.0))
        assert q.advance(0.0) == math.inf        # nothing queued
        assert q.push(0.0, 0) == 0.5             # head's hold deadline
        assert q.push(0.2, 1) == 0.2             # now full: launch at once
        assert q.advance(0.3) == math.inf        # launched, lane empty
        assert q.push(0.4, 2) == 1.2             # behind the busy replica

    def test_queue_depth_and_completions(self):
        q = ReplicaBatchQueue(BatchingPolicy(max_batch=2, max_wait=10.0),
                              const_service(1.0))
        q.push(0.0, 7)
        assert q.queue_depth == 1
        q.push(0.0, 8)          # fills the batch
        q.advance(0.5)          # launch happened at t=0
        assert q.queue_depth == 0
        q.drain()
        assert q.completions == {7: pytest.approx(1.0),
                                 8: pytest.approx(1.0)}

    def test_backlog_counts_in_flight_requests(self):
        q = ReplicaBatchQueue(BatchingPolicy(max_batch=1, max_wait=0.0),
                              const_service(1.0))
        q.push(0.0, 0)
        q.advance(0.5)          # launched at t=0, busy until t=1.0
        assert q.backlog(0.5) == 1       # in service counts as outstanding
        assert q.backlog(2.0) == 0       # completed -> gone

    def test_drain_flushes_partial_batch_with_infinite_wait(self):
        """Regression: a 'full batches only' policy (max_wait=inf) used to
        leave the final partial batch queued forever — drain() returned
        with its requests missing from completions, silently dropped."""
        q = ReplicaBatchQueue(BatchingPolicy(max_batch=4, max_wait=math.inf),
                              const_service(0.1))
        for i in range(6):
            q.push(0.01 * i, i)
        q.advance(1.0)
        assert len(q.batches) == 1       # the full batch committed...
        assert q.queue_depth == 2        # ...the remainder held for more
        q.drain()
        assert sorted(q.completions) == list(range(6))
        leftover = q.batches[-1]
        assert leftover.size == 2
        # Fires once the replica frees (no arrivals left to wait for).
        assert leftover.start == pytest.approx(q.batches[0].completion)

    def test_drain_mid_window_keeps_the_deadline(self):
        """Arrivals ending mid-window must not change a finite-deadline
        launch: the final partial batch still fires at head + max_wait."""
        q = ReplicaBatchQueue(BatchingPolicy(max_batch=4, max_wait=0.5),
                              const_service(0.1))
        q.push(0.0, 0)
        q.push(0.2, 1)          # stream ends inside [0, 0.5) hold window
        q.drain()
        assert [b.size for b in q.batches] == [2]
        assert q.batches[0].start == pytest.approx(0.5)


class TestBatchExecutor:
    def test_matches_per_sample_forward(self, rng):
        net = build_hep_net(filters=8, n_units=3, rng=0).eval()
        x = rng.normal(size=(5, 3, 16, 16)).astype(np.float32)
        singles = [net.forward(x[i:i + 1])[0] for i in range(5)]
        outs = BatchExecutor(net).run([x[i] for i in range(5)],
                                      BatchingPolicy(max_batch=2))
        assert len(outs) == 5
        for got, ref in zip(outs, singles):
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_dict_outputs_split_per_sample(self, rng):
        net = build_climate_net(4, 3, preset="small", rng=0).eval()
        x = rng.normal(size=(3, 4, 32, 32)).astype(np.float32)
        ref = net.forward(x)
        outs = BatchExecutor(net).run_batch([x[i] for i in range(3)])
        assert set(outs[0]) == set(ref)
        for i in range(3):
            np.testing.assert_array_equal(outs[i]["conf"], ref["conf"][i])

    def test_empty_request_list(self):
        net = build_hep_net(filters=8, n_units=3, rng=0).eval()
        assert BatchExecutor(net).run_batch([]) == []

    def test_eval_forward_leaves_no_layer_caches(self, rng):
        """Serving replicas must not pin activation-sized caches between
        requests — eval-mode forwards never run backward."""
        net = build_hep_net(filters=8, n_units=3, rng=0).eval()
        net.forward(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))

        def holds_array(obj):
            if isinstance(obj, np.ndarray):
                return True
            if isinstance(obj, (tuple, list)):
                return any(holds_array(o) for o in obj)
            return False

        for layer in net:
            for attr in ("_cache", "_mask", "_out", "_x"):
                assert not holds_array(getattr(layer, attr, None)), (
                    f"{layer.name}.{attr} held after eval forward")

    def test_eval_propagates_into_residual_blocks(self, rng):
        """Composite layers must forward the mode switch to their children,
        or serving replicas of a ResNet keep training-mode caches alive."""
        from repro.nn.residual import build_resnet

        net = build_resnet(rng=0).eval()
        block = next(l for l in net if l.kind == "residual")
        assert not block.conv1.training and not block.relu_out.training
        net.forward(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert block.conv1._cache is None and block.relu1._mask is None
        net.train()
        assert block.conv1.training and block.relu1.training

    @pytest.mark.parametrize("build, shape", [
        (lambda: Conv2D(3, 4, 3, rng=0), (2, 3, 12, 12)),
        (lambda: Deconv2D(3, 4, 4, stride=2, rng=0), (2, 3, 8, 8)),
        (lambda: WinogradConv2D(3, 4, rng=0), (2, 3, 12, 12)),
        (lambda: FFTConv2D(3, 4, 3, rng=0), (2, 3, 12, 12)),
        # more than one band of columns: training caches the input alone
        (lambda: Conv2D(8, 8, 3, rng=0), (1, 8, 128, 128)),
        (lambda: Deconv2D(8, 8, 4, stride=2, rng=0), (1, 8, 96, 96)),
    ], ids=["conv", "deconv", "winograd", "fft", "banded-conv",
            "banded-deconv"])
    def test_frozen_after_training_drops_the_training_batch(self, build,
                                                            shape, rng):
        """A replica that was trained and then frozen must not keep its last
        training batch alive: a conv-family layer has one cache slot, and
        every eval forward clears it."""
        layer = build()
        x = rng.normal(size=shape).astype(np.float32)
        layer.train()
        layer.forward(x)
        assert layer._cache is not None
        layer.eval()
        layer.forward(x)
        assert layer._cache is None
        assert not any(isinstance(v, (np.ndarray, tuple))
                       for v in vars(layer).values())
        # ... nor do the followers an eval Sequential fuses behind it.
        relu, pool = ReLU(), MaxPool2D(2)
        net = Sequential([layer, relu, pool])
        net.train().forward(x)
        assert relu._mask is not None and pool._cache is not None
        net.eval().forward(x)
        assert layer._cache is None
        assert relu._mask is None and pool._cache is None


class TestModelRegistry:
    def test_publish_load_versioning(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        net = build_hep_net(filters=8, n_units=3, rng=0)
        assert reg.publish("hep", net) == 1
        net.params()[0].data[...] += 1.0
        assert reg.publish("hep", net) == 2
        assert reg.versions("hep") == [1, 2]
        assert reg.load("hep").version == 2
        assert reg.load("hep", version=1).version == 1

    def test_loaded_replica_is_eval_and_frozen(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=0))
        m = reg.load("hep")
        assert m.net.training is False
        with pytest.raises(ValueError):
            m.net.params()[0].data[...] = 0.0
        with pytest.raises(RuntimeError, match="frozen"):
            m.train()

    def test_input_signature_validated(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=0))
        m = reg.load("hep")
        with pytest.raises(ValueError, match="per-sample shape"):
            m(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_unknown_and_duplicate_names(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(KeyError, match="unknown model"):
            reg.load("nope")
        reg.register("m", lambda: None, (1,))
        with pytest.raises(ValueError, match="already registered"):
            reg.register("m", lambda: None, (1,))

    def test_publish_rejects_mismatched_architecture(self, tmp_path):
        """A net that the registered builder cannot reproduce must not
        become the model's latest version — that would break every load."""
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        wrong = build_hep_net(filters=16, n_units=3, rng=0)
        with pytest.raises(ValueError, match="does not fit the builder"):
            reg.publish("hep", wrong)
        assert reg.versions("hep") == []     # nothing was written

    def test_hand_placed_unpadded_checkpoint_loads(self, tmp_path):
        """An operator-copied 'v1.npz' (no zero padding) must round-trip
        through versions()/latest()/load() like a published one."""
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        net = build_hep_net(filters=8, n_units=3, rng=0)
        from repro.train.checkpoint import save_checkpoint
        save_checkpoint(net, tmp_path / "hep" / "v1.npz")
        assert reg.versions("hep") == [1]
        assert reg.load("hep").version == 1
        # A padded duplicate of the same version is ambiguous -> loud error.
        save_checkpoint(net, tmp_path / "hep" / "v0001.npz")
        with pytest.raises(ValueError, match="two checkpoints"):
            reg.load("hep")

    def test_path_traversal_names_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for bad in ("..", ".", "a/b", "a\\b", "", "a b", "hep\n"):
            with pytest.raises(ValueError, match="invalid model name"):
                reg.register(bad, lambda: None, (1,))

    def test_missing_checkpoints(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=99), (3, 16, 16))
        with pytest.raises(FileNotFoundError, match="no published"):
            reg.load("hep")
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=0))
        with pytest.raises(FileNotFoundError, match="no version"):
            reg.load("hep", version=9)


class TestServiceTimeModel:
    def test_batch_time_nondecreasing(self, tiny_wl):
        svc = ServiceTimeModel(tiny_wl)
        times = [svc.batch_time(b) for b in range(1, 33)]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_batching_raises_throughput(self, tiny_wl):
        svc = ServiceTimeModel(tiny_wl)
        assert svc.peak_throughput(32) > 2.0 / svc.batch_time(1)

    def test_transport_positive(self, tiny_wl):
        assert ServiceTimeModel(tiny_wl).request_rtt() > 0

    def test_invalid_batch(self, tiny_wl):
        with pytest.raises(ValueError, match="batch"):
            ServiceTimeModel(tiny_wl).batch_time(0)


class TestRouter:
    def _router(self, n_replicas=3, limit=None, service=None):
        return Router(None, n_replicas, BatchingPolicy(max_batch=4,
                                                       max_wait=0.01),
                      service or const_service(1.0),
                      limits=None if limit is None else [limit])

    def test_placement_on_machine_nodes(self):
        r = self._router(n_replicas=4)
        ids = r.node_ids()
        assert len(set(ids)) == 4
        assert all(0 <= i < r.machine.n_nodes for i in ids)

    def test_least_loaded_spreads_simultaneous_arrivals(self):
        r = self._router(n_replicas=3)
        for i in range(3):
            assert r.submit(0.0, i)
        assert [rep.queue.queue_depth for rep in r.replicas] == [1, 1, 1]

    def test_least_loaded_fills_the_emptier_replica_first(self):
        """Least-loaded is the only routing: an arrival goes to the
        replica with the fewest outstanding requests, and a tie goes to
        the lowest replica index."""
        r = self._router(n_replicas=2)
        picks = []
        for i in range(5):
            assert r.submit(0.0, i)
            picks.append([rep.queue.queue_depth for rep in r.replicas])
        assert picks == [[1, 0], [1, 1], [2, 1], [2, 2], [3, 2]]
        # Fail replica 0: the survivor takes every arrival.
        r.fail_replica(0.0, 0)
        assert r.submit(0.0, 5)
        assert [rep.index for rep in r.replicas] == [1]
        assert r.replicas[0].queue.queue_depth == 3

    def test_admission_control_sheds(self):
        r = self._router(n_replicas=1, limit=2)
        assert r.submit(0.0, 0)
        assert r.submit(0.0, 1)
        assert not r.submit(0.0, 2)      # queue full -> shed
        assert r.n_dropped == 1 and r.n_offered == 3

    def test_admission_bounds_outstanding_work(self):
        """A count limit bounds admitted-but-uncompleted requests —
        committed full batches still count (they are work the replica
        owes), so a burst cannot push per-request latency past
        limit/throughput, and the outcome is identical however the burst
        is timestamped."""
        r = Router(None, 1, BatchingPolicy(max_batch=32, max_wait=0.01),
                   const_service(1.0), limits=[64])
        admitted = sum(r.submit(0.0, i) for i in range(100))
        assert admitted == 64 and r.n_dropped == 36
        r.drain()
        sizes = [b.size for b in r.replicas[0].queue.batches]
        assert sizes == [32, 32]
        # Same offered burst, microsecond-spaced: same admission outcome.
        r2 = Router(None, 1, BatchingPolicy(max_batch=32, max_wait=0.01),
                    const_service(1.0), limits=[64])
        admitted2 = sum(r2.submit(i * 1e-6, i) for i in range(100))
        assert admitted2 == 64

    def test_admission_engages_under_sustained_overload(self):
        """With a limit above max_batch, sustained overload must still
        shed — outstanding work, not just the unlaunched queue,
        hits the limit."""
        r = Router(None, 1, BatchingPolicy(max_batch=32, max_wait=0.01),
                   const_service(1.0), limits=[64])
        # Offered far above the 32 req/s capacity for a long stretch.
        admitted = sum(r.submit(i * 0.005, i) for i in range(2000))
        assert r.n_dropped > 0
        # Everyone admitted waits at most ~limit worth of service.
        r.drain()
        completions = r.completions()
        worst = max(completions[i] - i * 0.005 for i in completions)
        assert worst <= (64 / 32 + 1.0) * 1.5

    def test_sheds_only_when_every_replica_is_full(self):
        """A full replica spills to one with queue space; shedding only
        happens when every queue is at the limit."""
        r = self._router(n_replicas=2, limit=1)
        assert r.submit(0.0, 0)          # -> replica 0 (now full)
        assert r.submit(0.0, 1)          # -> replica 1 (now full)
        assert r.submit(0.0, 2) is False  # everyone full -> shed
        assert [rep.queue.queue_depth for rep in r.replicas] == [1, 1]
        assert r.n_dropped == 1

    @pytest.mark.parametrize("path", ["no live replica", "full", "admitted"])
    @pytest.mark.parametrize("t, model", [
        (float("nan"), 0), (math.inf, 0), (-math.inf, 0), (0.5, 0),
        (1.0, 0.5)])
    def test_a_bad_arrival_is_refused_before_counting(self, path, t, model):
        """A time that is not finite or runs before the last submit, and a
        non-integral model index, raise on every path — before
        ``n_offered`` or ``shed_ids`` move — instead of being shed (a full
        or empty fleet) or counted and then refused by the queue."""
        r = self._router(n_replicas=1, limit=1 if path == "full" else None)
        assert r.submit(1.0, 0)
        if path == "no live replica":
            r.fail_replica(1.0, 0)
        with pytest.raises(ValueError):
            r.submit(t, 1, model)
        assert (r.n_offered, r.shed_ids) == (1, [])
        assert r.submit(1.0, 2) is (path == "admitted")

    def test_validation(self):
        with pytest.raises(ValueError, match="n_replicas"):
            self._router(n_replicas=0)
        for bad in (0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="admission limits"):
                self._router(limit=bad)
        with pytest.raises(ValueError, match="2 admission limits"):
            Router(None, 1, BatchingPolicy(), const_service(1.0),
                   limits=[4, 4])


class TestLatencyStats:
    def test_percentiles_and_throughput(self):
        s = LatencyStats(latencies=np.linspace(0.1, 1.0, 10), n_offered=10,
                         horizon=5.0)
        assert s.p50 == pytest.approx(np.percentile(s.latencies, 50))
        assert s.throughput == pytest.approx(2.0)

    def test_attainment_counts_drops_as_violations(self):
        s = LatencyStats(latencies=np.array([0.1, 0.2]), n_offered=4,
                         n_dropped=2, horizon=1.0)
        assert s.attainment(0.15) == pytest.approx(0.25)
        assert s.drop_rate == pytest.approx(0.5)

    @pytest.mark.parametrize("slo", [0.0, -1.0, math.nan])
    def test_attainment_rejects_a_slo_that_is_not_positive(self, slo):
        s = LatencyStats(latencies=np.array([0.1]), n_offered=1, horizon=1.0)
        with pytest.raises(ValueError, match="slo"):
            s.attainment(slo)

    def test_empty_run(self):
        s = LatencyStats(latencies=np.array([]), n_offered=0)
        assert np.isnan(s.p99) and s.throughput == 0.0
        assert s.attainment(1.0) == 1.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            LatencyStats(latencies=np.array([0.1]), n_offered=0)

    def test_batch_size_accounting(self):
        s = LatencyStats(latencies=np.full(6, 0.1), n_offered=6,
                         horizon=1.0, batch_sizes=np.array([4, 2]))
        assert s.n_batches == 2
        assert s.mean_batch_size == pytest.approx(3.0)
        assert np.isnan(LatencyStats(latencies=np.array([]),
                                     n_offered=0).mean_batch_size)
        with pytest.raises(ValueError, match="batch sizes"):
            LatencyStats(latencies=np.full(6, 0.1), n_offered=6,
                         batch_sizes=np.array([4, 4]))


class TestSweepReport:
    def _stats(self, p99):
        lat = np.full(100, p99)
        return LatencyStats(latencies=lat, n_offered=100, horizon=1.0)

    def test_monotone_checks(self):
        rep = SweepReport(slo=0.5)
        for rate, p99 in ((1.0, 0.1), (2.0, 0.2), (3.0, 0.9)):
            rep.add(rate, self._stats(p99))
        assert rep.p99_is_monotone()
        assert rep.attainment_is_monotone()
        assert rep.attainment_curve[-1] == 0.0

    def test_non_monotone_detected(self):
        rep = SweepReport(slo=0.5)
        for rate, p99 in ((1.0, 0.4), (2.0, 0.1)):
            rep.add(rate, self._stats(p99))
        assert not rep.p99_is_monotone()

    def test_table_renders(self):
        rep = SweepReport(slo=0.5)
        rep.add(1.0, self._stats(0.1))
        assert "p99" in rep.table() and "attain" in rep.table()


class TestServingSimulator:
    def test_accounting(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=2)
        stats = sim.run(rate=sim.saturation_rate(), n_requests=64)
        assert stats.n_offered == 64
        assert stats.n_completed + stats.n_dropped == 64
        assert stats.horizon > 0 and stats.throughput > 0

    def test_sweep_curves_monotone(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=2)
        rep = sim.sweep(n_requests=200)
        assert rep.p99_is_monotone()
        assert rep.attainment_is_monotone()
        assert np.all((rep.attainment_curve >= 0)
                      & (rep.attainment_curve <= 1))
        # Light load meets the default SLO outright.
        assert rep.attainment_curve[0] == pytest.approx(1.0)

    def test_overload_hurts_tail_latency(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=1)
        sat = sim.saturation_rate()
        calm = sim.run(0.25 * sat, n_requests=200)
        slammed = sim.run(2.0 * sat, n_requests=200)
        assert slammed.p99 > calm.p99

    def test_admission_sheds_under_overload(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=1, max_queue=8)
        stats = sim.run(4.0 * sim.saturation_rate(), n_requests=300)
        assert stats.n_dropped > 0

    def test_poisson_arrivals_reproducible(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=1)
        a = sim.run(sim.saturation_rate(), n_requests=100,
                    process="poisson", seed=3)
        b = sim.run(sim.saturation_rate(), n_requests=100,
                    process="poisson", seed=3)
        np.testing.assert_array_equal(a.latencies, b.latencies)

    def test_mmpp_arrivals_run_and_reproduce(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=1)
        rate = 0.5 * sim.saturation_rate()
        a = sim.run(rate, n_requests=100, process="mmpp", seed=3)
        b = sim.run(rate, n_requests=100, process=MMPP(), seed=3)
        # The string spec is shorthand for the default MMPP shape.
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert a.n_completed + a.n_dropped == 100
        custom = sim.run(rate, n_requests=100, process=MMPP(burst=16.0),
                         seed=3)
        assert not np.array_equal(a.latencies, custom.latencies)

    def test_run_records_batch_sizes(self, tiny_wl):
        sim = ServingSimulator(tiny_wl, n_replicas=1)
        stats = sim.run(0.5 * sim.saturation_rate(), n_requests=64)
        assert stats.batch_sizes is not None
        assert int(stats.batch_sizes.sum()) == stats.n_completed
        assert 1.0 <= stats.mean_batch_size <= sim.policy.max_batch

    def test_continuous_mode_end_to_end(self, tiny_wl):
        """The mode switch reaches the simulator's queues: at trickle load
        a continuous replica answers faster than a windowed one."""
        policy = BatchingPolicy(max_batch=32, max_wait=0.05)
        windowed = ServingSimulator(tiny_wl, n_replicas=1, policy=policy)
        continuous = ServingSimulator(tiny_wl, n_replicas=1,
                                      policy=policy.with_mode("continuous"))
        # Trickle: inter-arrival 4x the hold window, so every request rides
        # alone and the windowed scheduler charges it the full max_wait.
        rate = 1.0 / (4 * policy.max_wait)
        w = windowed.run(rate, n_requests=32)
        c = continuous.run(rate, n_requests=32)
        assert c.p50 < w.p50
        assert w.p50 - c.p50 == pytest.approx(policy.max_wait, rel=0.05)

    def test_a_run_leaves_no_reference_cycles(self, tiny_wl):
        """An event-loop run's router, queues and batches are freed by
        reference counting when the run returns. A cycle through them
        would hold every run's event state until the next full garbage
        collection, so a process's peak memory would grow with the number
        of runs before it. A profiled run hooks the router's and the
        cache's methods with wrappers on the instances; those go when the
        run ends, so it leaves no cycle either."""
        sim = EventLoopSimulator(tiny_wl, n_replicas=2, cache_size=8)
        auto = AutoscalingSimulator(tiny_wl)
        gc.collect()
        gc.disable()
        try:
            for profiler in (None, Profiler()):
                sim.run(sim.saturation_rate(), n_requests=200,
                        process="poisson", seed=1, popularity="zipf",
                        profiler=profiler)
                auto.run(2.0 * sim.saturation_rate(), n_requests=200,
                         process="poisson", seed=1, profiler=profiler)
                assert gc.collect() == 0
                assert sim.last_run_engine == "event"
            # unhooked at the end, the spans were still recorded
            assert {"router.sync", "router.submit", "cache.get",
                    "cache.put"} <= set(profiler.totals())
        finally:
            gc.enable()

    def test_invalid_inputs(self, tiny_wl):
        sim = ServingSimulator(tiny_wl)
        with pytest.raises(ValueError, match="rate"):
            sim.run(0.0)
        with pytest.raises(ValueError, match="arrival process"):
            sim.run(1.0, process="bursty")
        with pytest.raises(ValueError, match="slo"):
            sim.sweep(rates=[1.0], n_requests=4, slo=0.0)


@pytest.mark.parametrize("slo", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["sweep", "compare_batching_modes",
                                   "sweep_cache_sizes"])
def test_a_sweep_refuses_a_bad_slo_before_any_run(tiny_wl, monkeypatch,
                                                  entry, slo):
    """A NaN SLO used to pass (``nan <= 0`` is False): ``sweep`` returned a
    report whose curves raised, ``compare_batching_modes`` ran both sweeps
    before a misleading "different SLOs (nan vs nan)", and
    ``sweep_cache_sizes`` took NaN and -1. Each now refuses it, naming the
    value, before it runs anything."""

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the slo was checked")

    monkeypatch.setattr(ServingSimulator, "run", no_run)
    call = {
        "sweep": lambda: ServingSimulator(tiny_wl).sweep(
            rates=[1.0], n_requests=4, slo=slo),
        "compare_batching_modes": lambda: compare_batching_modes(
            tiny_wl, rates=[1.0], n_requests=4, slo=slo),
        "sweep_cache_sizes": lambda: sweep_cache_sizes(
            tiny_wl, [0, 4], rate=1.0, n_requests=4, slo=slo),
    }[entry]
    with pytest.raises(ValueError, match=f"slo must be positive, got {slo}"):
        call()


class TestCompareBatchingModes:
    def test_shared_grid_and_slo(self, tiny_wl):
        cmp = compare_batching_modes(tiny_wl, n_replicas=1, n_requests=48)
        np.testing.assert_allclose(cmp.windowed.rates, cmp.continuous.rates)
        assert cmp.slo == cmp.windowed.slo == cmp.continuous.slo
        assert cmp.p50_win_curve.shape == cmp.rates.shape
        assert "p50 win" in cmp.table()

    def test_mismatched_sweeps_rejected(self):
        def swept(rates, slo):
            rep = SweepReport(slo=slo)
            for r in rates:
                rep.add(r, LatencyStats(latencies=np.array([0.1]),
                                        n_offered=1, horizon=1.0))
            return rep

        with pytest.raises(ValueError, match="rate grids"):
            PolicyComparison(windowed=swept([1.0, 2.0], 0.5),
                             continuous=swept([1.0, 3.0], 0.5))
        with pytest.raises(ValueError, match="rate grids"):
            PolicyComparison(windowed=swept([1.0], 0.5),
                             continuous=swept([1.0, 1.0], 0.5))
        with pytest.raises(ValueError, match="SLO"):
            PolicyComparison(windowed=swept([1.0], 0.5),
                             continuous=swept([1.0], 0.6))


class TestRetiredKnobs:
    """Round-robin routing, model affinity, LFU eviction, ``"slack"``
    ordering, the simulators' own ``max_queue_seconds`` and the router's
    four admission knobs are gone, not hidden: no public callable takes
    them, and a stale call fails at construction instead of running some
    other configuration."""

    RETIRED = {"strategy", "affinity", "cache_policy"}

    @staticmethod
    def _params(obj):
        fn = obj.__init__ if inspect.isclass(obj) else obj
        return set(inspect.signature(fn).parameters)

    def test_no_public_signature_takes_a_retired_knob(self):
        checked = 0
        for name in serve.__all__:
            obj = getattr(serve, name)
            if not callable(obj):
                continue
            assert not self.RETIRED & self._params(obj), name
            checked += 1
        assert checked > 30
        for sim in (ServingSimulator, AutoscalingSimulator):
            assert "max_queue_seconds" not in self._params(sim)
        # The router takes each model's limit, computed by the simulator
        # (admission_limits), in place of the knobs it was derived from.
        assert not {"max_queue", "model_weights", "max_queue_seconds",
                    "admission_floor_seconds"} & self._params(Router)
        assert "limits" in self._params(Router)
        with pytest.raises(TypeError, match="max_queue"):
            Router(None, 1, BatchingPolicy(), lambda b: 0.01, max_queue=4)

    def test_the_autoscaler_takes_no_engine(self):
        """Its control loop always runs the event loop: an ``engine`` of
        ``"array"`` was forwarded, never read, and silently ran on
        ``"event"``."""
        params = self._params(AutoscalingSimulator) - {"self"}
        assert "engine" not in params and len(params) == 16
        with pytest.raises(TypeError, match="engine"):
            AutoscalingSimulator(None, service_model=lambda b: 0.01,
                                 **{"engine": "array"})

    @pytest.mark.parametrize("sim", [ServingSimulator,
                                     AutoscalingSimulator])
    def test_slack_order_is_refused(self, sim):
        assert LAUNCH_ORDERS == ("fifo", "edf")
        with pytest.raises(ValueError, match="launch order"):
            sim(None, service_model=lambda b: 0.01, order="slack")
        with pytest.raises(TypeError, match="strategy"):
            sim(None, service_model=lambda b: 0.01, strategy="round_robin")
