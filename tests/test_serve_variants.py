"""Fast replica variants: compilation, registry siblings, overload serving.

Covers the three layers of the variant path:

- compilation (:mod:`repro.serve.variants`): quantized nets land on
  symmetric grids, and a hook that needs a layer's own output keeps the
  layer boundary of a fused eval group;
- registry: variants load as siblings with a variant-distinct cache scope
  — a quantized prediction can never satisfy a full-precision cache key —
  and rollouts evict variant scopes too;
- serving: ``variant_policy=None`` runs are bit-identical to the
  pre-variant simulator, queue/attainment triggers downgrade and revert
  with hysteresis, and the repair failure event undoes a degrade so the
  autoscaler scales back in.
"""

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.core import Sequential
from repro.nn import Conv2D, Deconv2D, MaxPool2D, ReLU
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchExecutor,
    BatchingPolicy,
    ModelRegistry,
    ResultCache,
    ServingSimulator,
    Tracer,
    VariantPolicy,
    VariantProfile,
    compile_quantized,
    content_key,
    measure_profile,
)
from repro.serve.fast_core import unsupported_reason
from repro.serve.latency import ServiceTimeModel
from repro.optim.quantize import quantize_nearest
from repro.serve.variants import _wrapped_forwards, output_drift


def tiny_net(rng=0):
    """A minimal net: two convs and a deconv."""
    return Sequential([
        Conv2D(2, 4, 3, stride=1, name="c3", rng=rng),
        ReLU(),
        Conv2D(4, 4, 5, stride=1, pad=2, name="c5", rng=rng),
        Deconv2D(4, 2, 4, stride=2, pad=1, name="up", rng=rng),
    ], name="tiny")


def relabelled(net):
    """The compiler of a variant that changes nothing but its name: what
    the policy tests below call ``"kernel"``."""
    return net.eval()


SHAPE = (2, 2, 8, 8)


def _x(rng, shape=SHAPE):
    return rng.normal(size=shape).astype(np.float32)


class FakeService:
    """Affine batch-time stand-in carrying a registered variant scale."""

    def __init__(self, base=0.004, per=0.001, rtt=1e-4, scale=0.5):
        self.base, self.per, self.rtt = base, per, rtt
        self.variant_scales = {"kernel": scale}

    def batch_time(self, b):
        return self.base + self.per * b

    def request_rtt(self):
        return self.rtt

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)

    def est_request_cost(self, max_batch):
        return self.batch_time(max_batch) / max_batch


# -- compilation -------------------------------------------------------------

class TestQuantized:
    def test_weights_on_symmetric_grid(self):
        bits = 4
        qnet = compile_quantized(tiny_net().eval(), bits=bits)
        assert qnet.quant_bits == bits
        for p in qnet.params():
            if not p.data.size or not np.abs(p.data).max():
                continue
            scale = np.abs(p.data).max()
            levels = 2 ** (bits - 1) - 1
            steps = p.data / (scale / levels)
            np.testing.assert_allclose(steps, np.round(steps), atol=1e-4)
            assert len(np.unique(p.data)) <= 2 ** bits - 1

    def test_base_net_untouched(self):
        net = tiny_net().eval()
        before = {k: v.copy() for k, v in net.state_dict().items()}
        compile_quantized(net, bits=3)
        for k, v in net.state_dict().items():
            np.testing.assert_array_equal(v, before[k])

    def test_drift_shrinks_with_bits(self, rng):
        net = tiny_net().eval()
        x = _x(rng)
        ref = net.forward(x)
        drift = [output_drift(ref, compile_quantized(net, bits=b).forward(x))
                 for b in (3, 8)]
        assert drift[1] < drift[0]
        assert drift[1] < 0.05

    def test_calibration_records_activation_scales(self, rng):
        net = tiny_net().eval()
        qnet = compile_quantized(net, bits=8, calibration=_x(rng))
        assert qnet.activation_scales          # every leaf saw the batch
        assert all(s > 0 for s in qnet.activation_scales.values())
        qnet.forward(_x(rng))                  # wrapped forwards still run

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError, match="bits"):
            compile_quantized(tiny_net(), bits=1)


def pooled_net(rng=0):
    """conv -> ReLU -> pool, twice: the groups an eval ``Sequential`` fuses."""
    return Sequential([
        Conv2D(2, 4, 3, name="c1", rng=rng), ReLU(name="r1"),
        MaxPool2D(2, name="p1"),
        Conv2D(4, 4, 3, name="c2", rng=rng + 1), ReLU(name="r2"),
        MaxPool2D(2, name="p2"),
    ], name="pooled").eval()


class TestHooksKeepTheLayerBoundary:
    """A hook that needs a layer's own output never lets that layer fuse
    with its followers: it sees the tensors of the layer-by-layer net."""

    X_SHAPE = (2, 2, 16, 16)

    @staticmethod
    def by_hand(net, x, after=lambda layer, out: out):
        """``{name: (input, output)}`` of a hand-written layer loop, in
        the order ``net.forward`` runs (``p1`` before ``r1``)."""
        seen = {}
        for layer in net.schedule():
            out = after(layer, layer.forward(x))
            seen[layer.name] = (x, out)
            x = out
        return seen

    def test_wrapped_forwards_see_whole_tensors(self, rng):
        net, x = pooled_net(), _x(rng, self.X_SHAPE)
        want = self.by_hand(net, x)
        seen = {}

        def capture(layer, orig):
            def forward(inp):
                seen[layer.name] = (inp, orig(inp))
                return seen[layer.name][1]
            return forward

        with _wrapped_forwards(net.layers, capture):
            out = net.forward(x)
        assert "forward" not in vars(net.layers[0])
        np.testing.assert_array_equal(out, want["r2"][1])
        assert list(seen) == list(want) == ["c1", "p1", "r1", "c2", "p2", "r2"]
        for name in want:
            for got, ref in zip(seen[name], want[name]):
                np.testing.assert_array_equal(got, ref)

    def test_quantized_calibrates_and_quantizes_each_layers_own_output(
            self, rng):
        net, calib = pooled_net(), _x(rng, self.X_SHAPE)
        bits = 6
        qnet = compile_quantized(net, bits=bits, calibration=calib)
        # By hand: the weight-quantized net run layer by layer gives each
        # leaf's calibration peak; fake-quant then applies leaf by leaf.
        ref = compile_quantized(net, bits=bits)
        peaks = {name: float(np.abs(out).max())
                 for name, (_, out) in self.by_hand(ref, calib).items()}
        assert qnet.activation_scales == peaks
        x = _x(rng, self.X_SHAPE)
        want = self.by_hand(
            ref, x, lambda layer, out: quantize_nearest(out, bits,
                                                        peaks[layer.name]))
        np.testing.assert_array_equal(qnet.forward(x), want["r2"][1])


class TestProfile:
    def test_measure_profile_fields(self):
        net = tiny_net().eval()
        prof = measure_profile(net, relabelled(tiny_net()), "kernel", SHAPE,
                               repeats=1)
        assert prof.kind == "kernel" and prof.speedup > 0
        assert prof.accuracy_delta == 0.0      # the same bits
        assert prof.time_scale == pytest.approx(1.0 / prof.speedup)
        assert prof.bits is None
        assert prof.batch_shape == SHAPE

    def test_quantized_profile_carries_bits(self):
        net = tiny_net().eval()
        prof = measure_profile(net, compile_quantized(net, bits=8),
                               "quantized", SHAPE, repeats=1)
        assert prof.bits == 8 and prof.accuracy_delta >= 0

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="kind"):
            VariantProfile("", 2.0, 0.0, 1.0, 0.5, SHAPE)
        with pytest.raises(ValueError, match="speedup"):
            VariantProfile("kernel", 0.0, 0.0, 1.0, 0.5, SHAPE)


# -- registry ----------------------------------------------------------------

def _registry(tmp_path):
    reg = ModelRegistry(tmp_path)
    reg.register("tiny", tiny_net, (2, 8, 8))
    reg.publish("tiny", tiny_net(rng=7))
    return reg


class TestRegistryVariants:
    def test_load_variant_scope_and_kind(self, tmp_path):
        reg = _registry(tmp_path)
        reg.register_variant("tiny", "kernel", relabelled)
        reg.register_variant("tiny", "quantized", bits=8)
        assert reg.variant_kinds("tiny") == ["kernel", "quantized"]
        base = reg.load("tiny")
        kern = reg.load("tiny", variant="kernel")
        quant = reg.load("tiny", variant="quantized")
        assert base.cache_scope == ("tiny", 1)
        assert kern.cache_scope == ("tiny", 1, "kernel")
        assert quant.cache_scope == ("tiny", 1, "quantized")

    def test_variant_loads_checkpoint_weights(self, tmp_path, rng):
        """The compiler runs *after* the checkpoint restore: a variant
        must produce the published weights' outputs, not the builder's
        fresh-init outputs."""
        reg = _registry(tmp_path)
        reg.register_variant("tiny", "kernel", relabelled)
        x = _x(rng)
        np.testing.assert_array_equal(
            reg.load("tiny", variant="kernel").forward(x),
            reg.load("tiny").forward(x))

    def test_register_variant_validation(self, tmp_path):
        reg = _registry(tmp_path)
        with pytest.raises(ValueError, match="kind"):
            reg.register_variant("tiny", "turbo")       # no compiler
        with pytest.raises(ValueError, match="kind"):
            reg.register_variant("tiny", "", relabelled)
        reg.register_variant("tiny", "turbo", relabelled)
        assert reg.load("tiny", variant="turbo").variant == "turbo"
        with pytest.raises(KeyError):
            reg.register_variant("nope", "kernel")
        reg.register_variant("tiny", "quantized")
        with pytest.raises(ValueError, match="already"):
            reg.register_variant("tiny", "quantized")
        with pytest.raises(ValueError, match="variant"):
            reg.load("tiny", variant="kernel")      # not registered

    def test_variant_profile_roundtrip(self, tmp_path):
        reg = _registry(tmp_path)
        reg.register_variant("tiny", "quantized", bits=8)
        assert reg.variant_profile("tiny", "quantized") is None
        prof = VariantProfile("quantized", 1.2, 0.01, 1.0, 0.83, SHAPE,
                              bits=8)
        reg.set_variant_profile("tiny", "quantized", prof)
        assert reg.variant_profile("tiny", "quantized") is prof
        with pytest.raises(ValueError, match="variant"):
            reg.variant_profile("tiny", "kernel")

    def test_quantized_never_serves_full_precision_key(self, tmp_path, rng):
        """Cache-scope correctness at the executor level: one shared
        ResultCache, same input bytes, base and quantized replicas — the
        quantized prediction must never satisfy the base's cache key."""
        reg = _registry(tmp_path)
        reg.register_variant("tiny", "quantized", bits=3)
        base, quant = reg.load("tiny"), reg.load("tiny",
                                                 variant="quantized")
        cache = ResultCache(capacity=64)
        sample = _x(rng)[0]
        # Quantized replica computes (and caches) first.
        got_q = BatchExecutor(quant, cache=cache).run(
            [sample], BatchingPolicy(max_batch=1))[0]
        got_b = BatchExecutor(base, cache=cache).run(
            [sample], BatchingPolicy(max_batch=1))[0]
        assert not np.array_equal(got_b, got_q)     # not the quantized hit
        np.testing.assert_array_equal(got_b,
                                      base.forward(sample[None])[0])
        # Both keys now resident under their own scopes.
        key = content_key(sample)
        assert cache.get((base.cache_scope, key))[0]
        assert cache.get((quant.cache_scope, key))[0]

    def test_publish_invalidates_variant_scopes(self, tmp_path, rng):
        reg = _registry(tmp_path)
        reg.register_variant("tiny", "quantized", bits=8)
        cache = ResultCache(capacity=64)
        reg.attach_cache(cache)
        sample = _x(rng)[0]
        for variant in (None, "quantized"):
            replica = reg.load("tiny", variant=variant)
            BatchExecutor(replica, cache=cache).run(
                [sample], BatchingPolicy(max_batch=1))
        assert len(cache) == 2
        reg.publish("tiny", tiny_net(rng=8))        # rollout to v2
        assert len(cache) == 0                      # both scopes evicted


# -- serving -----------------------------------------------------------------

def kernel(**kw):
    """A policy that downgrades onto the variant ``FakeService`` prices."""
    return VariantPolicy(kind="kernel", **kw)


class TestVariantPolicy:
    def test_requires_a_trigger(self):
        with pytest.raises(ValueError, match="trigger"):
            VariantPolicy(kind="kernel")

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            VariantPolicy(kind="", queue_threshold=1.0)
        with pytest.raises(TypeError, match="kind"):
            VariantPolicy(queue_threshold=1.0)      # no default variant
        with pytest.raises(ValueError, match="time_scale"):
            kernel(queue_threshold=1.0, time_scale=1.5)
        with pytest.raises(ValueError, match="queue_threshold"):
            kernel(queue_threshold=0.0)
        with pytest.raises(ValueError, match="attainment_threshold"):
            kernel(attainment_threshold=1.5)
        with pytest.raises(ValueError, match="hysteresis"):
            kernel(queue_threshold=1.0, hysteresis=2.0)
        with pytest.raises(ValueError, match="recover_attainment"):
            kernel(queue_threshold=1.0, recover_attainment=0.9)
        with pytest.raises(ValueError, match="recover_attainment"):
            kernel(attainment_threshold=0.9, recover_attainment=0.5)

    def test_recover_at_defaults_to_threshold(self):
        pol = kernel(attainment_threshold=0.9)
        assert pol.recover_at == 0.9
        pol = kernel(attainment_threshold=0.9, recover_attainment=0.97)
        assert pol.recover_at == 0.97
        assert kernel(queue_threshold=1.0).recover_at is None


def _sim(policy, **kw):
    kw.setdefault("service_model", FakeService())
    kw.setdefault("policy", BatchingPolicy(max_batch=8, max_wait=1e-3))
    return ServingSimulator(n_replicas=2, max_queue=64,
                            variant_policy=policy, **kw)


OVERLOAD = 1600.0   # 2 replicas x 8/batch x ~12ms -> ~1333 req/s capacity


def _same_run(a, b):
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.batch_sizes, b.batch_sizes)
    assert (a.n_offered, a.n_dropped, a.n_failed) == \
               (b.n_offered, b.n_dropped, b.n_failed)


class TestOverloadServing:
    def test_disabled_policy_bit_identical(self):
        """A simulator with a policy that never triggers executes the
        exact instruction stream of the pre-variant simulator."""
        r0 = _sim(None).run(rate=OVERLOAD, n_requests=1200, seed=3)
        r1 = _sim(kernel(queue_threshold=1e9)).run(
            rate=OVERLOAD, n_requests=1200, seed=3)
        _same_run(r0, r1)
        assert r1.n_variant_switches == 0 and r1.n_downgraded == 0
        assert r0.n_downgraded == 0        # defaults are zero when off

    def test_queue_trigger_rescues_overload(self):
        slo = 0.05
        r0 = _sim(None).run(rate=OVERLOAD, n_requests=1500, seed=3)
        r1 = _sim(kernel(queue_threshold=0.05, hysteresis=0.4)).run(
            rate=OVERLOAD, n_requests=1500, seed=3)
        assert r0.attainment(slo) < 0.5            # baseline is drowning
        assert r1.attainment(slo) > 0.95           # fast variant rescues
        assert r1.n_variant_switches > 0
        assert 0 < r1.n_downgraded <= r1.n_offered
        assert r1.models is None                   # single model: totals only

    def test_hysteresis_reverts_and_traces(self):
        tr = Tracer()
        r = _sim(kernel(queue_threshold=0.05, hysteresis=0.4)).run(
            rate=OVERLOAD, n_requests=1500, seed=3, tracer=tr)
        switches = [e for e in tr.events if e.kind == "variant_switch"]
        assert len(switches) == r.n_variant_switches
        tos = [e.data["to"] for e in switches]
        assert "kernel" in tos and "base" in tos   # downgraded AND reverted
        for ev in switches:
            assert ev.data["queue_seconds"] >= 0

    def test_explicit_time_scale_overrides_service(self):
        """policy.time_scale wins over the service model's registered
        scale — scale 1.0 means the 'fast' variant changes nothing."""
        pol = kernel(queue_threshold=0.05, time_scale=1.0)
        r0 = _sim(None).run(rate=OVERLOAD, n_requests=800, seed=5)
        r1 = _sim(pol).run(rate=OVERLOAD, n_requests=800, seed=5)
        assert np.allclose(r0.latencies, r1.latencies)
        assert r1.n_variant_switches > 0           # triggered, no effect

    def test_unregistered_scale_rejected(self):
        with pytest.raises(ValueError, match="time_scale"):
            _sim(VariantPolicy(kind="quantized", queue_threshold=1.0))

    def test_service_time_model_variant_scale(self):
        from repro.sim.workload import hep_workload
        svc = ServiceTimeModel(hep_workload())
        svc.set_variant_scale("kernel", 0.5)
        assert svc.variant_batch_time("kernel", 4) == \
            pytest.approx(svc.batch_time(4) * 0.5)
        with pytest.raises(ValueError, match="scale"):
            svc.set_variant_scale("kernel", 1.5)

    def test_fast_core_guard(self):
        sim = _sim(kernel(queue_threshold=0.05))
        assert "variant" in unsupported_reason(sim)
        assert unsupported_reason(_sim(None)) is None


def _auto(policy=None, events=None, max_replicas=2, n_requests=1600,
          rate=OVERLOAD, seed=5, target=0.95):
    sim = AutoscalingSimulator(
        service_model=FakeService(),
        autoscale=AutoscalePolicy(min_replicas=2, max_replicas=max_replicas,
                                  target_attainment=target, epoch=0.1),
        policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
        max_queue=64, failure_events=events, variant_policy=policy)
    return sim.run(rate=rate, n_requests=n_requests, seed=seed)


class TestAttainmentTrigger:
    def test_downgrade_rescues_pinned_fleet(self):
        slo = 0.05
        r0 = _auto()
        r1 = _auto(kernel(attainment_threshold=0.95, hysteresis=0.5))
        assert r0.attainment(slo) < 0.5
        assert r1.attainment(slo) > 0.9
        assert r1.n_variant_switches > 0 and r1.n_downgraded > 0


class TestRepair:
    def test_failure_event_validation(self):
        ev = FailureEvent(time=1.0, node_id=0, kind="repair")
        assert ev.slow_factor == 1.0
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, node_id=0, kind="repair",
                         slow_factor=2.0)
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, node_id=0, kind="reboot")

    def test_repaired_fleet_scales_back_in(self):
        """Regression: degrade doubles the fleet; after the repair undoes
        the slowdown the autoscaler must scale back toward min."""
        events = [FailureEvent(time=0.15, node_id=0, kind="degrade",
                               slow_factor=4.0),
                  FailureEvent(time=0.6, node_id=0, kind="repair")]
        r = _auto(events=events, max_replicas=6, rate=1000.0,
                  n_requests=3000)
        repairs = [e for e in r.scale_events if e.action == "repair"]
        assert len(repairs) == 1
        assert repairs[0].delta == 0
        assert repairs[0].reason.cause == "node_repair"
        assert sum(e.n_repaired for e in r.epochs) == 1
        # n_degraded is a gauge: one slow replica while degraded, none
        # after the repair lands.
        assert max(e.n_degraded for e in r.epochs) == 1
        assert r.epochs[-1].n_degraded == 0
        # The fleet grew to absorb the slow replica, then came back down.
        sizes = [e.n_replicas for e in r.epochs]
        assert max(sizes) > 2
        assert sizes[-1] < max(sizes)

    def test_repair_without_degrade_is_noop(self):
        """Repairing a healthy replica neither counts nor changes the
        run; the event is recorded but n_repaired stays zero."""
        events = [FailureEvent(time=0.3, node_id=0, kind="repair")]
        r0 = _auto(rate=800.0, n_requests=1200)
        r1 = _auto(events=events, rate=800.0, n_requests=1200)
        assert sum(e.n_repaired for e in r1.epochs) == 0
        _same_run(r0, r1)

    def test_repair_traced(self):
        from repro.serve.router import Router
        from repro.cluster.machine import cori
        tr = Tracer()
        router = Router(cori(seed=0, jitter=False), 2, BatchingPolicy(),
                        lambda b: 0.01, tracer=tr)
        router.degrade_replica(0.0, 0, 3.0)
        rep = router.repair_replica(1.0, 0)
        assert rep.queue.slow_factor == 1.0
        evs = [e for e in tr.events if e.kind == "replica_repair"]
        assert len(evs) == 1
        assert evs[0].data["undone_slow_factor"] == 3.0
        # idempotent: repairing again undoes nothing
        assert router.repair_replica(2.0, 0).queue.slow_factor == 1.0
