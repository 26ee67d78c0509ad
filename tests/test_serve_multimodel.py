"""Multi-model serving: shared pool invariants and the pinned differential.

Three families of guarantees:

1. **Single-model is a strict special case** — a multi-model simulator
   with exactly one registered model is bit-identical to the classic
   single-model path (runs, sweeps, the autoscaled control loop, cached
   runs): same latencies, same drops, same horizon, same scale events.
   The multi-model machinery must cost the one-model configuration
   nothing, not even an RNG draw.
2. **Per-model conservation** — for every model and in aggregate,
   ``hits + replica completions + coalesced + shed + failed == offered``,
   under live autoscaling and injected node failures, across ≥3 seeds.
3. **Mechanism semantics** — batches never mix models and use each
   model's own service curve; weighted admission sheds the low-weight
   model first; a registry publish invalidates the superseded version's
   cache scope (a post-roll lookup can never return the old model's
   prediction); and duplicate in-flight misses coalesce onto the leader's
   forward.
"""

import math

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.models import build_hep_net
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchExecutor,
    BatchingPolicy,
    EpochRecord,
    ModelMix,
    ModelProfile,
    ModelRegistry,
    ReplicaBatchQueue,
    ResultCache,
    Router,
    ServingSimulator,
    make_model_ids,
)
from repro.serve.metrics import CacheSizeSweep, LatencyStats, PerModelStats
from repro.serve.obs import Tracer
from repro.serve.reference import EventLoopSimulator, LinearRouter
from repro.utils.rng import as_rng

SEEDS = [11, 4242, 20260729]


class FakeService:
    """Affine batch-time stand-in (duck-typed like ServiceTimeModel)."""

    def __init__(self, base=0.004, per=0.001, rtt=1e-4):
        self.base, self.per, self.rtt = base, per, rtt

    def batch_time(self, b):
        return self.base + self.per * b

    def request_rtt(self):
        return self.rtt

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)


def two_model_setup(w_hi=1.0, w_lo=1.0, slo_a=None, slo_b=None):
    profiles = [ModelProfile("alpha", None, weight=w_hi, slo=slo_a),
                ModelProfile("beta", None, weight=w_lo, slo=slo_b)]
    services = [FakeService(0.004, 0.001), FakeService(0.009, 0.002)]
    return profiles, services


# -- ModelMix ------------------------------------------------------------------

class TestModelMix:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelMix(())
        with pytest.raises(ValueError, match="positive"):
            ModelMix((1.0, 0.0))
        for mean_run in (0.5, float("nan")):
            with pytest.raises(ValueError, match="mean_run"):
                ModelMix((1.0, 1.0), mean_run=mean_run)

    def test_shares_normalize(self):
        mix = ModelMix((3.0, 1.0))
        assert np.allclose(mix.shares, [0.75, 0.25])

    def test_one_model_mix_consumes_no_randomness(self):
        """The single-model differential's foundation: a one-model mix
        leaves the generator untouched, so every downstream draw matches
        the classic simulator's stream."""
        rng = as_rng(5)
        before = rng.bit_generator.state
        ids = ModelMix((2.0,)).sample(64, rng)
        assert rng.bit_generator.state == before
        assert np.array_equal(ids, np.zeros(64, dtype=np.int64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_iid_shares_statistical(self, seed):
        mix = ModelMix((0.7, 0.3))
        ids = mix.sample(20000, as_rng(seed))
        assert abs((ids == 0).mean() - 0.7) < 0.02

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sticky_runs_keep_shares_and_lengthen_streaks(self, seed):
        mix = ModelMix((0.5, 0.5), mean_run=16.0)
        ids = mix.sample(40000, as_rng(seed))
        assert abs((ids == 0).mean() - 0.5) < 0.05
        switches = int((ids[1:] != ids[:-1]).sum())
        mean_streak = len(ids) / (switches + 1)
        # Resampling at 1/16 with a 0.5 chance of landing on the other
        # model -> switches ~ every 32 requests.
        assert mean_streak > 8.0

    def test_make_model_ids_specs(self):
        assert np.array_equal(make_model_ids(None, 5),
                              np.zeros(5, dtype=np.int64))
        a = make_model_ids((1.0, 1.0), 256, seed=1)
        b = make_model_ids(ModelMix((1.0, 1.0)), 256, seed=1)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="positive"):
            make_model_ids((1.0,), 0)


# -- per-model batch lanes -----------------------------------------------------

class TestModelLanes:
    def test_batches_never_mix_models(self):
        q = ReplicaBatchQueue([BatchingPolicy(max_batch=4, max_wait=1e-3)] * 2,
                              [lambda b: 0.01, lambda b: 0.02])
        for i in range(12):
            q.push(i * 1e-4, i, i % 2)
        q.drain()
        assert q.batches
        for b in q.batches:
            models = {rid % 2 for rid in b.request_ids}
            assert models == {b.model}

    def test_per_model_service_curves_apply(self):
        q = ReplicaBatchQueue([BatchingPolicy(max_batch=2, max_wait=0.0)] * 2,
                              [lambda b: 0.01, lambda b: 0.07])
        q.push(0.0, 0, 0)
        q.push(0.0, 1, 0)     # full model-0 batch: 0.01 s
        q.push(0.0, 2, 1)
        q.push(0.0, 3, 1)     # full model-1 batch: 0.07 s, after batch 0
        q.drain()
        assert [b.model for b in q.batches] == [0, 1]
        assert q.batches[0].completion == pytest.approx(0.01)
        assert q.batches[1].completion == pytest.approx(0.08)

    def test_lanes_serialize_on_one_replica(self):
        """Launch order across lanes is by launch instant: the shared
        free_at timeline means one replica never runs two models at
        once."""
        q = ReplicaBatchQueue([BatchingPolicy(max_batch=8, max_wait=0.0)] * 2,
                              [lambda b: 0.05, lambda b: 0.05])
        t = 0.0
        for i in range(40):
            q.push(t, i, i % 2)
            t += 0.001
        q.drain()
        for a, b in zip(q.batches, q.batches[1:]):
            assert b.start >= a.completion - 1e-12

    def test_evict_queued_reports_models(self):
        q = ReplicaBatchQueue([BatchingPolicy(max_batch=8, max_wait=10.0)] * 2,
                              [lambda b: 0.01] * 2)
        q.push(0.0, 0, 0)
        q.push(0.001, 1, 1)
        q.push(0.002, 2, 0)
        evicted = q.evict_queued(0.003)
        assert [(rid, m) for _, rid, m in evicted] == [(0, 0), (1, 1),
                                                       (2, 0)]

    def test_unknown_model_index_refused(self):
        q = ReplicaBatchQueue([BatchingPolicy()], [lambda b: 0.01])
        with pytest.raises(ValueError, match="model index"):
            q.push(0.0, 0, 1)

    def test_model_outside_the_fleet_refused_before_counting(self):
        # a single-model queue has one lane too: "model 3" is not served
        # on its one service curve
        q = ReplicaBatchQueue([BatchingPolicy()], [lambda b: 0.01])
        with pytest.raises(ValueError, match="model index"):
            q.push(0.0, 0, 3)
        assert not q.lanes
        one = Router(None, 1, [BatchingPolicy()], [lambda b: 0.01])
        two = Router(None, 2, [BatchingPolicy()] * 2, [lambda b: 0.01] * 2)
        for router, bad in ((one, 1), (one, -1), (two, 2), (two, -1)):
            with pytest.raises(ValueError, match="model index"):
                router.submit(0.0, 0, bad)
            assert router.n_offered == 0 and router.shed_ids == []
        assert two.submit(0.0, 0, 1) and two.n_offered == 1
        assert [rid for _, rid in two.replicas[0].queue.lanes[1]] == [0]

    def test_a_numpy_model_index_is_read_as_its_int(self):
        """The queue, the router and the linear oracle put a NumPy model
        index in its int's lane; the queue refuses 0.5 by name."""
        svc = [lambda b: 0.01] * 2
        q = ReplicaBatchQueue([BatchingPolicy()] * 2, svc)
        q.push(0.0, 0, np.int64(1))
        assert [rid for _, rid in q.lanes[1]] == [0]
        with pytest.raises(ValueError, match="model must be an integer"):
            q.push(0.0, 1, 0.5)
        for cls in (Router, LinearRouter):
            r = cls(None, 1, [BatchingPolicy()] * 2, svc)
            assert r.submit(0.0, 0, np.int64(1))
            assert [rid for _, rid in r.replicas[0].queue.lanes[1]] == [0]


# -- weighted admission ------------------------------------------------------

class TestWeightedAdmission:
    """The simulator turns profile weights into per-model limits
    (``admission_limits``); the router sheds on them."""

    def _router(self, weights, max_queue=8):
        svc = FakeService()
        sim = ServingSimulator(
            models=[ModelProfile(f"m{i}", None, weight=w)
                    for i, w in enumerate(weights)],
            service_models=[svc] * len(weights), max_queue=max_queue)
        return Router(None, 1,
                      [BatchingPolicy(max_batch=4, max_wait=1e-3)] * 2,
                      [svc.batch_time] * 2, limits=sim.admission_limits())

    def test_low_weight_model_shed_first(self):
        r = self._router([1.0, 0.25], max_queue=8)
        # Saturate the one replica instantly: all arrivals at t=0.
        outcomes = [(m, r.submit(0.0, i, m))
                    for i, m in enumerate([0, 1] * 8)]
        # Low-weight limit is ceil(8 * 0.25) = 2: beta is admitted only
        # while total backlog < 2; alpha fills the whole queue.
        beta_admitted = sum(ok for m, ok in outcomes if m == 1)
        alpha_admitted = sum(ok for m, ok in outcomes if m == 0)
        assert beta_admitted == 1
        assert alpha_admitted == 7
        assert sum(outcomes[i][0] == 1 for i in r.shed_ids) == 7
        # the shed column holds exactly the refused ids, in order
        assert r.shed_ids == [i for i, (_, ok) in enumerate(outcomes)
                              if not ok]

    def test_equal_weights_shed_together(self):
        r = self._router([1.0, 1.0], max_queue=8)
        ok = [r.submit(0.0, i, i % 2) for i in range(16)]
        assert sum(ok) == 8            # both models share the one limit
        assert sorted(i % 2 for i in r.shed_ids) == [0] * 4 + [1] * 4

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="admission limits"):
            self._router([1.0])        # 1 limit for 2 models
        with pytest.raises(ValueError, match="positive"):
            self._router([1.0, -1.0])


class TestMultiModelFleetChanges:
    """A multi-model fleet scales and fails like a single-model one:
    every live replica serves every model."""

    def _router(self, n_replicas=2):
        s0, s1 = FakeService(), FakeService(0.009, 0.002)
        return Router(None, n_replicas,
                      [BatchingPolicy(max_batch=4, max_wait=1e-3)] * 2,
                      [s0.batch_time, s1.batch_time])

    @staticmethod
    def _served(r):
        """request_id -> model of every launched batch, over live and
        retired replicas."""
        return {rid: b.model for b in r.batches() for rid in b.request_ids}

    def test_fleet_grows_and_shrinks_live(self):
        r = self._router()
        for i in range(20):
            assert r.submit(i * 1e-4, i, i % 2)
        added = r.add_replica(2e-3)
        for i in range(20, 40):
            assert r.submit(2e-3 + (i - 20) * 1e-4, i, i % 2)
        r.remove_replica(5e-3, pos=0)
        for i in range(40, 60):
            assert r.submit(6e-3 + (i - 40) * 1e-4, i, i % 2)
        r.drain()
        # every admitted request ran once, in a batch of its own model
        assert self._served(r) == {i: i % 2 for i in range(60)}
        assert set(r.completions()) == set(range(60))
        assert {b.model for b in added.queue.batches} == {0, 1}
        assert r.n_dropped == 0

    def test_a_failed_replica_leaves_every_model_routable(self):
        r = self._router(n_replicas=3)
        r.fail_replica(0.0, 2)
        # models in pairs, so each survivor's alternate turns see both
        for i in range(12):
            assert r.submit(i * 1e-4, i, i // 2 % 2)
        r.drain()
        assert self._served(r) == {i: i // 2 % 2 for i in range(12)}
        assert [rep.index for rep in r.replicas] == [0, 1]
        for rep in r.replicas:
            assert {b.model for b in rep.queue.batches} == {0, 1}


# -- the pinned single-model differential --------------------------------------

# The event-engine cases keep the ids they had before the engine axis
# existed ("[11]"); the array-engine ones are "[array-11]".
@pytest.mark.parametrize("engine, seed", [
    pytest.param(engine, seed,
                 id=str(seed) if engine == "event" else f"{engine}-{seed}")
    for engine in ("event", "array") for seed in SEEDS])
class TestSingleModelDifferential:
    """One registered model through the multi-model machinery must be
    bit-identical to the classic single-model simulator — on the event
    loop, and on the array core, where the two forms are literally the
    same drive loop with ``M == 1`` (autoscaled runs never leave the
    event loop, whichever engine is parametrized). The simulator holds a
    single model as a one-entry model list, so the two spellings run the
    same code; no scheduling knob, nor a trace, may tell them apart."""

    def _pair(self, engine, policy, n_replicas, **kw):
        # the event loop pinned, or the engine the configuration implies
        cls = EventLoopSimulator if engine == "event" else ServingSimulator
        classic = cls(None, service_models=[FakeService()],
                      n_replicas=n_replicas, policy=policy, **kw)
        multi = cls(models=[ModelProfile("only", None)],
                    service_models=[FakeService()],
                    model_mix=ModelMix((1.0,)), n_replicas=n_replicas,
                    policy=policy, **kw)
        assert classic.saturation_rate() == multi.saturation_rate()
        return classic, multi

    @staticmethod
    def _assert_same(a: LatencyStats, b: LatencyStats):
        assert np.array_equal(a.latencies, b.latencies)
        assert a.n_offered == b.n_offered
        assert a.n_dropped == b.n_dropped
        assert a.n_failed == b.n_failed
        assert a.n_cache_hits == b.n_cache_hits
        assert a.horizon == b.horizon
        assert np.array_equal(a.batch_sizes, b.batch_sizes)

    def test_runs_identical(self, engine, seed):
        rng = as_rng(seed)
        for process in ("uniform", "poisson", "mmpp"):
            policy = BatchingPolicy(max_batch=int(rng.integers(2, 9)),
                                    max_wait=1e-3)
            classic, multi = self._pair(engine, policy,
                                        int(rng.integers(1, 5)))
            rate = float(rng.uniform(0.4, 1.6)) * classic.saturation_rate()
            a = classic.run(rate, n_requests=700, process=process, seed=seed)
            b = multi.run(rate, n_requests=700, process=process, seed=seed)
            self._assert_same(a, b)
            assert classic.last_run_engine == multi.last_run_engine \
                == engine
            # ...and the multi path carried its one per-model slice.
            assert b.models is not None and len(b.models) == 1
            assert b.models[0].n_offered == a.n_offered

    def test_cached_runs_identical(self, engine, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        classic, multi = self._pair(engine, policy, 2, cache_size=16)
        rate = 1.2 * classic.saturation_rate()
        a = classic.run(rate, n_requests=900, process="poisson", seed=seed,
                        popularity="zipf")
        b = multi.run(rate, n_requests=900, process="poisson", seed=seed,
                      popularity="zipf")
        self._assert_same(a, b)
        assert a.n_cache_hits > 0      # the comparison had teeth

    @pytest.mark.parametrize("knobs", [
        dict(order="edf", max_queue=16),
        dict(cost_aware=True, max_queue=16),
        # a queue shorter than one batch: the spelling the cross-model
        # admission floor (one max batch per model) used to widen
        dict(cost_aware=True, max_queue=3),
        dict(order="edf", cost_aware=True, max_queue=3),
        dict(coalesce=True, cache_size=16),
    ], ids=["edf", "cost", "cost-small-queue", "edf-cost-small-queue",
            "coalesce-cached"])
    def test_scheduling_knobs_identical(self, engine, seed, knobs):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        classic, multi = self._pair(engine, policy, 2, **knobs)
        rate = 1.3 * classic.saturation_rate()
        a = classic.run(rate, n_requests=900, process="poisson", seed=seed,
                        popularity="zipf")
        b = multi.run(rate, n_requests=900, process="poisson", seed=seed,
                      popularity="zipf")
        self._assert_same(a, b)
        assert a.n_dropped or a.n_coalesced    # the comparison had teeth
        assert classic.last_run_engine == multi.last_run_engine

    def test_traces_identical(self, engine, seed):
        """A traced run is the same event stream, event for event, under
        either spelling; only the model's name in the metadata differs."""
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        classic, multi = self._pair(engine, policy, 2, max_queue=6,
                                    cache_size=8, coalesce=True)
        rate = 1.3 * classic.saturation_rate()
        runs = []
        for sim in (classic, multi):
            tracer = Tracer()
            stats = sim.run(rate, n_requests=600, process="poisson",
                            seed=seed, popularity="zipf", tracer=tracer)
            events = [e for e in tracer.events if e.kind != "run_start"]
            runs.append((stats, dict(tracer.meta, models=None), events))
        (a, meta_a, events_a), (b, meta_b, events_b) = runs
        self._assert_same(a, b)
        assert meta_a == meta_b
        kinds = {e.kind for e in events_a}
        assert {"shed", "coalesce", "cache_hit", "complete"} <= kinds
        assert events_a == events_b

    def test_sweeps_identical(self, engine, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        classic, multi = self._pair(engine, policy, 2)
        rates = [f * classic.saturation_rate() for f in (0.25, 1.0, 1.5)]
        ra = classic.sweep(rates=rates, n_requests=400, seed=seed,
                           process="mmpp")
        rb = multi.sweep(rates=rates, n_requests=400, seed=seed,
                         process="mmpp")
        assert ra.slo == rb.slo
        assert np.array_equal(ra.p99_curve, rb.p99_curve)
        assert np.array_equal(ra.attainment_curve, rb.attainment_curve)

    def test_autoscaled_identical(self, engine, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=4,
                              target_attainment=0.95, epoch=0.15)
        events = [FailureEvent(time=0.4, node_id=0, kind="fail")]
        # the autoscaler has no engine keyword: it runs the event loop
        kw = dict(autoscale=cfg, policy=policy, failure_events=events)
        classic = AutoscalingSimulator(None, service_models=[FakeService()],
                                       **kw)
        multi = AutoscalingSimulator(models=[ModelProfile("only", None)],
                                     service_models=[FakeService()], **kw)
        rate = 0.9 * classic.saturation_rate()
        a = classic.run(rate, n_requests=2000, process="mmpp", seed=seed)
        b = multi.run(rate, n_requests=2000, process="mmpp", seed=seed)
        self._assert_same(a, b)
        assert a.mean_replicas == b.mean_replicas
        assert [(e.time, e.action, e.delta) for e in a.scale_events] == \
            [(e.time, e.action, e.delta) for e in b.scale_events]
        # Per-model epoch signal degenerates to the aggregate.
        for ra, rb in zip(a.epochs, b.epochs):
            assert ra.attainment == rb.attainment or (
                math.isnan(ra.attainment) and math.isnan(rb.attainment))
            assert rb.control_attainment == rb.attainment or (
                math.isnan(rb.attainment)
                and math.isnan(rb.control_attainment))


# -- per-model conservation under autoscaling + failures -----------------------

@pytest.mark.parametrize("seed", SEEDS)
class TestPerModelConservation:
    def test_conservation_under_scaling_and_failures(self, seed):
        rng = as_rng(seed)
        profiles, services = two_model_setup(w_hi=1.0,
                                             w_lo=float(rng.uniform(0.2, 1)))
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=5,
                              target_attainment=0.95, epoch=0.1)
        events = [FailureEvent(time=float(rng.uniform(0.1, 0.5)),
                               node_id=int(rng.integers(0, 4)),
                               kind="fail")]
        sim = AutoscalingSimulator(
            models=profiles, service_models=services,
            model_mix=ModelMix((0.6, 0.4),
                               mean_run=float(rng.choice([1.0, 8.0]))),
            autoscale=cfg, max_queue=16,
            policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
            failure_events=events, cache_size=32, coalesce=True)
        rate = float(rng.uniform(0.8, 1.6)) * sim.saturation_rate()
        stats = sim.run(rate, n_requests=2500, process="mmpp", seed=seed,
                        popularity="zipf")
        assert stats.models is not None
        for m in stats.models:
            # hits + replica completions + coalesced rides are all inside
            # n_completed; every offered request resolves exactly once.
            assert m.n_completed + m.n_dropped + m.n_failed == m.n_offered, \
                m.name
        # ...and the per-model slices tile the aggregate exactly.
        for field in ("n_offered", "n_completed", "n_dropped", "n_failed",
                      "n_cache_hits", "n_coalesced"):
            assert sum(getattr(m, field) for m in stats.models) == \
                getattr(stats, field), field
        assert stats.n_completed + stats.n_dropped + stats.n_failed \
            == stats.n_offered

    def test_reproducible_bitwise(self, seed):
        profiles, services = two_model_setup(w_lo=0.5)
        kw = dict(models=profiles, service_models=services,
                  model_mix=ModelMix((0.7, 0.3), mean_run=4.0),
                  n_replicas=2, policy=BatchingPolicy(max_batch=8,
                                                      max_wait=1e-3))
        a = ServingSimulator(**kw).run(900.0, n_requests=1200,
                                       process="mmpp", seed=seed)
        b = ServingSimulator(**kw).run(900.0, n_requests=1200,
                                       process="mmpp", seed=seed)
        assert np.array_equal(a.latencies, b.latencies)
        assert [m.n_offered for m in a.models] == \
            [m.n_offered for m in b.models]


# -- request coalescing --------------------------------------------------------

class TestCoalescing:
    def _sim(self, coalesce, cache_size=8, n_replicas=1):
        return ServingSimulator(
            None, service_models=[FakeService(base=0.02)],
            n_replicas=n_replicas, cache_size=cache_size,
            policy=BatchingPolicy(max_batch=4, max_wait=1e-3),
            coalesce=coalesce)

    def test_duplicates_ride_the_leader(self):
        from repro.serve import HotKeyPopularity
        pop = HotKeyPopularity(n_keys=32, hot_keys=1, hot_fraction=0.95,
                               mean_streak=32)
        stats = self._sim(True).run(2000.0, n_requests=1500,
                                    process="poisson", seed=1,
                                    popularity=pop)
        assert stats.n_coalesced > 0
        assert stats.n_completed + stats.n_dropped + stats.n_failed \
            == stats.n_offered
        base = self._sim(False).run(2000.0, n_requests=1500,
                                    process="poisson", seed=1,
                                    popularity=pop)
        # Followers free replica slots: fewer requests ever hit a queue.
        assert stats.n_dropped <= base.n_dropped
        assert stats.batch_sizes.sum() < base.batch_sizes.sum()

    def test_follower_completes_at_leader_finish_plus_rtt(self):
        svc = FakeService(base=0.05, per=0.0, rtt=1e-3)
        sim = ServingSimulator(None, service_models=[svc], n_replicas=1,
                               cache_size=4,
                               policy=BatchingPolicy(max_batch=1,
                                                     max_wait=0.0),
                               coalesce=True)
        from repro.serve import UniformPopularity
        # Two requests, same key (catalog of 1), second arrives while the
        # first is in service.
        stats = sim.run(100.0, n_requests=2, seed=0,
                        popularity=UniformPopularity(n_keys=1))
        assert stats.n_coalesced == 1
        leader_latency = 0.05 + svc.rtt            # service + transport
        follower_latency = (0.05 - 0.01) + svc.rtt  # leader done at t=.05
        assert sorted(stats.latencies) == pytest.approx(
            sorted([leader_latency, follower_latency]))

    def test_coalesce_off_is_default_and_identical(self):
        a = self._sim(False).run(1500.0, n_requests=800, seed=3,
                                 popularity="zipf")
        b = ServingSimulator(None, service_models=[FakeService(base=0.02)],
                             n_replicas=1, cache_size=8,
                             policy=BatchingPolicy(max_batch=4,
                                                   max_wait=1e-3)).run(
            1500.0, n_requests=800, seed=3, popularity="zipf")
        assert np.array_equal(a.latencies, b.latencies)
        assert a.n_coalesced == b.n_coalesced == 0

    def test_dead_leader_strands_followers_as_failures(self):
        svc = FakeService(base=0.5, per=0.0, rtt=1e-3)
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=1, epoch=10.0)
        from repro.serve import UniformPopularity
        sim = AutoscalingSimulator(
            None, service_models=[svc], autoscale=cfg, cache_size=4,
            policy=BatchingPolicy(max_batch=1, max_wait=0.0),
            coalesce=True,
            failure_events=[FailureEvent(time=0.3, node_id=0,
                                         kind="fail")])
        # Same-key arrivals at 0, 0.1, ..., 0.4; the leader's batch
        # completes at 0.5 > failure time 0.3 -> the leader and both
        # followers riding it are lost; the two post-failure arrivals
        # find no replica (no epoch closes to repair) and are shed.
        stats = sim.run(10.0, n_requests=5, seed=0,
                        popularity=UniformPopularity(n_keys=1))
        assert stats.n_failed == 3
        assert stats.n_coalesced == 0
        assert stats.n_completed == 0
        assert stats.n_dropped == 2
        assert stats.n_offered == 5

    def test_coalescing_without_storage(self):
        """cache_size=0 + coalesce: pure in-flight dedup, no memoization."""
        from repro.serve import UniformPopularity
        sim = self._sim(True, cache_size=0)
        stats = sim.run(2000.0, n_requests=600, seed=2,
                        popularity=UniformPopularity(n_keys=4))
        assert stats.n_cache_hits == 0
        assert stats.n_coalesced > 0

    def test_slow_duplicates_hit_after_leader_completes(self):
        """Regression: arrivals that never reach router.submit (hits,
        followers) must still fire due batch commits. Without the
        explicit sync, a slow same-key stream coalesced forever onto a
        leader whose batch completed long ago — the ledger never
        cleared, the cache never filled, and follower 'latencies' went
        negative (completion far in the past of the arrival)."""
        from repro.serve import UniformPopularity
        svc = FakeService(base=0.01, per=0.0, rtt=1e-4)
        sim = ServingSimulator(None, service_models=[svc], n_replicas=1,
                               cache_size=4,
                               policy=BatchingPolicy(max_batch=1,
                                                     max_wait=0.0),
                               coalesce=True)
        # One request every 20 s, all the same key: the leader finishes
        # in ~10 ms, so every later arrival must be a cache *hit*.
        stats = sim.run(0.05, n_requests=10, seed=0,
                        popularity=UniformPopularity(n_keys=1))
        assert (stats.latencies > 0).all()
        assert stats.n_cache_hits == 9
        assert stats.n_coalesced == 0

    def test_stale_fill_does_not_evict_a_reled_leader(self):
        """Regression: a dead leader's queued fill event must not clear
        the in-flight entry of the duplicate that re-led the key — later
        duplicates would silently stop coalescing."""
        from repro.serve import UniformPopularity
        svc = FakeService(base=0.45, per=0.0, rtt=1e-3)
        cfg = AutoscalePolicy(min_replicas=2, max_replicas=2, epoch=50.0)
        sim = AutoscalingSimulator(
            None, service_models=[svc], autoscale=cfg, n_replicas=2,
            cache_size=0, coalesce=True,
            policy=BatchingPolicy(max_batch=1, max_wait=0.0),
            failure_events=[FailureEvent(time=0.15, node_id=0,
                                         kind="fail")])
        # Same key at t=0,0.1,...,0.6. Leader 0's replica dies at 0.15
        # (its fill event for t=0.45 is already queued); request 2
        # re-leads on the survivor; requests 3-6 must all ride leader 2
        # — including the ones arriving after the stale fill pops.
        stats = sim.run(10.0, n_requests=7, seed=0,
                        popularity=UniformPopularity(n_keys=1))
        assert stats.n_failed == 2          # leader 0 + its follower 1
        assert stats.n_coalesced == 4       # 3, 4, 5, 6 all rode 2
        assert stats.n_completed == 5
        assert int(stats.batch_sizes.sum()) == 1   # one live forward


# -- cache invalidation on registry publish ------------------------------------

class TestPublishInvalidation:
    def _registry(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=0), (3, 16, 16))
        return reg

    def test_publish_evicts_superseded_scope(self, tmp_path):
        reg = self._registry(tmp_path)
        cache = ResultCache(64)
        reg.attach_cache(cache)
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=0))
        v1 = reg.load("hep")
        ex = BatchExecutor(v1, cache=cache)
        x = as_rng(0).normal(size=(3, 16, 16)).astype(np.float32)
        out_v1 = ex.run([x], BatchingPolicy())[0]
        assert len(cache) == 1
        # Roll: publish v2 (different weights). v1's entries must go.
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=1))
        assert len(cache) == 0
        assert cache.invalidations == 1
        # A post-roll request through the new replica recomputes: the hit
        # can never be v1's prediction.
        v2 = reg.load("hep")
        out_v2 = BatchExecutor(v2, cache=cache).run(
            [x], BatchingPolicy())[0]
        assert not np.array_equal(out_v1, out_v2)
        again = BatchExecutor(v2, cache=cache).run(
            [x], BatchingPolicy())[0]
        assert np.array_equal(out_v2, again)       # v2's own hit, bitwise

    def test_current_version_survives_republish_of_other_model(self,
                                                               tmp_path):
        reg = self._registry(tmp_path)
        reg.register("other", lambda: build_hep_net(filters=8, n_units=3,
                                                    rng=0), (3, 16, 16))
        cache = ResultCache(64)
        reg.attach_cache(cache)
        reg.publish("hep", build_hep_net(filters=8, n_units=3, rng=0))
        ex = BatchExecutor(reg.load("hep"), cache=cache)
        x = np.zeros((3, 16, 16), dtype=np.float32)
        ex.run([x], BatchingPolicy())
        assert len(cache) == 1
        reg.publish("other", build_hep_net(filters=8, n_units=3, rng=2))
        assert len(cache) == 1                     # hep's entry untouched

    def test_invalidate_scope_keeps_the_survivors_recency(self):
        cache = ResultCache(4)
        cache.put((("m", 2), "b"), 2)
        cache.put((("m", 1), "a"), 1)
        cache.put((("m", 2), "c"), 3)
        cache.get((("m", 2), "b"))                 # b is now most recent
        assert cache.invalidate_scope(("m", 1)) == 1
        assert len(cache) == 2 and cache.evictions == 0
        # The freed slot fills without an eviction; after that the
        # victims are the survivors in their old recency order.
        cache.put((("m", 2), "d"), 4)
        cache.put((("m", 2), "e"), 5)
        assert cache.evictions == 0 and len(cache) == 4
        cache.put((("m", 2), "f"), 6)
        assert (("m", 2), "c") not in cache
        cache.put((("m", 2), "g"), 7)
        assert (("m", 2), "b") not in cache
        assert cache.evictions == 2 and len(cache) == 4


# -- metrics satellites --------------------------------------------------------

class TestMetricsAdditions:
    def _stats(self, horizon):
        return LatencyStats(latencies=np.array([0.01]), n_offered=1,
                            horizon=horizon)

    def test_cache_size_sweep_rejects_zero_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            CacheSizeSweep(slo=0.1, rate=10.0, sizes=[0],
                           points=[self._stats(0.0)])
        CacheSizeSweep(slo=0.1, rate=10.0, sizes=[0],
                       points=[self._stats(1.0)])   # fine

    def test_per_model_stats_conservation_guard(self):
        with pytest.raises(ValueError, match="exceed offered"):
            PerModelStats(name="m", slo=0.1, weight=1.0,
                          latencies=np.array([0.01, 0.02]), n_offered=1)
        with pytest.raises(ValueError, match="exceed completed"):
            PerModelStats(name="m", slo=0.1, weight=1.0,
                          latencies=np.array([0.01]), n_offered=2,
                          n_cache_hits=2)

    def test_control_attainment_worst_of_models(self):
        rec = EpochRecord(index=1, t_start=0.0, t_end=1.0, n_replicas=2,
                          n_arrived=10, n_completed=8, n_ok=7, n_doomed=0,
                          n_shed=0, attainment=0.875,
                          mean_batch_size=4.0, occupancy=0.5,
                          queue_depth=0,
                          model_attainment=(1.0, 0.5, float("nan")))
        assert rec.control_attainment == 0.5
        bare = EpochRecord(index=1, t_start=0.0, t_end=1.0, n_replicas=2,
                           n_arrived=10, n_completed=8, n_ok=7, n_doomed=0,
                           n_shed=0, attainment=0.875,
                           mean_batch_size=4.0, occupancy=0.5,
                           queue_depth=0)
        assert bare.control_attainment == 0.875

    def test_latency_stats_model_lookup(self):
        pm = PerModelStats(name="alpha", slo=0.1, weight=1.0,
                           latencies=np.array([0.01]), n_offered=1)
        s = LatencyStats(latencies=np.array([0.01]), n_offered=1,
                         models=[pm])
        assert s.model("alpha") is pm
        with pytest.raises(KeyError, match="beta"):
            s.model("beta")


# -- registry profiles ---------------------------------------------------------

class TestRegistryProfiles:
    def test_profiles_roundtrip(self, tmp_path):
        from repro.sim.workload import custom_workload
        net = build_hep_net(filters=8, n_units=3, rng=0)
        wl = custom_workload("tiny", net, (3, 16, 16))
        reg = ModelRegistry(tmp_path)
        reg.register("hep", lambda: build_hep_net(filters=8, n_units=3,
                                                  rng=0), (3, 16, 16),
                     workload=wl, slo=0.25, weight=2.0)
        reg.register("bare", lambda: None, (1,))
        profiles = reg.profiles()
        assert [p.name for p in profiles] == ["hep"]   # bare: no workload
        p = reg.profile("hep")
        assert p.slo == 0.25 and p.weight == 2.0 and p.workload is wl
        with pytest.raises(ValueError, match="workload"):
            reg.profile("bare")
        # profiles feed the simulator directly
        sim = ServingSimulator(models=profiles)
        assert sim.model_slos() == [0.25]

    def test_register_validates_profile_fields(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="weight"):
            reg.register("x", lambda: None, (1,), weight=0.0)
        with pytest.raises(ValueError, match="slo"):
            reg.register("y", lambda: None, (1,), slo=-1.0)

    def test_failed_register_leaves_no_trace(self, tmp_path):
        """Regression: validation must run before any mutation — a
        rejected register used to wedge the name forever ('already
        registered' on the corrected retry)."""
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="slo"):
            reg.register("m", lambda: None, (1,), slo=-1.0)
        assert reg.names() == []
        reg.register("m", lambda: None, (1,), slo=1.0)   # retry works
        assert reg.names() == ["m"]
