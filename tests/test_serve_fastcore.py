"""Engine differential suite: the flat array core vs the event loop.

A ``ServingSimulator`` runs on the array core whenever its configuration
allows it, and that must be a pure implementation swap — never a behavior
change. :class:`repro.serve.reference.EventLoopSimulator` pins a run to the
event loop, so each comparison below is the same configuration on both.
Five layers pin that:

1. **Differential families** — the config families of the fast-core
   issues (plain; plain and cached under an indefinite ``max_wait``;
   cached Zipf; cached hot-key; cached+coalesce;
   multi-model; multi-model+cache; autoscaled+failures+degrades;
   edf+cost_aware) each run pinned to the event loop and on the engine
   the configuration implies, across 3 seeds, and must produce
   *bit-identical* :class:`LatencyStats` — latencies, batch sizes, drops,
   hits, horizon, every counter, every per-model slice. The array core
   natively drives the plain, cached, and multi-model families; the
   genuinely event-only ones (coalescing, autoscaling, edf/cost-aware)
   must land on the event loop (also asserted — a config silently
   landing on the wrong path is itself a failure).
2. **Support lattice** — every combination of the config axes the
   predicate reads (models x cache x coalesce x order x cost_aware) and
   tracing, built with no engine keyword, actually *runs*, and each lands
   on exactly the engine ``unsupported_reason()`` and this test's own
   support matrix claim, so the predicate can never silently drift from
   the dispatch. A profiler keeps a supported run on the array core.
3. **Oracle differential** — the array core vs the PR 4 frozen reference
   (:class:`repro.serve.reference.LinearServingSimulator`), so the chain
   oracle -> event loop -> array core is pinned end to end, including at
   a full 100k-request trace.
4. **Engine-parametrized properties** — the scheduler invariants
   (conservation, transport floor, batch-size bounds, determinism) re-run
   against both engines via one parametrized fixture over randomized
   configurations; plus a subprocess RSS smoke test bounding the
   10M-request drive's memory.
5. **Generated cross-engine differential** — the same randomized
   configurations (single-model or 1-3 profiles with per-model policies,
   ``max_wait`` in {0, 2ms, 10ms, inf}, an LRU cache or none) run on
   *both* engines and compared bit for bit. Layers 1-4 never compared
   engines on a drawn config, which is how two drifts between the (then
   three) array loops and the event loop survived; what this layer found
   is pinned as a named regression test.

A non-finite arrival rate is rejected before either engine runs, and a
configuration the engines would disagree on is refused when it is
constructed.
"""

import gc
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.serve import (
    LAUNCH_ORDERS,
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    HotKeyPopularity,
    MMPP,
    ModelMix,
    ModelProfile,
    ServingSimulator,
    Tracer,
    ZipfPopularity,
)
from repro.serve import fast_core
from repro.serve.obs import Profiler
from repro.serve.reference import EventLoopSimulator, LinearServingSimulator
from repro.sim.workload import hep_workload
from repro.utils.rng import as_rng

#: every differential must hold under each of these seeds
SEEDS = [11, 2024, 20260808]
N_CASES = 12
#: drawn configurations per seed in the generated cross-engine differential
N_DIFF_CASES = 100
#: the simulator each engine name builds: the engine the configuration
#: implies (the array core where it is supported), or the event loop pinned
SIM = {"array": ServingSimulator, "event": EventLoopSimulator}


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

    def est_request_cost(self, max_batch):
        return self.batch_time(max_batch) / max_batch


def _assert_same(a, b):
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.batch_sizes, b.batch_sizes)
    assert a.n_offered == b.n_offered
    assert a.n_dropped == b.n_dropped
    assert a.n_failed == b.n_failed
    assert a.n_cache_hits == b.n_cache_hits
    assert a.n_coalesced == b.n_coalesced
    assert a.horizon == b.horizon


def _assert_same_models(a, b):
    assert (a.models is None) == (b.models is None)
    for x, y in zip(a.models or (), b.models or ()):
        assert np.array_equal(x.latencies, y.latencies)
        assert (x.n_offered, x.n_dropped, x.n_failed,
                x.n_cache_hits, x.n_coalesced) \
            == (y.n_offered, y.n_dropped, y.n_failed,
                y.n_cache_hits, y.n_coalesced)


# -- the differential families --------------------------------------------------

def _plain(engine):
    return SIM[engine](hep_workload(), n_replicas=5,
                       policy=BatchingPolicy(max_batch=16),
                       max_queue=64)


def _cached_zipf(engine):
    # Native on the array core since PR 9: inline LRU fed from the same
    # (completion, request_ids) fill ordering the commit hook uses.
    return SIM[engine](hep_workload(), n_replicas=4,
                       policy=BatchingPolicy(max_batch=8),
                       cache_size=64)


def _cached_hot(engine):
    # The other popularity law, with a tight queue so shedding
    # interleaves with hits.
    return SIM[engine](hep_workload(), n_replicas=3,
                       policy=BatchingPolicy(max_batch=8),
                       cache_size=32, max_queue=16)


def _plain_inf_wait(engine):
    # A non-finite max_wait holds every partial batch for a B-th member;
    # the end-of-stream drain must fire what is left at max(free_at, last
    # member arrival), not at head + inf (the PR 2 drain bug, which two of
    # the three pre-merge array loops had re-introduced).
    return SIM[engine](hep_workload(), n_replicas=3,
                       policy=BatchingPolicy(max_batch=8,
                                             max_wait=math.inf),
                       max_queue=None)


def _cached_inf_wait(engine):
    # The same indefinite hold with the result cache in front.
    return SIM[engine](hep_workload(), n_replicas=3,
                       policy=BatchingPolicy(max_batch=8,
                                             max_wait=math.inf),
                       max_queue=None, cache_size=64)


def _coalesced(engine):
    # Request coalescing stays event-only: the in-flight ledger rides the
    # object router's failure bookkeeping.
    return SIM[engine](hep_workload(), n_replicas=4,
                       policy=BatchingPolicy(max_batch=8),
                       cache_size=64, coalesce=True)


def _multi_model(engine):
    # FakeService pair (one ~20x the other) instead of the real Fig 5
    # curves: the differential exercises lanes/weights/mix, not the perf
    # model, and the climate model's one-time evaluation is ~20s.
    return SIM[engine](
        models=[ModelProfile("cheap", None, weight=4.0),
                ModelProfile("dear", None, weight=1.0)],
        service_models=[FakeService(0.004, 0.001),
                        FakeService(0.08, 0.02)],
        model_mix=ModelMix((0.9, 0.1)), n_replicas=4,
        policy=BatchingPolicy(max_batch=8))


def _multi_model_cached(engine):
    # Both native extensions stacked: (model, content) cache keys over
    # per-model lanes, plus a per-model policy for the expensive model.
    return SIM[engine](
        models=[ModelProfile("cheap", None, weight=4.0),
                ModelProfile("dear", None, weight=1.0,
                        policy=BatchingPolicy(max_batch=4))],
        service_models=[FakeService(0.004, 0.001),
                        FakeService(0.08, 0.02)],
        model_mix=ModelMix((0.8, 0.2)), n_replicas=4, max_queue=32,
        policy=BatchingPolicy(max_batch=8), cache_size=48)


def _autoscaled(engine):
    # No engine keyword: the control loop always runs the event loop, so
    # both "engines" of this family are the same run.
    return AutoscalingSimulator(
        None, service_model=FakeService(),
        autoscale=AutoscalePolicy(min_replicas=2, max_replicas=4,
                             epoch=0.05),
        policy=BatchingPolicy(max_batch=8, max_wait=0.004),
        failure_events=[FailureEvent(0.3, 0, "fail"),
                        FailureEvent(0.5, 1, "degrade", 2.0)])


def _edf_cost_aware(engine):
    return SIM[engine](
        models=[ModelProfile("cheap", None),
                ModelProfile("dear", None)],
        service_models=[FakeService(0.004, 0.001),
                        FakeService(0.08, 0.02)],
        model_mix=ModelMix((0.7, 0.3)), n_replicas=4,
        policy=BatchingPolicy(max_batch=8), order="edf",
        cost_aware=True)


#: family -> (builder, the engine its configuration must actually run on)
FAMILIES = {
    "plain": (_plain, "array"),
    "plain-inf-wait": (_plain_inf_wait, "array"),
    "cached-inf-wait": (_cached_inf_wait, "array"),
    "cached-zipf": (_cached_zipf, "array"),
    "cached-hot": (_cached_hot, "array"),
    "cached-coalesce": (_coalesced, "event"),
    "multi-model": (_multi_model, "array"),
    "multi-model-cached": (_multi_model_cached, "array"),
    "autoscaled-failures": (_autoscaled, "event"),
    "edf-cost-aware": (_edf_cost_aware, "event"),
}

#: families whose run holds a live result cache
CACHED_FAMILIES = ("cached-zipf", "cached-hot", "cached-coalesce",
                   "cached-inf-wait", "multi-model-cached")
#: the cached families the array core drives itself
NATIVE_CACHED_FAMILIES = sorted(f for f in CACHED_FAMILIES
                                if FAMILIES[f][1] == "array")


@pytest.mark.parametrize("seed", SEEDS)
class TestEngineDifferential:
    def _run(self, family, engine, seed, **kw):
        build, _ = FAMILIES[family]
        sim = build(engine)
        rate = 0.9 * sim.saturation_rate()
        if family in CACHED_FAMILIES:
            kw["popularity"] = (
                HotKeyPopularity(n_keys=256, hot_keys=8)
                if family == "cached-hot"
                else ZipfPopularity(alpha=1.1, n_keys=256))
        process = "mmpp" if family == "plain" else "poisson"
        stats = sim.run(rate, n_requests=2500, process=process, seed=seed,
                        **kw)
        return sim, stats

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_identical_stats(self, family, seed):
        _, ev = self._run(family, "event", seed)
        _, ar = self._run(family, "array", seed)
        _assert_same(ev, ar)
        _assert_same_models(ev, ar)
        assert np.isfinite(ar.latencies).all() and np.isfinite(ar.horizon)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_runs_on_the_expected_path(self, family, seed):
        sim, _ = self._run(family, "array", seed)
        assert sim.last_run_engine == FAMILIES[family][1]
        if FAMILIES[family][1] == "array":
            assert fast_core.unsupported_reason(sim) is None
        elif not isinstance(sim, AutoscalingSimulator):
            # fixed-fleet fallbacks must name their reason
            assert fast_core.unsupported_reason(sim) is not None

    @pytest.mark.parametrize("family", NATIVE_CACHED_FAMILIES)
    def test_conservation_and_hit_identities(self, family, seed):
        sim, ar = self._run(family, "array", seed)
        assert sim.last_run_engine == "array"
        _, ev = self._run(family, "event", seed)
        # The cache must actually bite (a trivially-cold run would pin
        # nothing), and the hit ledger must agree exactly.
        assert ar.n_cache_hits > 0
        assert ar.n_cache_hits == ev.n_cache_hits
        assert ar.hit_rate == ev.hit_rate
        # Conservation: every offer completes or sheds; batch membership
        # covers exactly the completions that were not served from cache.
        assert len(ar.latencies) + ar.n_dropped == ar.n_offered
        assert int(ar.batch_sizes.sum()) \
            == len(ar.latencies) - ar.n_cache_hits


@pytest.mark.parametrize("seed", [4, 7, 21])
def test_superseded_launch_events_still_fire(seed):
    """Found by the generated differential below. The event loop pushes a
    launch event whenever an admit changes a replica's instant, so an
    instant that was superseded by an earlier one is still in its heap;
    when it fires it *touches* the replica, and a touch commits a
    determined full batch even if its launch lies in the future. The
    commit feeds the cache-fill heap, and
    a hit never syncs the router, so *when* a batch commits decides
    whether a later arrival of the same key finds it. An array loop that
    pushes only events earlier than the replica's earliest pending one
    loses hits on these seeds (one-request batches, a busy two-replica
    fleet: ~3% of seeds)."""
    kw = dict(n_replicas=2, policy=BatchingPolicy(max_batch=1,
                                                  max_wait=2e-3),
              max_queue=4, cache_size=16)
    event = EventLoopSimulator(None, service_model=FakeService(), **kw)
    fast = ServingSimulator(None, service_model=FakeService(), **kw)
    rate = 1.5 * event.saturation_rate()
    pop = ZipfPopularity(alpha=1.1, n_keys=64)
    ev = event.run(rate, 700, "mmpp", seed=seed, popularity=pop)
    ar = fast.run(rate, 700, "mmpp", seed=seed, popularity=pop)
    assert fast.last_run_engine == "array"
    _assert_same(ev, ar)


# -- the support lattice: dispatch can never drift from the predicate ----------

class TestSupportLattice:
    """Every combination of the config axes ``unsupported_reason`` reads,
    built with no engine keyword, must *run* on exactly the engine the
    predicate names and this test's own matrix claims."""

    AXES = [(models, cache, coalesce, order, cost_aware, traced)
            for models in (False, True)
            for cache in (0, 16)
            for coalesce in (False, True)
            for order in LAUNCH_ORDERS
            for cost_aware in (False, True)
            for traced in (False, True)]

    @staticmethod
    def _expected(models, cache, coalesce, order, cost_aware):
        # The test's independent support matrix: multi-model, cached and
        # traced runs are native; only these force the event loop.
        if coalesce or order != "fifo" or cost_aware:
            return "event"
        return "array"

    @staticmethod
    def _build(models, cache, coalesce, order, cost_aware,
               cls=ServingSimulator):
        kw = dict(policy=BatchingPolicy(max_batch=4), n_replicas=2,
                  max_queue=8, cache_size=cache, coalesce=coalesce,
                  order=order, cost_aware=cost_aware)
        if models:
            return cls(
                models=[ModelProfile("a", None, weight=2.0),
                        ModelProfile("b", None)],
                service_models=[FakeService(), FakeService(0.02, 0.004)],
                model_mix=ModelMix((0.7, 0.3)), **kw)
        return cls(None, service_model=FakeService(), **kw)

    def test_every_combination_lands_where_claimed(self):
        """... and a traced run on the array core records the event
        engine's trace, event for event."""
        assert len(self.AXES) == 64   # the lattice is genuinely full
        for axes in self.AXES:
            cache, traced = axes[1], axes[-1]
            sim = self._build(*axes[:-1])
            reason = fast_core.unsupported_reason(sim)
            expected = self._expected(*axes[:-1])
            assert (reason is None) == (expected == "array"), axes
            run = dict(rate=0.8 * sim.saturation_rate(), n_requests=60,
                       process="poisson", seed=3,
                       popularity="zipf" if cache else None)
            tracer = Tracer() if traced else None
            sim.run(tracer=tracer, **run)
            assert sim.last_run_engine == expected, axes
            if traced and expected == "array":
                oracle = Tracer()
                self._build(*axes[:-1], cls=EventLoopSimulator).run(
                    tracer=oracle, **run)
                assert tracer.events == oracle.events, axes
                assert len(tracer) == len(oracle)

    def test_a_profiled_run_stays_on_its_engine(self):
        """A profiler times the run's phases and never changes a result,
        so it keeps a supported run on the array core: the same stats as
        the unprofiled run, the ``run.*`` spans recorded, and no
        reference cycle left behind."""
        for models in (False, True):
            for cache in (0, 16):
                plain, sim = (self._build(models, cache, False, "fifo",
                                          False) for _ in range(2))
                run = dict(rate=1.2 * plain.saturation_rate(),
                           n_requests=400, process="poisson", seed=5,
                           popularity="zipf" if cache else None)
                want = plain.run(**run)
                prof = Profiler()
                gc.collect()
                gc.disable()
                try:
                    got = sim.run(profiler=prof, **run)
                    assert gc.collect() == 0
                finally:
                    gc.enable()
                assert sim.last_run_engine == "array"
                assert plain.last_run_engine == "array"
                _assert_same(got, want)
                _assert_same_models(got, want)
                assert {"run.arrivals", "run.drive",
                        "run.collect"} <= set(prof.totals())

    def test_the_event_loop_pin_runs_a_supported_config(self):
        sim = EventLoopSimulator(None, service_model=FakeService(),
                                 n_replicas=2)
        sim.run(100.0, n_requests=50, seed=0)
        assert sim.last_run_engine == "event"
        assert fast_core.unsupported_reason(sim) is None


class TestDeprecatedEngineKeyword:
    """``engine`` is a no-op kept for old callers: ``"array"`` runs what
    the configuration implies, and no value can ask for the event loop.
    (The keyword is spelled as a dict here: no caller may write it.)"""

    @pytest.mark.parametrize("value", ["event", "fast", None])
    def test_anything_but_array_is_refused(self, value):
        with pytest.raises(ValueError, match="engine"):
            ServingSimulator(None, service_model=FakeService(),
                             **{"engine": value})

    @pytest.mark.parametrize("order, expected", [("fifo", "array"),
                                                 ("edf", "event")])
    def test_array_runs_what_the_configuration_implies(self, order,
                                                       expected):
        sim = ServingSimulator(None, service_model=FakeService(),
                               n_replicas=2, order=order,
                               **{"engine": "array"})
        sim.run(100.0, n_requests=50, seed=0)
        assert sim.last_run_engine == expected


# -- sweeps run every point on the engine its configuration implies ----------

class TestSweeps:
    def test_rate_sweep_matches_the_event_loop(self):
        sims = [cls(None, service_model=FakeService(), n_replicas=2,
                    cache_size=8) for cls in SIM.values()]
        reports = [sim.sweep(n_requests=80, seed=1, popularity="zipf")
                   for sim in sims]
        assert [sim.last_run_engine for sim in sims] == list(SIM)
        a, b = (r.points for r in reports)
        assert len(a) == len(b) > 1
        for x, y in zip(a, b):
            assert x.rate == y.rate
            _assert_same(x.stats, y.stats)

    def test_cache_size_sweep_runs_on_the_array_core(self, monkeypatch):
        from repro.serve import sweep_cache_sizes
        drives = []
        drive = fast_core.drive
        monkeypatch.setattr(fast_core, "drive",
                            lambda sim, arrivals: drives.append(sim)
                            or drive(sim, arrivals))
        run = dict(n_requests=300, process="poisson", seed=2)
        sweep = sweep_cache_sizes(hep_workload(), sizes=[0, 8, 32],
                                  n_replicas=2, **run)
        # size 0 is in the supported class too (it is just the plain
        # path): every point runs on the array core
        assert [sim.cache_size for sim in drives] == [0, 8, 32]
        for size, point in zip(sweep.sizes, sweep.points):
            event = EventLoopSimulator(hep_workload(), n_replicas=2,
                                       cache_size=size)
            _assert_same(point, event.run(sweep.rate, popularity="zipf",
                                          **run))


# -- loud boundary: a non-finite rate never reaches either engine ---------------

class TestNonFiniteRateIsRejected:
    """A ``rate <= 0`` check alone lets NaN and inf through (both compare
    False): NaN yields stats with ``p99 = nan``, inf a run with every
    arrival at t0. ``make_arrivals`` is the one place every entry point,
    engine and process goes through."""

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0])
    def test_run_rejects_on_both_engines(self, engine, rate):
        sim = SIM[engine](None, service_model=FakeService(), n_replicas=2)
        for process in ("uniform", "poisson", "mmpp", MMPP(burst=4.0)):
            with pytest.raises(ValueError, match="positive and finite"):
                sim.run(rate=rate, n_requests=16, process=process)

    def test_sweep_rejects(self, engine):
        sim = SIM[engine](None, service_model=FakeService(), n_replicas=2)
        with pytest.raises(ValueError, match="positive and finite"):
            sim.sweep(rates=[math.nan], n_requests=16)


class TestRequestCountIsChecked:
    """``n_requests=2.5`` used to offer three requests under ``"uniform"``
    (``np.arange(2.5)``) while the trace metadata recorded two, and raise
    a NumPy ``TypeError`` under ``"poisson"`` and ``"mmpp"``, as did
    ``n_requests="4"`` under every process. ``make_arrivals`` checks the
    count before either engine sees it."""

    @pytest.mark.parametrize("n_requests", [2.5, "4", 0, -3, math.nan])
    def test_run_rejects_on_both_engines(self, engine, n_requests):
        sim = SIM[engine](None, service_model=FakeService(), n_replicas=2)
        for process in ("uniform", "poisson", "mmpp"):
            with pytest.raises(ValueError, match="n_requests"):
                sim.run(rate=10.0, n_requests=n_requests, process=process)

    def test_numpy_integer_count_runs(self, engine):
        sim = SIM[engine](None, service_model=FakeService(), n_replicas=2)
        for process in ("uniform", "poisson", "mmpp"):
            stats = sim.run(rate=10.0, n_requests=np.int64(3),
                            process=process)
            assert stats.n_offered == 3
            assert sim.last_run_engine == engine


class TestConstructionRejectsWhatTheEnginesDisagreeOn:
    """A fractional or NaN count and an infinite weight used to be
    accepted, then split the engines or crash one deep inside a run:
    ``max_queue=2.5`` shed more requests on the array core (``int(L) <<
    shift`` truncates it to 2) than on the event loop, NaN ran on one and
    died on the other, ``max_batch=2.5`` indexed a lane with a float,
    ``cache_size=2.5`` held 2 entries on the event loop (``int()``) and 3
    on the array core (``len(data) >= 2.5``), ``cache_size=nan`` died
    mid-run, and an infinite weight made a weight ratio NaN. Construction
    now refuses them, naming the field and the value."""

    @pytest.mark.parametrize("field, value", [
        ("n_replicas", 0), ("n_replicas", 1.5), ("max_queue", 0),
        ("max_queue", 2.5), ("max_queue", math.nan), ("max_queue", 8.0),
        ("cache_size", -1), ("cache_size", 2.5), ("cache_size", math.nan)])
    def test_counts(self, engine, field, value):
        for cls in (SIM[engine], AutoscalingSimulator):
            if cls is AutoscalingSimulator and field == "n_replicas":
                continue        # bounded by the autoscale policy instead
            with pytest.raises(ValueError,
                               match=f"{field} .*{re.escape(repr(value))}"):
                cls(None, service_model=FakeService(), **{field: value})

    @pytest.mark.parametrize("max_batch", [0, 2.5, math.nan])
    def test_max_batch(self, engine, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            SIM[engine](None, service_model=FakeService(),
                        policy=BatchingPolicy(max_batch=max_batch))

    @pytest.mark.parametrize("weight", [0.0, math.inf, math.nan])
    def test_weights(self, engine, weight):
        with pytest.raises(ValueError, match="weight"):
            SIM[engine](models=[ModelProfile("a", None, weight=weight),
                                ModelProfile("b", None)],
                        service_models=[FakeService(), FakeService()])
        with pytest.raises(ValueError, match="weights"):
            SIM[engine](models=[ModelProfile("a", None),
                                ModelProfile("b", None)],
                        service_models=[FakeService(), FakeService()],
                        model_mix=ModelMix((1.0, weight)))

    def test_numpy_integer_counts_are_counts(self):
        kw = dict(n_replicas=np.int64(2), max_queue=np.int64(3),
                  policy=BatchingPolicy(max_batch=np.int64(4)))
        ev, ar = (SIM[e](None, service_model=FakeService(), **kw).run(
                      900.0, n_requests=200, process="poisson", seed=1)
                  for e in ("event", "array"))
        assert ev.n_dropped > 0
        _assert_same(ev, ar)


# -- oracle differential: array core vs the PR 4 frozen reference --------------

class TestOracleDifferential:
    def _pair(self, **kw):
        ref = LinearServingSimulator(hep_workload(), **kw)
        fast = ServingSimulator(hep_workload(), **kw)
        return ref, fast

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reference_oracle_matches_array_core(self, seed):
        for q in (64, None):
            ref, fast = self._pair(n_replicas=3,
                                   policy=BatchingPolicy(max_batch=16),
                                   max_queue=q)
            rate = 1.1 * ref.saturation_rate()   # overload: sheds too
            _assert_same(ref.run(rate, 2500, "poisson", seed),
                         fast.run(rate, 2500, "poisson", seed))
            assert fast.last_run_engine == "array"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cached_class_at_scale(self, seed):
        # The PR 4 oracle predates the result cache (it refuses
        # cache_size != 0), so the cached chain is pinned event-vs-array
        # at a 20k trace instead — an order of magnitude past the family
        # runs, enough for thousands of evictions.
        kw = dict(n_replicas=8, policy=BatchingPolicy(max_batch=16),
                  max_queue=64, cache_size=32)
        event = EventLoopSimulator(hep_workload(), **kw)
        fast = ServingSimulator(hep_workload(), **kw)
        # well past saturation, with a cache much smaller than the
        # catalog: the head still deflects roughly half the load, so 4x
        # is what it takes for shedding to coexist with hits (and the
        # 64:1 key:slot ratio keeps evictions churning)
        rate = 4.0 * event.saturation_rate()
        pop = ZipfPopularity(alpha=1.1, n_keys=2048)
        a = event.run(rate, 20_000, "mmpp", seed, popularity=pop)
        b = fast.run(rate, 20_000, "mmpp", seed, popularity=pop)
        _assert_same(a, b)
        assert b.n_cache_hits > 0
        assert b.n_dropped > 0
        assert fast.last_run_engine == "array"

    def test_full_100k_trace(self):
        # The scale point of the issue's acceptance bar that fits in the
        # tier-1 budget; the 1M point lives in benchmarks/.
        ref, fast = self._pair(n_replicas=16,
                               policy=BatchingPolicy(max_batch=32),
                               max_queue=128)
        rate = 0.95 * ref.saturation_rate()
        _assert_same(ref.run(rate, 100_000, "mmpp", seed=7),
                     fast.run(rate, 100_000, "mmpp", seed=7))
        assert fast.last_run_engine == "array"


# -- engine-parametrized scheduler properties ----------------------------------

def _random_policy(rng):
    return BatchingPolicy(
        max_batch=int(rng.integers(1, 17)),
        max_wait=float(rng.choice([0.0, 2e-3, 1e-2, math.inf])),
        mode=str(rng.choice(["windowed", "continuous"])))


class _RandomCase:
    """One drawn array-supported configuration, buildable on either
    engine: the single-model form or 1-3 model profiles (random weights,
    mix, optional per-model policies), any ``max_wait`` including the
    indefinite hold, with or without a 16-entry cache under Zipf
    traffic."""

    def __init__(self, rng):
        n_models = int(rng.integers(0, 4))    # 0: the workload= form
        self.services = [
            FakeService(base=float(rng.uniform(1e-3, 8e-3)),
                        per=float(rng.uniform(2e-4, 2e-3)),
                        rtt=float(rng.uniform(5e-5, 2e-4)))
            for _ in range(max(1, n_models))]
        self.kw = dict(
            n_replicas=int(rng.integers(1, 9)), policy=_random_policy(rng),
            max_queue=[None, 4, 64][int(rng.integers(0, 3))],
            cache_size=int(rng.choice([0, 16])))
        if n_models:
            self.kw.update(
                models=[ModelProfile(
                    f"m{m}", None, weight=float(rng.uniform(0.5, 4.0)),
                    policy=_random_policy(rng) if rng.random() < 0.5
                    else None) for m in range(n_models)],
                service_models=self.services,
                model_mix=ModelMix(tuple(
                    rng.uniform(0.1, 1.0, n_models).tolist())))
        else:
            self.kw.update(workload=None, service_model=self.services[0])
        self.load = float(rng.uniform(0.3, 1.6))
        self.n = int(rng.integers(50, 800))
        self.process = str(rng.choice(["uniform", "poisson", "mmpp"]))

    def build(self, engine):
        return SIM[engine](**self.kw)

    def run(self, sim, seed):
        return sim.run(self.load * sim.saturation_rate(), self.n,
                       self.process, seed=seed,
                       popularity=ZipfPopularity(alpha=1.1, n_keys=64))


@pytest.fixture(params=["event", "array"])
def engine(request):
    return request.param


@pytest.mark.parametrize("seed", SEEDS)
class TestEngineProperties:
    def test_conservation_and_bounds(self, engine, seed):
        rng = as_rng(seed)
        for case in range(N_CASES):
            drawn = _RandomCase(rng)
            sim = drawn.build(engine)
            stats = drawn.run(sim, case)
            n = drawn.n
            # every offer completes or is shed up front
            assert len(stats.latencies) + stats.n_dropped == n
            assert stats.n_offered == n
            # completions not served from cache partition into batches
            # within policy bounds
            assert int(stats.batch_sizes.sum()) \
                == len(stats.latencies) - stats.n_cache_hits
            if len(stats.batch_sizes):
                assert stats.batch_sizes.min() >= 1
                assert stats.batch_sizes.max() <= max(
                    sim._policies[m].max_batch
                    for m in range(len(drawn.services)))
            # transport floor: no latency below one rtt (a cache hit),
            # plus one min batch when nothing hit
            if len(stats.latencies):
                floor = min(
                    svc.request_rtt()
                    + (0.0 if stats.n_cache_hits else svc.batch_time(1))
                    for svc in drawn.services)
                assert stats.latencies.min() >= floor - 1e-12
            assert sim.last_run_engine == engine

    def test_deterministic_rerun(self, engine, seed):
        drawn = _RandomCase(as_rng(seed))
        sim = drawn.build(engine)
        _assert_same(drawn.run(sim, seed), drawn.run(sim, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_configs_agree_across_engines(seed):
    """The cross-engine differential over *drawn* configurations, not
    hand-picked families: every case must be bit-identical on both
    engines and must actually run on the array core."""
    rng = as_rng(seed)
    for case in range(N_DIFF_CASES):
        drawn = _RandomCase(rng)
        event, fast = drawn.build("event"), drawn.build("array")
        ev, ar = drawn.run(event, case), drawn.run(fast, case)
        assert fast.last_run_engine == "array", drawn.kw
        _assert_same(ev, ar)
        _assert_same_models(ev, ar)
        assert np.isfinite(ar.latencies).all(), drawn.kw


# -- memory bound: the 10M-request drive must stay compact ---------------------

#: peak-RSS budget for a 10M-request / 64-replica array drive, measured
#: ~480 MB (arrivals + per-request numpy arrays + C-typed lane/batch
#: buffers); a regression to boxed-float lanes or Python-list batch
#: records blows past 2 GB. Subprocess-isolated so the parent's
#: allocations don't count toward the peak.
TEN_MILLION_RSS_BUDGET_MB = 1024

_RSS_SCRIPT = """
import resource, sys
import numpy as np
from repro.serve import BatchingPolicy, ServingSimulator

class FakeService:
    def batch_time(self, b):
        return 0.004 + 0.001 * b
    def request_rtt(self):
        return 1e-4
    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)
    def est_request_cost(self, max_batch):
        return self.batch_time(max_batch) / max_batch

sim = ServingSimulator(None, service_model=FakeService(), n_replicas=64,
                       policy=BatchingPolicy(max_batch=32), max_queue=128)
stats = sim.run(1.05 * sim.saturation_rate(), n_requests=10_000_000,
                process="poisson", seed=7)
assert sim.last_run_engine == "array"
assert stats.n_offered == 10_000_000
assert len(stats.latencies) + stats.n_dropped == 10_000_000
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.slow
def test_ten_million_request_drive_stays_within_rss_budget():
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    peak_kb = int(out.stdout.strip().splitlines()[-1])
    peak_mb = peak_kb / 1024.0
    assert peak_mb <= TEN_MILLION_RSS_BUDGET_MB, (
        f"10M-request drive peaked at {peak_mb:.0f} MB "
        f"(budget {TEN_MILLION_RSS_BUDGET_MB} MB)")
