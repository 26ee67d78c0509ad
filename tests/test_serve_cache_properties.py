"""Property tests for the result cache and the serving hot-path rewrite.

Four claims from the cache/perf PR, each pinned here:

1. **Cache correctness** — a hit returns the memoized prediction
   bitwise-identically to the cold forward that produced it; LRU
   eviction matches a naive reference model decision-for-decision under
   random traces; a result can be served only after some replica actually
   produced it (and never from an aborted batch).
2. **Refactor is behavior-identical** — the heap router, the incremental
   batch-time clamp, and the vectorized drive loop produce bit-identical
   simulations to :mod:`repro.serve.reference` (the frozen pre-PR code),
   with ``cache_size=0``, across processes, fleets, and live autoscaling
   with failures.
3. **Conservation** — hits + replica completions + shed + failed ==
   offered, under static fleets and under live autoscaling.
4. **Post-cache control** — the autoscaler's epoch records count only
   miss traffic; cache hits are invisible to the controller.
"""

import math

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchExecutor,
    BatchingPolicy,
    HotKeyPopularity,
    ResultCache,
    ServingSimulator,
    UniformPopularity,
    ZipfPopularity,
    content_key,
    make_contents,
    sweep_cache_sizes,
)
from repro.serve.latency import ServiceTimeModel
from repro.serve.reference import (
    EventLoopSimulator,
    LinearAutoscalingSimulator,
    LinearRouter,
    LinearServiceTimeModel,
    LinearServingSimulator,
)
from repro.serve.router import Router
from repro.utils.rng import as_rng

#: every property must hold under each of these seeds (exercised in CI)
SEEDS = [11, 4242, 20260729]


class FakeService:
    """Duck-typed ServiceTimeModel stand-in: affine batch time, fast."""

    def __init__(self, base=0.004, per=0.001, rtt=1e-4):
        self.base, self.per, self.rtt = base, per, rtt

    def batch_time(self, b):
        return self.base + self.per * b

    def request_rtt(self):
        return self.rtt

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)


# -- 1. the cache itself -------------------------------------------------------

class ReferenceCache:
    """Naive O(n) model of ResultCache semantics, for differential tests:
    evict the key with the oldest last-touch; a refresh (put of a held
    key) counts as a touch.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}          # key -> (last_touch, value)
        self.clock = 0

    def _touch(self, key, value):
        self.clock += 1
        self.data[key] = (self.clock, value)

    def get(self, key):
        if key not in self.data:
            return False, None
        value = self.data[key][1]
        self._touch(key, value)
        return True, value

    def put(self, key, value):
        if self.capacity == 0:
            return
        if key not in self.data and len(self.data) >= self.capacity:
            del self.data[min(self.data, key=lambda k: self.data[k][0])]
        self._touch(key, value)


class TestResultCache:
    def test_validation(self):
        for capacity in (-1, 2.5, math.nan):
            with pytest.raises(ValueError, match="capacity"):
                ResultCache(capacity)

    def test_lru_evicts_least_recently_used(self):
        c = ResultCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == (True, 1)   # refresh a: b is now the victim
        c.put("c", 3)
        assert "b" not in c and "a" in c and "c" in c
        assert c.evictions == 1

    def test_lru_evicts_a_frequent_key_once_it_is_least_recent(self):
        # Recency alone picks the victim: five hits do not protect a key
        # that two newer ones have since passed.
        c = ResultCache(2)
        c.put("hot", 1)
        for _ in range(5):
            assert c.get("hot") == (True, 1)
        c.put("one", 2)
        c.put("two", 3)
        assert "hot" not in c and "one" in c and "two" in c
        assert c.evictions == 1

    def test_refresh_replaces_the_value_and_counts_as_a_use(self):
        c = ResultCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)                   # refresh: b is now the victim
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == (True, 10)
        # a refresh is neither an insertion nor an eviction
        assert (c.insertions, c.evictions) == (3, 1)

    def test_capacity_zero_is_inert(self):
        c = ResultCache(0)
        c.put("a", 1)
        assert len(c) == 0
        assert c.get("a") == (False, None)
        assert c.misses == 1 and c.hits == 0 and c.insertions == 0

    def test_stats_and_clear(self):
        c = ResultCache(4)
        c.put("a", 1)
        assert c.get("a")[0] and not c.get("b")[0]
        assert (c.hits, c.misses, c.lookups) == (1, 1, 2)
        assert c.hit_rate == 0.5
        c.clear()
        assert len(c) == 0 and c.hits == 1   # counters describe the trace

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eviction_matches_reference_model(self, seed):
        """Decision-for-decision agreement with the naive model on random
        get/put traces, plus the capacity bound at every step."""
        rng = as_rng(seed)
        cache = ResultCache(int(rng.integers(1, 9)))
        ref = ReferenceCache(cache.capacity)
        keys = [f"k{i}" for i in range(int(rng.integers(4, 24)))]
        for step in range(600):
            key = keys[int(rng.integers(0, len(keys)))]
            if rng.random() < 0.5:
                got, ref_got = cache.get(key), ref.get(key)
                assert got == ref_got, f"step {step}: {got} != {ref_got}"
            else:
                value = step
                cache.put(key, value)
                ref.put(key, value)
            assert len(cache) == len(ref.data) <= cache.capacity
            assert set(ref.data) == {k for k in keys if k in cache}


class TestContentKey:
    def test_equal_arrays_equal_keys(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert content_key(a) == content_key(a.copy())

    def test_sensitive_to_value_shape_dtype(self):
        a = np.arange(12, dtype=np.float32)
        keys = {content_key(a),
                content_key(a.reshape(3, 4)),
                content_key(a.astype(np.float64)),
                content_key(a + 1)}
        assert len(keys) == 4

    def test_accepts_non_arrays(self):
        assert content_key([1.0, 2.0]) == content_key(np.array([1.0, 2.0]))


# -- popularity samplers -------------------------------------------------------

class TestPopularity:
    def test_unique_is_the_default(self):
        ids = make_contents(None, 16)
        assert np.array_equal(ids, np.arange(16))
        assert np.array_equal(make_contents("unique", 16), ids)

    @pytest.mark.parametrize("spec", ["uniform", "zipf", "hot"])
    def test_seeded_and_bounded(self, spec):
        a = make_contents(spec, 512, seed=3)
        b = make_contents(spec, 512, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, make_contents(spec, 512, seed=4))
        assert a.min() >= 0

    def test_zipf_concentrates_on_the_head(self):
        pop = ZipfPopularity(alpha=1.1, n_keys=128)
        ids = pop.sample(20000, as_rng(0))
        counts = np.bincount(ids, minlength=128)
        assert counts[0] == counts.max()           # rank 0 is the hottest
        top8 = counts[:8].sum() / counts.sum()
        assert abs(top8 - pop.head_mass(8)) < 0.05  # empirical ~ analytic
        assert pop.head_mass(128) == pytest.approx(1.0)

    def test_hot_keys_take_their_fraction_in_streaks(self):
        pop = HotKeyPopularity(n_keys=64, hot_keys=2, hot_fraction=0.8,
                               mean_streak=16.0)
        ids = pop.sample(20000, as_rng(1))
        hot = ids < pop.hot_keys
        assert abs(hot.mean() - 0.8) < 0.05
        # Correlated streaks: far fewer hot/cold transitions than an iid
        # stream with the same hot fraction would show (2*f*(1-f) per step).
        transitions = np.mean(hot[1:] != hot[:-1])
        assert transitions < 0.5 * 2 * 0.8 * 0.2

    def test_validation(self):
        with pytest.raises(ValueError, match="popularity"):
            make_contents("powerlaw", 8)
        with pytest.raises(ValueError, match="alpha"):
            ZipfPopularity(alpha=-1.0)
        with pytest.raises(ValueError, match="hot_keys"):
            HotKeyPopularity(n_keys=4, hot_keys=4)
        with pytest.raises(ValueError, match="unreachable"):
            HotKeyPopularity(hot_fraction=0.99, mean_streak=1.0)


# -- the incremental batch-time clamp ------------------------------------------

class TinyWorkloadService:
    pass


@pytest.fixture(scope="module")
def tiny_wl():
    from repro.models import build_hep_net
    from repro.sim.workload import custom_workload
    net = build_hep_net(filters=8, n_units=3, rng=0)
    return custom_workload("tiny_hep", net, (3, 16, 16))


class TestIncrementalBatchTime:
    def test_matches_the_rescan_for_any_query_order(self, tiny_wl):
        fast = ServiceTimeModel(tiny_wl)
        slow = LinearServiceTimeModel(tiny_wl)
        # Descending, interleaved, repeated — the memo must not depend on
        # query order, only on the size asked for.
        for b in [32, 5, 17, 1, 32, 9, 24, 2, 17]:
            assert fast.batch_time(b) == slow.batch_time(b)

    def test_monotone_nondecreasing(self, tiny_wl):
        svc = ServiceTimeModel(tiny_wl)
        times = [svc.batch_time(b) for b in range(1, 33)]
        assert all(b >= a for a, b in zip(times, times[1:]))


# -- the heap router vs the linear oracle --------------------------------------

def _routers(n_replicas, policy, svc, limit):
    args = (None, n_replicas, policy, svc.batch_time)
    return (Router(*args, limits=[limit]), LinearRouter(*args, limits=[limit]))


def _assert_same_outcome(fast, slow):
    assert fast.completions() == slow.completions()
    assert [b.request_ids for b in fast.batches()] == \
        [b.request_ids for b in slow.batches()]
    assert [b.completion for b in fast.batches()] == \
        [b.completion for b in slow.batches()]
    assert fast.n_offered == slow.n_offered
    assert fast.n_dropped == slow.n_dropped
    assert fast.n_failed == slow.n_failed
    assert fast.failed_ids == slow.failed_ids


@pytest.mark.parametrize("seed", SEEDS)
class TestRouterHeapDifferential:
    def test_random_traces_identical(self, seed):
        """Bit-identical routing on random arrival traces across policies
        and admission limits."""
        rng = as_rng(seed)
        for _ in range(6):
            policy = BatchingPolicy(
                max_batch=int(rng.integers(2, 9)),
                max_wait=float(rng.choice([0.0, 1e-3, 5e-3])),
                mode=str(rng.choice(["windowed", "continuous"])))
            svc = FakeService(base=float(rng.uniform(1e-3, 6e-3)))
            fast, slow = _routers(
                int(rng.integers(1, 9)), policy, svc,
                limit=int(rng.integers(2, 40)))
            t = 0.0
            for rid in range(400):
                t += float(rng.exponential(2e-4))
                assert fast.submit(t, rid) == slow.submit(t, rid)
            fast.drain()
            slow.drain()
            _assert_same_outcome(fast, slow)

    def test_live_scaling_identical(self, seed):
        """Same with add/remove/fail interleaved mid-stream — including the
        remove path's least-loaded re-route target."""
        rng = as_rng(seed)
        for _ in range(4):
            policy = BatchingPolicy(max_batch=int(rng.integers(2, 7)),
                                    max_wait=1e-3)
            svc = FakeService()
            fast, slow = _routers(3, policy, svc, limit=16)
            t = 0.0
            for rid in range(300):
                t += float(rng.exponential(3e-4))
                if rid % 60 == 30:
                    fast.add_replica(t)
                    slow.add_replica(t)
                if rid % 90 == 75 and fast.n_replicas > 1:
                    assert (fast.remove_replica(t).index
                            == slow.remove_replica(t).index)
                if rid == 150:
                    fast.fail_replica(t, 1)
                    slow.fail_replica(t, 1)
                assert fast.submit(t, rid) == slow.submit(t, rid)
            fast.drain()
            slow.drain()
            _assert_same_outcome(fast, slow)


# -- simulator differentials ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
class TestSimulatorDifferential:
    def test_cache_size_zero_bitwise_identical_to_pre_cache_sim(
            self, seed, tiny_wl):
        """The whole rewritten pipeline at cache_size=0 reproduces the
        pre-PR simulator bit for bit: latencies, drops, horizon, batches."""
        rng = as_rng(seed)
        for process in ("uniform", "poisson", "mmpp"):
            n_replicas = int(rng.integers(1, 5))
            policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
            new = EventLoopSimulator(tiny_wl, n_replicas=n_replicas,
                                     policy=policy)
            old = LinearServingSimulator(tiny_wl, n_replicas=n_replicas,
                                         policy=policy)
            rate = float(rng.uniform(0.3, 1.8)) * old.saturation_rate()
            a = new.run(rate, n_requests=600, process=process, seed=seed)
            b = old.run(rate, n_requests=600, process=process, seed=seed)
            assert np.array_equal(a.latencies, b.latencies)
            assert a.n_offered == b.n_offered
            assert a.n_dropped == b.n_dropped
            assert a.horizon == b.horizon
            assert np.array_equal(a.batch_sizes, b.batch_sizes)
            assert a.n_cache_hits == 0

    def test_autoscaled_run_identical_to_linear_oracle(self, seed):
        """Heap routing under the live control loop (scale out/in, node
        death mid-burst, graceful drains) matches the linear oracle."""
        rng = as_rng(seed)
        svc = FakeService()
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=4,
                              target_attainment=0.95,
                              epoch=20 * svc.batch_time(8))
        events = [FailureEvent(time=0.3, node_id=0, kind="fail")]
        rate = float(rng.uniform(0.5, 1.2)) * svc.peak_throughput(8)
        kw = dict(autoscale=cfg, policy=policy, service_model=svc,
                  failure_events=events)
        a = AutoscalingSimulator(None, **kw).run(
            rate, n_requests=800, process="mmpp", seed=seed)
        b = LinearAutoscalingSimulator(None, **kw).run(
            rate, n_requests=800, process="mmpp", seed=seed)
        assert np.array_equal(a.latencies, b.latencies)
        assert a.n_dropped == b.n_dropped and a.n_failed == b.n_failed
        assert a.mean_replicas == b.mean_replicas
        assert [e.n_replicas for e in a.scale_events] == \
            [e.n_replicas for e in b.scale_events]

    def test_reference_simulator_refuses_a_cache(self, seed, tiny_wl):
        with pytest.raises(ValueError, match="cache_size=0"):
            LinearServingSimulator(tiny_wl, cache_size=4 + seed % 2)


# -- cache semantics inside the simulator --------------------------------------

class TestCacheInSimulator:
    def test_hits_complete_at_rtt_and_only_after_first_completion(self):
        """One content id for every request: the stream misses until the
        first batch completes, then hits at exactly request_rtt()."""
        svc = FakeService(base=0.1, per=0.0, rtt=1e-4)   # 100 ms service
        sim = ServingSimulator(None, n_replicas=1,
                               policy=BatchingPolicy(max_batch=4,
                                                     max_wait=0.0),
                               service_model=svc, cache_size=8)
        # Arrivals every 40 ms: t=0 launches [0] (completes at 0.1);
        # t=.04/.08 queue behind it (miss: no result yet); t>=0.12 hit.
        stats = sim.run(25.0, n_requests=12,
                        popularity=UniformPopularity(n_keys=1))
        assert stats.n_cache_hits == 9
        hit_lats = stats.latencies[stats.latencies == svc.rtt]
        assert hit_lats.size == 9
        assert stats.hit_rate == pytest.approx(9 / 12)
        assert stats.deflected_load > 0

    def test_unique_contents_never_hit(self, tiny_wl):
        stats = ServingSimulator(tiny_wl, cache_size=64).run(
            100.0, n_requests=200, popularity=None)
        assert stats.n_cache_hits == 0 and stats.hit_rate == 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conservation_under_live_autoscaling(self, seed):
        """hits + replica completions + shed + failed == offered, with the
        cache in front of a fleet that scales and loses a node mid-run."""
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=3,
                              target_attainment=0.95,
                              epoch=30 * svc.batch_time(8))
        sim = AutoscalingSimulator(
            None, autoscale=cfg, policy=BatchingPolicy(max_batch=8),
            service_model=svc, cache_size=16, max_queue=32,
            failure_events=[FailureEvent(time=0.2, node_id=1, kind="fail")])
        stats = sim.run(1.3 * svc.peak_throughput(8), n_requests=1500,
                        process="mmpp", seed=seed, popularity="zipf")
        n_miss_completed = stats.n_completed - stats.n_cache_hits
        assert (stats.n_cache_hits + n_miss_completed + stats.n_dropped
                + stats.n_failed) == stats.n_offered == 1500
        assert int(stats.batch_sizes.sum()) == n_miss_completed
        # The controller judged only post-cache traffic: every epoch's
        # arrivals are router admissions, which exclude hits.
        assert sum(r.n_arrived for r in stats.epochs) <= \
            stats.n_offered - stats.n_cache_hits

    def test_failure_aborted_batches_never_fill_the_cache(self):
        """Kill the only replica before its first batch completes: results
        that were never produced must not be served, so the failed run
        hits strictly less than the healthy one."""
        svc = FakeService(base=0.1, per=0.0)
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=1,
                              epoch=0.15)
        kw = dict(autoscale=cfg, policy=BatchingPolicy(max_batch=4,
                                                       max_wait=0.0),
                  service_model=svc, cache_size=8)
        pop = UniformPopularity(n_keys=1)
        healthy = AutoscalingSimulator(None, **kw).run(
            25.0, n_requests=12, popularity=pop)
        dead = AutoscalingSimulator(
            None, failure_events=[FailureEvent(time=0.05, node_id=0,
                                               kind="fail")], **kw).run(
            25.0, n_requests=12, popularity=pop)
        assert healthy.n_cache_hits > dead.n_cache_hits
        assert (dead.n_completed + dead.n_dropped + dead.n_failed
                == dead.n_offered)

    def test_pinned_autoscaler_matches_static_sim_with_cache(self):
        """min==max autoscaling with a cache is bit-identical to the static
        cached simulator — the control path stays a strict superset."""
        svc = FakeService()
        policy = BatchingPolicy(max_batch=8)
        static = ServingSimulator(None, n_replicas=2, policy=policy,
                                  service_model=svc, cache_size=32)
        cfg = AutoscalePolicy(min_replicas=2, max_replicas=2)
        pinned = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                      service_model=svc, cache_size=32)
        rate = 1.1 * svc.peak_throughput(8)
        a = static.run(rate, n_requests=600, process="poisson", seed=5,
                       popularity="zipf")
        b = pinned.run(rate, n_requests=600, process="poisson", seed=5,
                       popularity="zipf")
        assert np.array_equal(a.latencies, b.latencies)
        assert a.n_cache_hits == b.n_cache_hits
        assert a.n_dropped == b.n_dropped

    def test_sweep_cache_sizes_curves(self, tiny_wl):
        sweep = sweep_cache_sizes(tiny_wl, sizes=[0, 16, 64],
                                  n_requests=400, seed=0,
                                  popularity=ZipfPopularity(alpha=1.1,
                                                            n_keys=128))
        assert sweep.hit_rate_curve[0] == 0.0
        assert np.all(np.diff(sweep.hit_rate_curve) >= 0)   # bigger is >=
        assert np.all(np.isfinite(sweep.p99_curve))
        assert "cache size" in sweep.table()


# -- the real path: BatchExecutor + ResultCache --------------------------------

class DotNet:
    """Deterministic toy net: y = x @ w, with an identity for cache scope."""

    def __init__(self, scale, scope):
        self.scale = scale
        self.cache_scope = scope

    def forward(self, x):
        return np.asarray(x, dtype=np.float32) * np.float32(self.scale)


class TestBatchExecutorCache:
    def _samples(self, rng, n, repeat_every=3):
        base = [rng.standard_normal(4).astype(np.float32) for _ in range(n)]
        for i in range(0, n, repeat_every):
            base[i] = base[0]            # force repeats of sample 0
        return base

    def test_hits_are_bitwise_identical_to_the_cold_forward(self, tiny_wl):
        from repro.models import build_hep_net
        net = build_hep_net(filters=8, n_units=3, rng=0)
        net.eval()
        rng = as_rng(0)
        x = rng.standard_normal((3, 16, 16)).astype(np.float32)
        samples = [x, rng.standard_normal((3, 16, 16)).astype(np.float32),
                   x.copy(), x.copy()]
        ex = BatchExecutor(net, cache=ResultCache(8))
        out = ex.run(samples, BatchingPolicy(max_batch=2))
        assert ex.cache.hits == 2                  # both repeats hit
        assert np.array_equal(out[0], out[2])      # bitwise, not approx
        assert np.array_equal(out[0], out[3])
        assert not out[0].flags.writeable          # memo is tamper-proof
        # And the cached answers agree with an uncached run to float32
        # rounding (different batch shapes may block the GEMM differently).
        plain = BatchExecutor(net).run(samples, BatchingPolicy(max_batch=2))
        for a, b in zip(out, plain):
            np.testing.assert_allclose(a, b, rtol=2e-5, atol=2e-6)

    def test_misses_coalesce_across_hit_gaps(self):
        ex = BatchExecutor(DotNet(2.0, ("m", 1)), cache=ResultCache(16))
        samples = self._samples(as_rng(1), 9, repeat_every=3)
        out = ex.run(samples, BatchingPolicy(max_batch=4))
        # Index 3 repeats index 0 but arrives before the first miss batch
        # has flushed — no result exists yet, so it rides in that batch;
        # index 6 arrives after the flush and hits.
        assert ex.cache.hits == 1
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(out[i], np.asarray(s) * 2.0)

    def test_cache_scope_isolates_model_versions(self):
        """v1 and v2 share one cache: identical input bytes must not serve
        v1's prediction for a v2 request."""
        cache = ResultCache(16)
        x = np.ones(4, dtype=np.float32)
        v1 = BatchExecutor(DotNet(1.0, ("m", 1)), cache=cache)
        v2 = BatchExecutor(DotNet(3.0, ("m", 2)), cache=cache)
        a = v1.run([x], BatchingPolicy())[0]
        b = v2.run([x], BatchingPolicy())[0]
        assert np.array_equal(a, x) and np.array_equal(b, 3 * x)
        assert cache.hits == 0                     # scoped: no cross-talk

    def test_uncached_executor_unchanged(self):
        ex = BatchExecutor(DotNet(2.0, ()))
        out = ex.run([np.ones(3, np.float32)] * 5, BatchingPolicy(max_batch=2))
        assert len(out) == 5
        assert all(np.array_equal(o, 2 * np.ones(3)) for o in out)
