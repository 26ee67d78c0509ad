"""Result-cache + hot-path acceptance benchmarks for ``repro.serve``.

Two acceptance claims from the caching/perf PR:

1. **Caching restores the SLO above saturation.** At Zipf-1.1 hot-key
   traffic offered *above* the fleet's saturation rate, a bounded LRU
   cache (a quarter of the catalog) deflects the head of the popularity
   law, restores attainment >= 0.95 where the uncached fleet collapses,
   and lets the autoscaler run a strictly smaller mean fleet — the
   cheapest forward is the one never run.
2. **The rewrite is >= 5x faster and behavior-identical.** A 100k-request
   sweep at 64 replicas runs >= 5x faster wall-clock than the frozen
   pre-PR simulator (:mod:`repro.serve.reference`), with bit-identical
   ``cache_size=0`` output; the R=64 router microbenchmark isolates the
   O(R) -> O(log R) replica-selection win.

Headline numbers are also recorded machine-readably in
``BENCH_serve.json`` (:func:`bench_report.bench_json`); the tier-2 CI job
uploads it so the perf trajectory accumulates per PR.
"""

import time

import numpy as np
import pytest

from bench_report import bench_json, report
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    ServingSimulator,
    ZipfPopularity,
)
from repro.serve.reference import (
    EventLoopSimulator,
    LinearRouter,
    LinearServingSimulator,
)
from repro.serve.router import Router

#: the hot-key scenario: Zipf-1.1 over 512 distinct requests, cached 128
ZIPF = ZipfPopularity(alpha=1.1, n_keys=512)
CACHE_SIZE = 128


class TestCacheRestoresSLO:
    def test_bounded_cache_restores_attainment_above_saturation(self, hep_wl):
        """1.5x saturation, Poisson arrivals, Zipf-1.1 contents: the
        uncached 2-replica fleet collapses; a 128-entry cache (~85% of the
        stationary traffic mass) restores attainment >= 0.95."""
        uncached = ServingSimulator(hep_wl, n_replicas=2)
        cached = ServingSimulator(hep_wl, n_replicas=2,
                                  cache_size=CACHE_SIZE)
        slo = uncached.default_slo()
        rate = 1.5 * uncached.saturation_rate()
        kw = dict(n_requests=8192, process="poisson", seed=0,
                  popularity=ZIPF)
        u = uncached.run(rate, **kw)
        c = cached.run(rate, **kw)
        report("result cache: Zipf-1.1 hot keys at 1.5x saturation "
               "(HEP, 2 replicas)", [
                   ("offered rate (req/s)", "--", f"{rate:.0f}"),
                   ("head mass of cacheable top-128", "--",
                    f"{ZIPF.head_mass(CACHE_SIZE):.3f}"),
                   ("uncached attainment", "fails", f"{u.attainment(slo):.3f}"),
                   ("cached attainment", ">= 0.95", f"{c.attainment(slo):.3f}"),
                   ("cache hit rate", "--", f"{c.hit_rate:.3f}"),
                   ("p99 uncached -> cached (ms)", "--",
                    f"{u.p99 * 1e3:.0f} -> {c.p99 * 1e3:.0f}"),
               ])
        assert u.attainment(slo) < 0.5, "uncached fleet should fail hard"
        assert c.attainment(slo) >= 0.95
        assert c.hit_rate > 0.5
        assert c.p99 < u.p99
        bench_json("cache_slo_restore", {
            "workload": "hep", "n_replicas": 2, "rate_req_s": rate,
            "slo_s": slo, "zipf_alpha": ZIPF.alpha, "n_keys": ZIPF.n_keys,
            "cache_size": CACHE_SIZE,
            "uncached_attainment": u.attainment(slo),
            "cached_attainment": c.attainment(slo),
            "cache_hit_rate": c.hit_rate,
            "p99_uncached_s": u.p99, "p99_cached_s": c.p99,
            "throughput_cached_req_s": c.throughput,
        })

    def test_autoscaled_mean_fleet_shrinks_with_cache(self, hep_wl):
        """Same hot-key overload under the burst-aware autoscaler: the
        cache deflects the head of the law before the router, so the
        controller — which only ever sees post-cache traffic — provisions
        for misses and holds a strictly smaller mean fleet at equal-or-
        better attainment."""
        slo = ServingSimulator(hep_wl, n_replicas=2).default_slo()
        rate = 1.5 * ServingSimulator(hep_wl, n_replicas=2).saturation_rate()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=6,
                              target_attainment=0.95)
        kw = dict(n_requests=8192, process="poisson", seed=0,
                  popularity=ZIPF, slo=slo)
        u = AutoscalingSimulator(hep_wl, autoscale=cfg).run(rate, **kw)
        c = AutoscalingSimulator(hep_wl, autoscale=cfg,
                                 cache_size=CACHE_SIZE).run(rate, **kw)
        report("result cache: autoscaled fleet cost under hot-key overload",
               [
                   ("uncached mean fleet", "--", f"{u.mean_replicas:.2f}"),
                   ("cached mean fleet", "smaller",
                    f"{c.mean_replicas:.2f}"),
                   ("uncached attainment", "--", f"{u.attainment(slo):.3f}"),
                   ("cached attainment", ">= 0.95",
                    f"{c.attainment(slo):.3f}"),
                   ("load deflected (req/s)", "--",
                    f"{c.deflected_load:.0f}"),
               ])
        assert c.mean_replicas < u.mean_replicas
        assert c.attainment(slo) >= 0.95
        assert c.attainment(slo) >= u.attainment(slo)
        bench_json("cache_autoscale_fleet", {
            "rate_req_s": rate, "slo_s": slo,
            "mean_replicas_uncached": u.mean_replicas,
            "mean_replicas_cached": c.mean_replicas,
            "attainment_uncached": u.attainment(slo),
            "attainment_cached": c.attainment(slo),
            "cache_hit_rate": c.hit_rate,
            "deflected_load_req_s": c.deflected_load,
        })


class TestHotPathSpeedup:
    N_REQUESTS = 100_000
    N_REPLICAS = 64

    def test_100k_sweep_5x_faster_and_bit_identical(self, hep_wl):
        """The acceptance run: 100k requests into 64 replicas at the
        saturation rate. The optimized simulator (backlog heap, incremental
        batch-time clamp, vectorized preprocessing) must beat the frozen
        pre-PR implementation by >= 5x wall-clock while producing
        bit-identical output at cache_size=0. The rewrite is the router's,
        so the optimized side is pinned to the event loop."""
        policy = BatchingPolicy(max_batch=32, max_wait=0.001)
        fast_sim = EventLoopSimulator(hep_wl, n_replicas=self.N_REPLICAS,
                                      policy=policy)
        slow_sim = LinearServingSimulator(hep_wl,
                                          n_replicas=self.N_REPLICAS,
                                          policy=policy)
        rate = fast_sim.saturation_rate()
        t0 = time.perf_counter()
        fast = fast_sim.run(rate, n_requests=self.N_REQUESTS)
        t_fast = time.perf_counter() - t0
        assert fast_sim.last_run_engine == "event"
        t0 = time.perf_counter()
        slow = slow_sim.run(rate, n_requests=self.N_REQUESTS)
        t_slow = time.perf_counter() - t0
        assert np.array_equal(fast.latencies, slow.latencies), \
            "hot-path rewrite changed simulation output"
        assert fast.n_dropped == slow.n_dropped
        assert fast.horizon == slow.horizon
        assert np.array_equal(fast.batch_sizes, slow.batch_sizes)
        speedup = t_slow / t_fast
        report(f"serving hot path: {self.N_REQUESTS // 1000}k requests, "
               f"{self.N_REPLICAS} replicas (HEP, saturation rate)", [
                   ("pre-PR wall-clock (s)", "--", f"{t_slow:.2f}"),
                   ("optimized wall-clock (s)", "--", f"{t_fast:.2f}"),
                   ("speedup", ">= 5x", f"{speedup:.1f}x"),
                   ("output", "bit-identical", "bit-identical"),
               ])
        assert speedup >= 5.0, (
            f"only {speedup:.1f}x over the pre-PR simulator")
        bench_json("hot_path_100k", {
            "n_requests": self.N_REQUESTS, "n_replicas": self.N_REPLICAS,
            "rate_req_s": rate,
            "wall_clock_pre_pr_s": t_slow, "wall_clock_s": t_fast,
            "speedup": speedup, "p99_s": fast.p99,
            "throughput_req_s": fast.throughput,
            "sim_requests_per_wall_s": self.N_REQUESTS / t_fast,
            "cache_hit_rate": 0.0,   # cache_size=0: the differential run
        })

    def test_router_microbenchmark_r64(self):
        """Replica selection in isolation at R=64: one identical 20k
        poisson-spaced trace through the heap router and the linear-scan
        router (constant service time, so routing dominates)."""
        policy = BatchingPolicy(max_batch=8, max_wait=0.001)
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(2e-5, size=20_000)).tolist()

        def drive(router_cls):
            router = router_cls(None, 64, policy, lambda b: 1e-3,
                                limits=[64])
            t0 = time.perf_counter()
            for rid, t in enumerate(times):
                router.submit(t, rid)
            elapsed = time.perf_counter() - t0
            router.drain()
            return router, elapsed

        fast, t_fast = drive(Router)
        slow, t_slow = drive(LinearRouter)
        assert fast.completions() == slow.completions()
        assert fast.n_dropped == slow.n_dropped
        speedup = t_slow / t_fast
        report("router microbenchmark: backlog heap vs linear scan "
               "(R=64, 20k arrivals)", [
                   ("linear scan (s)", "--", f"{t_slow:.3f}"),
                   ("backlog heap (s)", "--", f"{t_fast:.3f}"),
                   ("speedup", "> 3x", f"{speedup:.1f}x"),
               ])
        # Generous floor for shared CI runners; typical is ~10x.
        assert speedup >= 3.0
        bench_json("router_microbench_r64", {
            "n_replicas": 64, "n_arrivals": 20_000,
            "wall_clock_linear_s": t_slow, "wall_clock_heap_s": t_fast,
            "speedup": speedup,
        })


class TestCacheSweepCurves:
    def test_hit_rate_vs_p99_attainment_sweep(self, hep_wl):
        """The capacity-planning curve: hit rate rises and p99/attainment
        recover monotonically (coarsely) as the cache grows through the
        Zipf head at fixed 1.25x-saturation load."""
        from repro.serve import sweep_cache_sizes
        sweep = sweep_cache_sizes(hep_wl, sizes=[0, 16, 64, 256],
                                  n_replicas=2, n_requests=4096,
                                  process="poisson", popularity=ZIPF,
                                  seed=0)
        print("\n--- cache-size sweep (HEP, 2 replicas, "
              f"{sweep.rate:.0f} req/s, slo={sweep.slo * 1e3:.0f} ms) ---")
        print(sweep.table())
        assert sweep.hit_rate_curve[0] == 0.0
        assert np.all(np.diff(sweep.hit_rate_curve) >= 0)
        assert sweep.attainment_curve[-1] >= sweep.attainment_curve[0]
        assert sweep.p99_curve[-1] <= sweep.p99_curve[0]
        bench_json("cache_size_sweep", {
            "sizes": list(sweep.sizes),
            "hit_rate_curve": [float(x) for x in sweep.hit_rate_curve],
            "p99_curve_s": [float(x) for x in sweep.p99_curve],
            "attainment_curve": [float(x) for x in sweep.attainment_curve],
            "rate_req_s": sweep.rate, "slo_s": sweep.slo,
        })
