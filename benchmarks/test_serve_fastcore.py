"""Fast simulator core: the million- and ten-million-request benchmarks.

The acceptance bar for the array engine (:mod:`repro.serve.fast_core`,
where every supported ``ServingSimulator`` runs): at 10^6 requests on a
64-replica fleet it must produce *bit-identical* :class:`LatencyStats`
to the object event loop while running at least a floor's multiple
faster wall-clock: >= 1.8x on the plain and the cached (Zipf,
cache_size=128) classes, >= 1.6x on the multi-model (the real HEP+climate
pool) class.
All three are the same ``fast_core._drive`` loop — ``M`` per-model lanes
per replica, an optional cache in front — at different parameters
(plain: ``M == 1``, no cache; cached: ``M == 1`` with one; multi-model:
``M == 2``), so the per-class floors differ for a structural reason in
the *workload*, not because a different loop runs: cache hits and load sheds short-circuit
most of the event loop's per-arrival cost, while the array loop's cache
decision (a dict pop/insert per lookup and per fill) and its ``M``-lane
scan per batch commit are inherently sequential dict/list work it cannot
vectorize away. The ratios are against the event loop, so they shrink
whenever it gets faster: it runs the array core's per-arrival rule (a
lane scan only when a lane is full or a launch is due, a launch event
only when a replica's instant changes), and without a cache an arrival
is one router call, ``Router.submit`` and its admit body. On a two-core
Xeon VM it spends 3.1-4.3 us per arrival (medians of five alternated
runs: plain 3.5, cached 3.1, multi-model 4.3; the loop with a call per
admit step took 3.8, 3.2 and 5.3), recorded per class as
``event_us_per_request`` next to each ratio. Eight runs per class of
this test's configurations on that host measured medians of 2.7x plain,
2.7x cached and 2.5x multi-model (2.2-3.1x, 2.3-3.5x, 2.1-2.8x). The
floors sit about a third below those medians, a CI-noise margin. The
earlier 4x / 3x / 3x floors failed on that host against the loop before
it too: 3.3x, 2.7x and 2.9x (3.0-3.7x, 2.5-3.2x, 2.2-3.5x).
(The three hand-specialized loops
this one replaced ran the plain class ~8-12% and the cached class ~5-8%
faster drive-only, the multi-model class the same; that bought one
statement of the scheduler, and the floors were not lowered for it.)
The PR 4 frozen oracle (:class:`repro.serve.reference.
LinearServingSimulator`) is additionally timed on a 100k slice of the
plain configuration, pinning the full chain — O(R)-scan oracle -> heap
event loop -> flat array core — in one artifact section. The
10^7-request / 64-replica point then runs array-only (the event loop
would take minutes) and is recorded with its wall-clock and sustained
request throughput; its peak-RSS bound lives in the tier-1 suite
(``tests/test_serve_fastcore.py``).

Non-blocking in CI like every tier-2 benchmark; the measured numbers
merge into ``BENCH_serve.json`` under ``fast_core`` (the plain keys at
top level, per-class numbers under ``cached`` / ``multi_model`` /
``ten_million``).
"""

from time import perf_counter

import numpy as np

from bench_report import bench_json, report
from repro.serve import (
    BatchingPolicy,
    ModelMix,
    ModelProfile,
    ServingSimulator,
    ZipfPopularity,
)
from repro.serve.reference import EventLoopSimulator, LinearServingSimulator

N_REQUESTS = 1_000_000
N_REPLICAS = 64
TEN_MILLION = 10_000_000
ORACLE_N = 100_000
SEED = 7
LOAD = 1.05        # just past saturation: shedding + full-batch pressure
# Cached and multi-model runs keep the event loop's cheap short-circuits
# (hits and sheds skip the router there too) while adding sequential
# cache/lane work to the array loop — see the module docstring for the
# measured ratios these floors sit under.
SPEEDUP_FLOOR = 1.8
CACHED_SPEEDUP_FLOOR = 1.8
MULTI_SPEEDUP_FLOOR = 1.6
#: the simulator each engine name builds: the event loop pinned, or the
#: engine the configuration implies (the array core, asserted per run)
SIM = {"event": EventLoopSimulator, "array": ServingSimulator}


class TestFastCoreMillionRequests:
    def _sim(self, wl, engine):
        return SIM[engine](wl, n_replicas=N_REPLICAS,
                           policy=BatchingPolicy(max_batch=32),
                           max_queue=128)

    def test_million_request_speedup_and_bit_identity(self, hep_wl):
        event = self._sim(hep_wl, "event")
        rate = LOAD * event.saturation_rate()

        t0 = perf_counter()
        ev = event.run(rate, N_REQUESTS, "poisson", seed=SEED)
        t_event = perf_counter() - t0

        array = self._sim(hep_wl, "array")
        t0 = perf_counter()
        ar = array.run(rate, N_REQUESTS, "poisson", seed=SEED)
        t_array = perf_counter() - t0
        assert array.last_run_engine == "array"

        # Bit-identical on the full 10^6-request trace: every latency,
        # every batch, every counter — not a statistical match.
        assert np.array_equal(ev.latencies, ar.latencies)
        assert np.array_equal(ev.batch_sizes, ar.batch_sizes)
        assert ev.n_dropped == ar.n_dropped
        assert ev.n_offered == ar.n_offered
        assert ev.horizon == ar.horizon

        # The PR 4 frozen oracle on a 100k slice of the same config (1M
        # through the O(R) linear scans would take minutes) — differential
        # plus the second speedup ratio for the artifact.
        oracle = LinearServingSimulator(hep_wl, n_replicas=N_REPLICAS,
                                        policy=BatchingPolicy(max_batch=32),
                                        max_queue=128)
        slice_sim = self._sim(hep_wl, "array")
        t0 = perf_counter()
        os_ = oracle.run(rate, ORACLE_N, "poisson", seed=SEED)
        t_oracle = perf_counter() - t0
        t0 = perf_counter()
        as_ = slice_sim.run(rate, ORACLE_N, "poisson", seed=SEED)
        t_slice = perf_counter() - t0
        assert np.array_equal(os_.latencies, as_.latencies)
        assert np.array_equal(os_.batch_sizes, as_.batch_sizes)
        assert os_.n_dropped == as_.n_dropped

        speedup = t_event / t_array
        oracle_speedup = t_oracle / t_slice
        report(f"Fast simulator core: {N_REQUESTS:,} requests, "
               f"{N_REPLICAS} replicas at {LOAD:.2f}x saturation", [
                   ("event engine (s)", "--", f"{t_event:.2f}"),
                   ("array engine (s)", "--", f"{t_array:.2f}"),
                   ("speedup vs event loop", f">= {SPEEDUP_FLOOR:g}x",
                    f"{speedup:.1f}x"),
                   (f"PR 4 oracle, {ORACLE_N:,} reqs (s)", "--",
                    f"{t_oracle:.2f}"),
                   ("speedup vs PR 4 oracle", "--",
                    f"{oracle_speedup:.1f}x"),
                   ("bit-identical stats", "yes", "yes"),
                   ("requests shed", "--", f"{ev.n_dropped:,}"),
               ])
        bench_json("fast_core", {
            "n_requests": N_REQUESTS, "n_replicas": N_REPLICAS,
            "load_fraction": LOAD, "process": "poisson", "seed": SEED,
            "event_seconds": t_event, "array_seconds": t_array,
            "event_us_per_request": 1e6 * t_event / N_REQUESTS,
            "speedup_vs_event": speedup,
            "oracle_n_requests": ORACLE_N,
            "oracle_seconds": t_oracle,
            "oracle_slice_array_seconds": t_slice,
            "speedup_vs_oracle_at_100k": oracle_speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "bit_identical": True,
        })
        # The acceptance floor (non-blocking at the CI job level, like
        # every tier-2 perf assertion).
        assert speedup >= SPEEDUP_FLOOR


class TestFastCoreCachedMillion:
    """The cached class at 10^6 requests: inline LRU on the array core.

    Zipf-1.1 content keys over a 4096-key catalog with a 128-entry LRU —
    the PR 4 "cache rescue" configuration at benchmark scale. The rate is
    2x saturation: the head deflects roughly half the offered load, so
    the fleet still sheds — hits, misses, evictions, and drops all churn
    at full pressure on both engines. The floor is the cached-class one:
    a hit costs both engines almost nothing (neither touches the router),
    so the cache *narrows* the engines' per-request gap, and no regime —
    miss-heavy (Zipf-0.8/65536), hit-heavy (catalog fits in cache), or
    drop-heavy (4x saturation) — moved the ratio past ~7x when they were
    measured, against an event loop that still pushed a launch event per
    admit (a faster event loop lowers every ratio).
    """

    def _sim(self, wl, engine):
        return SIM[engine](wl, n_replicas=N_REPLICAS,
                           policy=BatchingPolicy(max_batch=32),
                           max_queue=128, cache_size=128)

    def test_cached_million_speedup_and_bit_identity(self, hep_wl):
        pop = ZipfPopularity(alpha=1.1, n_keys=4096)
        event = self._sim(hep_wl, "event")
        rate = 2.0 * event.saturation_rate()

        t0 = perf_counter()
        ev = event.run(rate, N_REQUESTS, "poisson", seed=SEED,
                       popularity=pop)
        t_event = perf_counter() - t0

        array = self._sim(hep_wl, "array")
        t0 = perf_counter()
        ar = array.run(rate, N_REQUESTS, "poisson", seed=SEED,
                       popularity=pop)
        t_array = perf_counter() - t0
        assert array.last_run_engine == "array"

        assert np.array_equal(ev.latencies, ar.latencies)
        assert np.array_equal(ev.batch_sizes, ar.batch_sizes)
        assert ev.n_cache_hits == ar.n_cache_hits
        assert ev.n_dropped == ar.n_dropped
        assert ev.horizon == ar.horizon
        assert ev.n_cache_hits > 0 and ev.n_dropped > 0

        speedup = t_event / t_array
        report(f"Fast core, cached class: {N_REQUESTS:,} requests, "
               f"{N_REPLICAS} replicas, Zipf-1.1, 128-entry LRU", [
                   ("event engine (s)", "--", f"{t_event:.2f}"),
                   ("array engine (s)", "--", f"{t_array:.2f}"),
                   ("speedup vs event loop",
                    f">= {CACHED_SPEEDUP_FLOOR:g}x", f"{speedup:.1f}x"),
                   ("hit rate", "--", f"{ev.hit_rate:.3f}"),
                   ("requests shed", "--", f"{ev.n_dropped:,}"),
                   ("bit-identical stats", "yes", "yes"),
               ])
        bench_json("fast_core", {"cached": {
            "n_requests": N_REQUESTS, "n_replicas": N_REPLICAS,
            "load_fraction": 2.0, "popularity": "zipf-1.1/4096",
            "cache_size": 128, "cache_policy": "lru", "seed": SEED,
            "event_seconds": t_event, "array_seconds": t_array,
            "event_us_per_request": 1e6 * t_event / N_REQUESTS,
            "speedup_vs_event": speedup, "hit_rate": ev.hit_rate,
            "speedup_floor": CACHED_SPEEDUP_FLOOR, "bit_identical": True,
        }})
        assert speedup >= CACHED_SPEEDUP_FLOOR


class TestFastCoreMultiModelMillion:
    """The multi-model class at 10^6 requests: the real HEP+climate pool.

    A 90/10 HEP/climate mix (weights 4:1) on one shared 64-replica fleet
    — per-model lanes, weighted count admission, per-model service
    tables, and per-model stats attribution all on the array core's
    segmented arrays.
    """

    def _sim(self, profiles, mix, engine):
        return SIM[engine](models=profiles, model_mix=mix,
                           n_replicas=N_REPLICAS,
                           policy=BatchingPolicy(max_batch=32),
                           max_queue=128)

    def test_multi_model_million_speedup_and_bit_identity(self, hep_wl,
                                                          climate_wl):
        profiles = [ModelProfile("hep", hep_wl, weight=4.0),
                    ModelProfile("climate", climate_wl, weight=1.0)]
        mix = ModelMix((0.9, 0.1))
        event = self._sim(profiles, mix, "event")
        rate = LOAD * event.saturation_rate()

        t0 = perf_counter()
        ev = event.run(rate, N_REQUESTS, "poisson", seed=SEED)
        t_event = perf_counter() - t0

        array = self._sim(profiles, mix, "array")
        t0 = perf_counter()
        ar = array.run(rate, N_REQUESTS, "poisson", seed=SEED)
        t_array = perf_counter() - t0
        assert array.last_run_engine == "array"

        assert np.array_equal(ev.latencies, ar.latencies)
        assert np.array_equal(ev.batch_sizes, ar.batch_sizes)
        assert ev.n_dropped == ar.n_dropped
        assert ev.horizon == ar.horizon
        for a, b in zip(ev.models, ar.models):
            assert np.array_equal(a.latencies, b.latencies)
            assert (a.n_offered, a.n_dropped) == (b.n_offered, b.n_dropped)

        speedup = t_event / t_array
        report(f"Fast core, multi-model class: {N_REQUESTS:,} requests, "
               f"{N_REPLICAS} replicas, HEP+climate 90/10", [
                   ("event engine (s)", "--", f"{t_event:.2f}"),
                   ("array engine (s)", "--", f"{t_array:.2f}"),
                   ("speedup vs event loop",
                    f">= {MULTI_SPEEDUP_FLOOR:g}x", f"{speedup:.1f}x"),
                   ("per-model slices identical", "yes", "yes"),
                   ("requests shed", "--", f"{ev.n_dropped:,}"),
               ])
        bench_json("fast_core", {"multi_model": {
            "n_requests": N_REQUESTS, "n_replicas": N_REPLICAS,
            "mix": [0.9, 0.1], "weights": [4.0, 1.0],
            "load_fraction": LOAD, "seed": SEED,
            "event_seconds": t_event, "array_seconds": t_array,
            "event_us_per_request": 1e6 * t_event / N_REQUESTS,
            "speedup_vs_event": speedup,
            "speedup_floor": MULTI_SPEEDUP_FLOOR, "bit_identical": True,
        }})
        assert speedup >= MULTI_SPEEDUP_FLOOR


class TestTenMillionPoint:
    """The 10^7-request / 64-replica point, array engine only.

    The event loop would take minutes here, so there is no differential —
    bit-identity is pinned at 10^6 above and the conservation identities
    are asserted on the result instead. What this point records is that
    the drive *completes* at 10M within a sane wall-clock and memory
    envelope (the RSS bound is tier-1), and its sustained simulated
    requests/second.
    """

    def test_ten_million_requests_complete(self, hep_wl):
        sim = ServingSimulator(hep_wl, n_replicas=N_REPLICAS,
                               policy=BatchingPolicy(max_batch=32),
                               max_queue=128)
        rate = LOAD * sim.saturation_rate()
        t0 = perf_counter()
        stats = sim.run(rate, TEN_MILLION, "poisson", seed=SEED)
        t_array = perf_counter() - t0
        assert sim.last_run_engine == "array"
        assert stats.n_offered == TEN_MILLION
        assert len(stats.latencies) + stats.n_dropped == TEN_MILLION
        assert int(stats.batch_sizes.sum()) == len(stats.latencies)

        throughput = TEN_MILLION / t_array
        report(f"Fast core, ten-million point: {TEN_MILLION:,} requests, "
               f"{N_REPLICAS} replicas at {LOAD:.2f}x saturation", [
                   ("array engine (s)", "--", f"{t_array:.2f}"),
                   ("simulated requests/s", "--", f"{throughput:,.0f}"),
                   ("requests shed", "--", f"{stats.n_dropped:,}"),
               ])
        bench_json("fast_core", {"ten_million": {
            "n_requests": TEN_MILLION, "n_replicas": N_REPLICAS,
            "load_fraction": LOAD, "process": "poisson", "seed": SEED,
            "array_seconds": t_array,
            "simulated_requests_per_second": throughput,
        }})
