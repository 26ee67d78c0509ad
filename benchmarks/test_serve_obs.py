"""Observability acceptance benchmarks for ``repro.serve.obs``.

Two acceptance claims from the observability PR:

1. **Tracing is within budget.** Full per-request tracing (every
   lifecycle transition, batch launch, cache event) on the 100k-request /
   64-replica acceptance sweep costs <= 15% wall-clock over the untraced
   run, and the traced run's stats are bit-identical — the tracer
   observes, it never perturbs. A trace is a view of the run record, so
   a traced 1M-request run stays on the array core, within 10% of the
   untraced one.
2. **The exporters produce a loadable artifact.** A bursty multi-model
   autoscaled run (failures, coalescing, scaling) exports a Chrome
   trace-event file with fleet/replica/request tracks; CI uploads it so
   any PR's serving behavior can be dropped straight into Perfetto.

Headline numbers land in ``BENCH_serve.json`` under ``trace_overhead``
(stamped with git SHA + timestamp by :func:`bench_report.bench_json`).
"""

import gc
import json
import time

import numpy as np

from bench_report import bench_json, report
from repro.cluster.failures import FailureModel
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    ModelMix,
    ModelProfile,
    Profiler,
    ServingSimulator,
    Tracer,
    ZipfPopularity,
    reconcile,
)

ZIPF = ZipfPopularity(alpha=1.1, n_keys=512)

#: the CI artifact (uploaded by tier-2; Perfetto / chrome://tracing)
SAMPLE_TRACE = "sample.trace.json"


class TestTracingOverhead:
    N_REQUESTS = 100_000
    N_REPLICAS = 64

    def test_100k_sweep_overhead_within_budget(self, hep_wl):
        """The acceptance run of the perf PR, traced: 100k requests into
        64 replicas at the saturation rate, Zipf-1.1 contents through a
        128-entry cache. Full tracing must stay within 15% wall-clock of
        the untraced run and change nothing about the simulation."""
        policy = BatchingPolicy(max_batch=32, max_wait=0.001)

        def make():
            return ServingSimulator(hep_wl, n_replicas=self.N_REPLICAS,
                                    policy=policy, cache_size=128)

        rate = make().saturation_rate()
        kw = dict(n_requests=self.N_REQUESTS, process="poisson", seed=0,
                  popularity=ZIPF)

        # warm both paths once (imports, allocator), then time
        # alternating pairs and take each side's minimum — minimum is
        # the best rejecter of scheduler noise (a spike only ever adds
        # time), interleaving keeps a sustained load swing from landing
        # entirely on one side of the ratio, and alternating which side
        # goes first cancels any position bias within a pair. Each
        # sample starts from a collected heap (pyperf does the same):
        # the trace's retained events advance the GC generation counters
        # faster, and without the collect the ~40ms full-heap gen-2 pass
        # lands in whichever window the *accumulated* heap history put
        # it — a measurement artifact. In-window GC (the tracer's real,
        # steady-state collection cost) is still on the clock.
        tracer = Tracer()
        make().run(rate, **kw)
        make().run(rate, tracer=tracer, **kw)
        t_plain = t_traced = float("inf")
        plain = traced = None

        def sample_plain():
            nonlocal t_plain, plain
            gc.collect()
            t0 = time.perf_counter()
            plain = make().run(rate, **kw)
            t_plain = min(t_plain, time.perf_counter() - t0)

        def sample_traced():
            nonlocal t_traced, traced
            tracer.clear()
            gc.collect()
            t0 = time.perf_counter()
            traced = make().run(rate, tracer=tracer, **kw)
            t_traced = min(t_traced, time.perf_counter() - t0)

        for i in range(5):
            first, second = ((sample_plain, sample_traced) if i % 2 == 0
                             else (sample_traced, sample_plain))
            first()
            second()
        assert np.array_equal(traced.latencies, plain.latencies), \
            "tracing changed simulation output"
        assert traced.n_dropped == plain.n_dropped
        assert traced.n_cache_hits == plain.n_cache_hits
        assert traced.horizon == plain.horizon
        reconcile(tracer, traced)  # and the trace accounts for every request
        overhead = t_traced / t_plain - 1.0
        events_per_req = len(tracer) / self.N_REQUESTS
        report(f"tracing overhead: {self.N_REQUESTS // 1000}k requests, "
               f"{self.N_REPLICAS} replicas (HEP, saturation rate)", [
                   ("untraced wall-clock (s)", "--", f"{t_plain:.2f}"),
                   ("traced wall-clock (s)", "--", f"{t_traced:.2f}"),
                   ("overhead", "<= 15%", f"{overhead * 100:.1f}%"),
                   ("trace events", "--", f"{len(tracer)}"),
                   ("events/request", "--", f"{events_per_req:.2f}"),
                   ("output", "bit-identical", "bit-identical"),
               ])
        assert overhead <= 0.15, (
            f"tracing cost {overhead * 100:.1f}% wall-clock, budget is 15%")
        bench_json("trace_overhead", {
            "n_requests": self.N_REQUESTS, "n_replicas": self.N_REPLICAS,
            "rate_req_s": rate,
            "wall_clock_untraced_s": t_plain,
            "wall_clock_traced_s": t_traced,
            "overhead_fraction": overhead,
            "trace_events": len(tracer),
            "events_per_request": events_per_req,
        })

    def test_1m_array_run_traced_within_10_percent(self, hep_wl):
        """A plain tracer keeps a supported run on the array core: the
        1M-request / 64-replica plain run, traced, within 10% of the
        untraced array run's wall clock, with the same stats, a trace
        whose counts account for every request, and one request's
        timeline read off the record without materializing the rest."""
        n = 1_000_000

        def make():
            return ServingSimulator(hep_wl, n_replicas=self.N_REPLICAS,
                                    policy=BatchingPolicy(max_batch=32),
                                    max_queue=128)

        rate = 1.05 * make().saturation_rate()
        kw = dict(n_requests=n, process="poisson", seed=0)
        t_plain = t_traced = float("inf")
        plain = traced = tracer = None

        def sample_plain():
            nonlocal t_plain, plain
            sim = make()
            gc.collect()
            t0 = time.perf_counter()
            plain = sim.run(rate, **kw)
            t_plain = min(t_plain, time.perf_counter() - t0)
            assert sim.last_run_engine == "array"

        def sample_traced():
            nonlocal t_traced, traced, tracer
            sim, tracer = make(), Tracer()
            gc.collect()
            t0 = time.perf_counter()
            traced = sim.run(rate, tracer=tracer, **kw)
            t_traced = min(t_traced, time.perf_counter() - t0)
            assert sim.last_run_engine == "array"

        make().run(rate, n_requests=10_000, process="poisson", seed=0)
        for i in range(5):
            first, second = ((sample_plain, sample_traced) if i % 2 == 0
                             else (sample_traced, sample_plain))
            first()
            second()
        assert np.array_equal(traced.latencies, plain.latencies)
        assert (traced.n_dropped, traced.horizon) \
            == (plain.n_dropped, plain.horizon)
        c = tracer.counts()
        assert (c["offered"], c["shed"], c["completed"], c["failed"]) \
            == (n, traced.n_dropped, traced.n_completed, 0)
        t0 = time.perf_counter()
        text = tracer.explain(n // 2)
        t_explain = time.perf_counter() - t0
        assert "outcome:" in text
        overhead = t_traced / t_plain - 1.0
        report(f"tracing overhead on the array core: {n // 1000}k "
               f"requests, {self.N_REPLICAS} replicas (HEP, 1.05x "
               f"saturation)", [
                   ("untraced wall-clock (s)", "--", f"{t_plain:.2f}"),
                   ("traced wall-clock (s)", "--", f"{t_traced:.2f}"),
                   ("overhead", "<= 10%", f"{overhead * 100:.1f}%"),
                   ("trace events", "--", f"{len(tracer)}"),
                   ("explain(one request) (s)", "--", f"{t_explain:.3f}"),
               ])
        assert overhead <= 0.10, (
            f"a traced array run cost {overhead * 100:.1f}% wall-clock, "
            f"budget is 10%")
        bench_json("trace_overhead", {
            "array_n_requests": n,
            "array_wall_clock_untraced_s": t_plain,
            "array_wall_clock_traced_s": t_traced,
            "array_overhead_fraction": overhead,
            "array_trace_events": len(tracer),
            "array_explain_s": t_explain,
        })

    def test_profiler_spans_cover_the_run(self, hep_wl):
        """The profiled hot path accounts for most of the wall-clock: the
        run.* spans tile the run (on the array core the drive is one
        span: the router and cache spans time the event loop only)."""
        prof = Profiler()
        sim = ServingSimulator(hep_wl, n_replicas=8, cache_size=64)
        t0 = time.perf_counter()
        sim.run(sim.saturation_rate(), n_requests=20_000, seed=0,
                popularity=ZIPF, profiler=prof)
        wall = time.perf_counter() - t0
        totals = prof.totals()
        spanned = sum(totals[k] for k in
                      ("run.arrivals", "run.drive", "run.drain",
                       "run.collect"))
        assert 0 < spanned <= wall * 1.05
        assert spanned >= 0.5 * wall, (
            f"top-level spans cover only {spanned / wall:.0%} of the run")
        bench_json("trace_overhead", {
            "profiled_wall_s": wall,
            "profiled_span_coverage": spanned / wall,
        })


class TestSampleTraceArtifact:
    def test_bursty_autoscaled_trace_exports(self):
        """A trace with everything on it — two models, MMPP bursts, node
        deaths, scaling, coalescing — exported Chrome-trace-shaped for
        the CI artifact."""
        profiles = [
            ModelProfile("hep", None, weight=3.0, slo=0.25),
            ModelProfile("clim", None, weight=1.0, slo=0.4),
        ]

        class FakeService:
            def __init__(self, base, per, rtt=1e-4):
                self.base, self.per, self.rtt = base, per, rtt

            def batch_time(self, b):
                return self.base + self.per * b

            def request_rtt(self):
                return self.rtt

            def peak_throughput(self, b):
                return b / self.batch_time(b)

        sim = AutoscalingSimulator(
            models=profiles, model_mix=ModelMix((3.0, 1.0)),
            service_models=[FakeService(0.004, 0.001),
                            FakeService(0.009, 0.002)],
            autoscale=AutoscalePolicy(min_replicas=2, max_replicas=8,
                                      epoch=0.5),
            policy=BatchingPolicy(max_batch=8, max_wait=0.02),
            max_queue=16, cache_size=64, coalesce=True,
            failures=FailureModel(mtbf_node_hours=0.002, seed=5))
        tracer = Tracer()
        stats = sim.run(120.0, n_requests=10_000, process="mmpp", seed=11,
                        popularity=ZipfPopularity(alpha=1.1, n_keys=256),
                        tracer=tracer)
        reconcile(tracer, stats)
        n = tracer.to_chrome(SAMPLE_TRACE)
        doc = json.load(open(SAMPLE_TRACE))
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == n > 0
        assert {e["pid"] for e in doc["traceEvents"]} == {0, 1, 2}
        report("sample trace artifact (bursty multi-model autoscaled run)", [
                   ("requests", "--", f"{stats.n_offered}"),
                   ("trace events", "--", f"{len(tracer)}"),
                   ("chrome events", "--", f"{n}"),
                   ("scale events", "--", f"{len(stats.scale_events)}"),
                   ("file", "Perfetto-loadable", SAMPLE_TRACE),
               ])
        bench_json("trace_overhead", {
            "sample_trace_file": SAMPLE_TRACE,
            "sample_trace_events": n,
        })
