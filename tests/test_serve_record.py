"""The run record and its one collector.

Both engines end a run in the same record (:class:`~repro.serve.fast_core.
FastRun`) and :func:`~repro.serve.fast_core.collect` turns it into
:class:`LatencyStats`. The array core's configurations are pinned against
the event engine by the differential suite; the ones below run on the
event engine only (coalescing, node deaths that strand coalesced
followers, autoscaling with fail / degrade / repair events, cost-aware
edf, a traced run), so their stats are pinned by digest: sha256 over
every :class:`LatencyStats` and :class:`PerModelStats` field, recorded
before the event engine wrote the record.

A trace is a view of the same record: six traced runs (a plain fleet with
sheds, coalescing, cost-aware edf, stranded followers, an autoscaled run
with a re-route, a cached fleet) are pinned by digests of their events,
recorded on the tracer that emitted them live from the drive loops.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    MMPP,
    ModelMix,
    ModelProfile,
    ServingSimulator,
    Tracer,
    ZipfPopularity,
    fast_core,
    reconcile,
)
from repro.serve.obs import trace
from repro.serve.metrics import LatencyStats, PerModelStats


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


def _two_models(weight=0.5):
    return dict(
        models=[ModelProfile("alpha", None, slo=0.05),
                ModelProfile("beta", None, weight=weight,
                             policy=BatchingPolicy(max_batch=4,
                                                   max_wait=2e-3))],
        service_models=[FakeService(0.004, 0.001),
                        FakeService(0.009, 0.002, rtt=3e-4)],
        model_mix=ModelMix((0.7, 0.3), mean_run=4.0))


def coalesce_strand_traced(tracer=None):
    """Cache and coalescing on a hot catalog, two leader deaths: the
    followers riding the dead forwards are stranded."""
    sim = AutoscalingSimulator(
        autoscale=AutoscalePolicy(min_replicas=2, max_replicas=5,
                                  epoch=0.05),
        policy=BatchingPolicy(max_batch=8, max_wait=4e-3), max_queue=24,
        failure_events=[FailureEvent(0.21, 0, "fail"),
                        FailureEvent(0.47, 1, "fail")],
        cache_size=4, coalesce=True, **_two_models())
    stats = sim.run(2200.0, n_requests=2000, process="poisson", seed=7,
                    popularity=ZipfPopularity(alpha=1.2, n_keys=64),
                    tracer=tracer)
    return sim, stats


def coalesce_fixed_fleet(tracer=None):
    """Coalescing and a cache on a fixed two-model fleet."""
    sim = ServingSimulator(
        n_replicas=3, policy=BatchingPolicy(max_batch=8, max_wait=3e-3),
        max_queue=16, cache_size=8, coalesce=True, **_two_models(0.3))
    stats = sim.run(1800.0, n_requests=3000, process=MMPP(burst=6.0),
                    seed=3, popularity=ZipfPopularity(alpha=1.0,
                                                      n_keys=256),
                    tracer=tracer)
    return sim, stats


def autoscale_fail_degrade_repair(tracer=None):
    """One model, bursty traffic, a death, a slowdown and its repair."""
    sim = AutoscalingSimulator(
        None, service_model=FakeService(0.003, 5e-4),
        autoscale=AutoscalePolicy(min_replicas=1, max_replicas=6,
                                  epoch=0.04, step_out=2,
                                  cooldown_epochs=0),
        policy=BatchingPolicy(max_batch=16, max_wait=2e-3), max_queue=64,
        failure_events=[FailureEvent(0.3, 0, "fail"),
                        FailureEvent(0.5, 1, "degrade", 3.0),
                        FailureEvent(0.9, 1, "repair"),
                        FailureEvent(1.1, 0, "degrade", 2.0)])
    stats = sim.run(4000.0, n_requests=6000, process=MMPP(burst=8.0),
                    seed=11, tracer=tracer)
    return sim, stats


def autoscale_two_models_edf():
    """Two models, cost-aware edf, deaths and a degrade under control."""
    sim = AutoscalingSimulator(
        autoscale=AutoscalePolicy(min_replicas=2, max_replicas=6,
                                  epoch=0.06),
        policy=BatchingPolicy(max_batch=8, max_wait=3e-3), max_queue=32,
        failure_events=[FailureEvent(0.2, 1, "degrade", 2.5),
                        FailureEvent(0.4, 0, "fail"),
                        FailureEvent(0.7, 1, "repair")],
        order="edf", cost_aware=True, **_two_models())
    stats = sim.run(1500.0, n_requests=2500, process="poisson", seed=5)
    return sim, stats


def edf_cost_aware_three_models():
    """Cost-aware edf on three models sharing a fleet, shedding."""
    sim = ServingSimulator(
        models=[ModelProfile("a", None, slo=0.03),
                ModelProfile("b", None, weight=0.4),
                ModelProfile("c", None, weight=0.2, slo=0.2,
                             policy=BatchingPolicy(max_batch=2))],
        service_models=[FakeService(0.002, 4e-4),
                        FakeService(0.006, 0.001, rtt=2e-4),
                        FakeService(0.02, 0.008, rtt=5e-4)],
        model_mix=ModelMix((0.6, 0.3, 0.1)), n_replicas=4,
        policy=BatchingPolicy(max_batch=16, max_wait=2e-3), max_queue=48,
        order="edf", cost_aware=True)
    stats = sim.run(1.2 * sim.saturation_rate(), n_requests=5000,
                    process="poisson", seed=9)
    return sim, stats


CASES = {f.__name__: f for f in (
    coalesce_strand_traced, coalesce_fixed_fleet,
    autoscale_fail_degrade_repair, autoscale_two_models_edf,
    edf_cost_aware_three_models)}

#: sha256 of :func:`_digest`, recorded on the event engine's own
#: collector (the per-request loop over its ledgers) before the run
#: record replaced it
DIGESTS = {
    "autoscale_fail_degrade_repair":
        "a75a4dd63ae8c44467d63897daeb1e26c90274976d64264ef10516262758bf74",
    "autoscale_two_models_edf":
        "91abc3906604709e6b7c8a90d0e6001d93c5762235fe53763fed79b6e56296cb",
    "coalesce_fixed_fleet":
        "c5b5d126f6746c0eb93561e06df6b94d3bfb8b1fb4969dea0b7fab2867b2dbf1",
    "coalesce_strand_traced":
        "0e1791cfc2a944e201a2ab1f44b65fb26b305bcc7ebff29e9e0ab7e6d11c23a4",
    "edf_cost_aware_three_models":
        "81f9e79ab9ff0ebdc84c8df123eef06d62fbe032f14fc85be80f8d85adfd0cb7",
}


def _blob(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    if isinstance(value, PerModelStats):
        return "|".join(f"{f.name}={_blob(getattr(value, f.name))}"
                        for f in dataclasses.fields(value))
    if isinstance(value, list):
        return "[" + ",".join(_blob(v) for v in value) + "]"
    return repr(value)


def _digest(stats: LatencyStats) -> str:
    """sha256 over every field, arrays by dtype and bytes, the rest by
    ``repr`` (a Python float turning into a NumPy scalar changes it)."""
    text = "|".join(f"{f.name}={_blob(getattr(stats, f.name))}"
                    for f in dataclasses.fields(stats))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_only_stats_are_pinned(name):
    sim, stats = CASES[name]()
    assert sim.last_run_engine == "event"
    assert _digest(stats) == DIGESTS[name]


def test_the_cases_exercise_what_they_pin():
    """Stranded followers, live followers, hits, sheds, failures and every
    failure kind actually happen (a pinned digest of a run that never
    strands anyone pins nothing about stranding)."""
    tracer = Tracer()
    _, stats = coalesce_strand_traced(tracer)
    stranded = [e for e in tracer.events
                if e.kind == "fail" and (e.data or {}).get("stranded")]
    assert stranded and stats.n_coalesced and stats.n_cache_hits
    assert stats.n_dropped and stats.n_failed > len(stranded)
    _, stats = autoscale_fail_degrade_repair()
    actions = {e.action for e in stats.scale_events}
    assert {"failure", "degrade", "repair", "scale_out"} <= actions
    for case in (autoscale_two_models_edf, edf_cost_aware_three_models):
        _, stats = case()
        assert stats.n_dropped and len(stats.models) >= 2


class _ForgetsAnAnswer(ServingSimulator):
    """Loses one answered request's completion just before collecting —
    a member dropped from its launched batch in the event engine, or the
    array core's record."""

    def _collect(self, arrivals, router):
        run = self._fast
        if run is None:
            launched = sorted(router.completions())
            self.lost = launched[len(launched) // 2]
            for h in router.replicas + router.retired:
                batches = h.queue.batches
                for k, b in enumerate(batches):
                    if self.lost in b.request_ids:
                        batches[k] = dataclasses.replace(b, request_ids=tuple(
                            r for r in b.request_ids if r != self.lost))
        else:
            self.lost = int(np.flatnonzero(~run.shed)[-1])
            run.complete_t[self.lost] = np.nan
        return super()._collect(arrivals, router)


@pytest.mark.parametrize("engine", ["event", "array"])
def test_a_missing_completion_is_a_scheduler_bug(engine):
    """An admitted request with no completion that was neither shed nor
    lost to a failure raises ``KeyError`` naming it (a follower of the
    lost leader arrived later, so the leader is the first such id)."""
    sim = _ForgetsAnAnswer(
        n_replicas=2, policy=BatchingPolicy(max_batch=8, max_wait=3e-3),
        max_queue=16, cache_size=8, coalesce=engine == "event",
        **_two_models())
    with pytest.raises(KeyError) as err:
        sim.run(1500.0, n_requests=1500, process="poisson", seed=2,
                popularity=ZipfPopularity(alpha=1.0, n_keys=128))
    assert sim.last_run_engine == engine
    assert err.value.args == (sim.lost,)


def test_the_array_core_never_runs_them():
    for name in ("coalesce_fixed_fleet", "edf_cost_aware_three_models"):
        sim, _ = CASES[name]()
        assert fast_core.unsupported_reason(sim) is not None


# -- traces are a view of the record -------------------------------------------

def plain_with_sheds(tracer=None):
    """One model on a fixed fleet, overloaded on a short queue."""
    sim = ServingSimulator(None, service_model=FakeService(), n_replicas=3,
                           policy=BatchingPolicy(max_batch=8, max_wait=2e-3),
                           max_queue=8)
    stats = sim.run(1.5 * sim.saturation_rate(), n_requests=3000,
                    process="poisson", seed=1, tracer=tracer)
    return sim, stats


def two_models_cost_aware_edf(tracer=None):
    """Cost-aware edf on a fixed two-model fleet: every launch carries its
    lane head's deadline and slack."""
    sim = ServingSimulator(n_replicas=3, order="edf", cost_aware=True,
                           max_queue=24,
                           policy=BatchingPolicy(max_batch=8, max_wait=3e-3),
                           **_two_models())
    stats = sim.run(1.3 * sim.saturation_rate(), n_requests=3000,
                    process="poisson", seed=4, tracer=tracer)
    return sim, stats


def cached_with_evictions(tracer=None):
    """A cached fixed fleet whose 16 entries are far fewer than its 128
    keys, so hits and evictions interleave."""
    sim = ServingSimulator(None, service_model=FakeService(), n_replicas=2,
                           policy=BatchingPolicy(max_batch=8, max_wait=2e-3),
                           max_queue=32, cache_size=16)
    stats = sim.run(1.2 * sim.saturation_rate(), n_requests=2000,
                    process="poisson", seed=5,
                    popularity=ZipfPopularity(alpha=1.1, n_keys=128),
                    tracer=tracer)
    return sim, stats


TRACE_CASES = {f.__name__: f for f in (
    plain_with_sheds, coalesce_fixed_fleet, two_models_cost_aware_edf,
    coalesce_strand_traced, autoscale_fail_degrade_repair,
    cached_with_evictions)}

#: sha256 of :func:`_trace_digest`, recorded on the live-emitting tracer
#: (events sorted under the canonical key) before traces were expanded
#: from the record; ``cached_with_evictions`` later, on the event engine,
#: once traces had no cache insert / evict events
TRACE_DIGESTS = {
    "plain_with_sheds":
        "32ab9d3e9105e5c62b17b0d5ccb7256e8d390d5345244f01334b3825e355a51e",
    "coalesce_fixed_fleet":
        "8536913e13c22f0021a1b537e1d82475bfc263e7ecc6333ee25afff1ac2734c4",
    "two_models_cost_aware_edf":
        "e409487417b797dbc876ec072045c238b09932aca0647096e2a5c1e3b81acbe5",
    "coalesce_strand_traced":
        "81023f003155d17cac3b3369a5ad78d9ed8e97b381acbabb3a91024901989f96",
    "autoscale_fail_degrade_repair":
        "8ead61e8e9776e03acdc1b667400b905eb04db6a60fd0b57af157b924ed39b1b",
    "cached_with_evictions":
        "9af632da9dded81503d0c8a459320f09795d43619069abd024345f191cb6544e",
}


def _trace_digest(events) -> str:
    """sha256 over every event: its fields by ``repr`` (a Python float
    turning into a NumPy scalar changes it), the payload sorted by key."""
    h = hashlib.sha256()
    for ev in events:
        h.update(repr((ev.time, ev.kind, ev.request_id, ev.replica, ev.model,
                       sorted(ev.data.items()))).encode())
        h.update(b"\n")
    return h.hexdigest()


def _canonical_key(run, ev):
    return (run, ev.time, trace._RANK[ev.kind],
            -1 if ev.request_id is None else ev.request_id,
            -1 if ev.replica is None else ev.replica)


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_traces_are_pinned(name):
    """Each trace, event for event: the same events the live emits wrote,
    in the canonical order (by run, time, kind, request id, replica), and
    it reconciles with the stats."""
    tracer = Tracer()
    _, stats = TRACE_CASES[name](tracer)
    events = tracer.events
    assert len(events) == len(tracer)
    keys = [_canonical_key(0, ev) for ev in events]
    assert keys == sorted(keys)
    assert _trace_digest(events) == TRACE_DIGESTS[name]
    reconcile(tracer, stats)
    kinds = tracer.kind_counts()
    if name == "plain_with_sheds":
        assert kinds["shed"]
    if name == "autoscale_fail_degrade_repair":
        assert kinds["reroute"] >= 1 and kinds["batch_abort"] >= 1
    if name == "two_models_cost_aware_edf":
        assert all("slack" in ev.data for ev in events
                   if ev.kind == "batch_launch")
    if name == "cached_with_evictions":
        assert kinds["cache_hit"] and kinds["run_end"] == 1
        assert events[-1].data == {"n_events": 5289}


def test_a_request_timeline_reads_the_record():
    """``timeline(i)`` is the full stream's events about request ``i``
    (its own, and the launch and abort of a batch it rode), without
    materializing the rest; a re-routed request's enqueue is at the drain
    instant."""
    tracer = Tracer()
    autoscale_fail_degrade_repair(tracer)
    moved = next(ev for ev in tracer.events if ev.kind == "reroute")
    aborted = next(ev for ev in tracer.events if ev.kind == "batch_abort")
    tracer = Tracer()
    autoscale_fail_degrade_repair(tracer)   # nothing materialized yet
    for rid in (moved.request_id, aborted.data["request_ids"][0], 0):
        got = tracer.timeline(rid)
        assert got == [ev for ev in tracer.events if ev.request_id == rid
                       or rid in ev.data.get("request_ids", ())]
    enq = [ev for ev in tracer.timeline(moved.request_id)
           if ev.kind == "enqueue"]
    assert [ev.time for ev in enq] == [moved.time]
    assert enq[0].replica == moved.data["to"]
