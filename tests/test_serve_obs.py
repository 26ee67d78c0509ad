"""Observability: tracing, metrics reconciliation, profiling, exporters.

Three families of guarantees:

1. **Zero cost when off** — a ``tracer=None`` run is bit-identical to a
   traced run's stats (same latencies, drops, horizon, scale events),
   across seeds, arrival processes, autoscaling, failures, and
   coalescing. Tracing observes; it never perturbs.
2. **Reconcilable** — lifecycle totals derived purely from trace events
   reproduce the serving conservation identity (``hits + completions +
   shed + failed == offered``) per model and in aggregate, and
   :func:`reconcile` proves them equal to the run's
   :class:`LatencyStats` / :class:`PerModelStats`.
3. **Mechanism semantics** — a run record's expansion into request and
   batch events, terminal state by precedence (a node-death ``fail``
   beats the ``complete`` its aborted batch recorded), structured
   :class:`ScaleReason` on every scale event, profiler span accounting,
   and exporter wire formats (JSON-lines header, Chrome trace-event
   document shape).
"""

import json

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent, FailureModel
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    MetricsRegistry,
    ModelMix,
    ModelProfile,
    Profiler,
    ReconciliationError,
    ScaleEvent,
    ScaleReason,
    ServingSimulator,
    TraceEvent,
    Tracer,
    ZipfPopularity,
    explain,
    reconcile,
    registry_from_trace,
    to_chrome,
    to_jsonl,
)
from repro.serve.fast_core import FastRun
from repro.serve.obs import EVENT_KINDS, trace
from repro.serve.reference import EventLoopSimulator
from repro.sim.workload import hep_workload
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


def _obs_sim(seed, failure_events=None, failures=None):
    """A multi-model autoscaled simulator exercising every trace source:
    admission shedding, cache hits, coalescing, scaling, node deaths."""
    rng = as_rng(seed)
    profiles = [ModelProfile("alpha", None, weight=1.0, slo=0.25),
                ModelProfile("beta", None, weight=float(rng.uniform(0.3, 1)),
                             slo=0.4)]
    services = [FakeService(0.004, 0.001), FakeService(0.009, 0.002)]
    return AutoscalingSimulator(
        models=profiles, service_models=services,
        model_mix=ModelMix((0.6, 0.4)),
        autoscale=AutoscalePolicy(min_replicas=1, max_replicas=5,
                                  target_attainment=0.95, epoch=0.1),
        max_queue=16, policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
        failure_events=failure_events, failures=failures,
        cache_size=32, coalesce=True)


def _failure_events(seed):
    rng = as_rng(seed)
    return [FailureEvent(time=float(rng.uniform(0.1, 0.5)),
                         node_id=int(rng.integers(0, 4)), kind="fail")]


def _assert_same(a, b):
    assert np.array_equal(a.latencies, b.latencies)
    assert a.n_offered == b.n_offered
    assert a.n_dropped == b.n_dropped
    assert a.n_failed == b.n_failed
    assert a.n_cache_hits == b.n_cache_hits
    assert a.n_coalesced == b.n_coalesced
    assert a.horizon == b.horizon


# -- Tracer unit semantics -----------------------------------------------------

def _record(arrivals, batches, shed=(), leader=None, failed=None,
            aborted=None):
    """A hand-built run record: ``batches`` are ``(replica, launch,
    completion, member ids)`` in record order."""
    n = len(arrivals)
    complete_t = np.full(n, np.nan)
    for _, _, comp, ids in batches:
        complete_t[list(ids)] = comp
    shed_mask = np.zeros(n, dtype=bool)
    shed_mask[list(shed)] = True
    sizes = np.array([len(ids) for *_, ids in batches], dtype=np.int64)
    return FastRun(
        complete_t=complete_t, shed=shed_mask,
        bstart=np.array([b[1] for b in batches], dtype=np.float64),
        bcomp=np.array([b[2] for b in batches], dtype=np.float64),
        bsize=sizes, brep=np.array([b[0] for b in batches], dtype=np.int64),
        bfirst=np.cumsum(sizes) - sizes,
        members=np.array([r for *_, ids in batches for r in ids],
                         dtype=np.int64),
        leader=leader, failed=failed, aborted=aborted)


class TestTracer:
    def test_emit_and_lazy_materialization(self):
        tr = Tracer()
        tr.emit("arrival", 1.0, request_id=0, model=0)
        tr.emit("shed", 1.0, request_id=0, model=0)
        assert len(tr) == 2
        evs = tr.events
        assert all(isinstance(e, TraceEvent) for e in evs)
        assert evs[0].kind == "arrival" and evs[1].kind == "shed"
        assert tr.events is evs  # cached until the next emit

    def test_unknown_kind_rejected_on_materialization(self):
        tr = Tracer()
        tr.emit("not_a_kind", 0.0)  # emission does not validate
        with pytest.raises(ValueError, match="unknown trace event kind"):
            _ = tr.events

    def test_every_kind_has_a_place_in_the_order(self):
        assert set(trace._RANK) == set(EVENT_KINDS)
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))

    def test_a_record_expands_into_member_events(self):
        """One batch of requests 7 and 8 (model 1, replica 3): each member
        gets an enqueue at its lane-entry time and a complete at the
        batch's *future* completion; the launch carries the batch; under
        a deadline-aware order also the head's deadline and slack."""
        arrivals = np.arange(9) * 0.1 + 1.0
        arrivals[7:] = (1.7, 1.9)
        run = _record(arrivals, [(3, 2.0, 2.5, (7, 8))], shed=range(7))
        tr = Tracer()
        tr.add_record(run, arrivals, models=np.ones(9, dtype=np.uint8),
                      slos=[0.1, 1.0])
        evs = [e for e in tr.events if e.request_id in (7, 8, None)]
        assert [e.kind for e in evs] == [
            "arrival", "enqueue", "arrival", "enqueue", "batch_launch",
            "complete", "complete"]
        assert len(tr) == len(tr.events) == 9 + 7 + 1 + 2 * 2
        launch = evs[4]
        assert (launch.time, launch.replica, launch.model) == (2.0, 3, 1)
        assert launch.data["size"] == 2
        assert launch.data["completion"] == 2.5
        assert launch.data["request_ids"] == (7, 8)
        assert launch.data["work"] == 2.5 - 2.0
        assert launch.data["deadline"] == 1.7 + 1.0
        assert launch.data["slack"] == 1.7 + 1.0 - 2.5
        # enqueues carry each member's lane-entry time...
        assert [(e.time, e.request_id) for e in evs
                if e.kind == "enqueue"] == [(1.7, 7), (1.9, 8)]
        # ...and member completions are stamped at the *future*
        # completion time
        assert all(e.time == 2.5 and e.replica == 3 for e in evs[5:])
        assert tr.counts() == {"offered": 9, "shed": 7, "cache_hits": 0,
                               "coalesced": 0, "replica_completions": 2,
                               "completed": 2, "failed": 0}

    @pytest.mark.parametrize("fail_first", [False, True])
    def test_fail_beats_the_complete_of_an_aborted_batch(self, fail_first):
        """A node dies at t=0.2, mid-service: the batch's member keeps the
        ``complete`` the record gives it (stamped at 0.4) and the router's
        live ``fail`` beats it by precedence, whichever was recorded
        first. The fail names no model: the record's is used."""
        arrivals = np.array([0.0, 0.0])
        run = _record(arrivals, [(0, 0.1, 0.4, (1,))], shed=(0,),
                      failed=np.array([False, True]),
                      aborted=np.array([True]))
        tr = Tracer()
        if fail_first:
            tr.emit("fail", 0.2, request_id=1, replica=0)
        tr.add_record(run, arrivals)
        if not fail_first:
            tr.emit("fail", 0.2, request_id=1, replica=0)
        c = tr.counts()
        assert c["failed"] == 1 and c["replica_completions"] == 0
        assert tr.counts(model=0)["failed"] == 1
        kinds = [e.kind for e in tr.timeline(1)]
        assert kinds == ["arrival", "enqueue", "batch_launch", "fail",
                         "complete"]
        assert "lost to a node death" in tr.explain(1)

    def test_coalesced_counts_separately(self):
        """Request 1 rides request 0's forward: a ``coalesce`` at its
        arrival and a ``complete`` via the leader at the leader's
        completion; a follower of a dead leader is stranded, a ``fail``."""
        arrivals = np.array([0.0, 0.0, 0.05])
        run = _record(arrivals, [(0, 0.1, 0.2, (0,))],
                      leader=np.array([-1, 0, -1]),
                      failed=np.zeros(3, dtype=bool))
        run.shed[2] = True
        tr = Tracer()
        tr.add_record(run, arrivals)
        assert tr.counts() == {"offered": 3, "shed": 1, "cache_hits": 0,
                               "coalesced": 1, "replica_completions": 1,
                               "completed": 2, "failed": 0}
        ride = [(e.kind, e.time, dict(e.data)) for e in tr.timeline(1)]
        assert ride == [("arrival", 0.0, {}),
                        ("coalesce", 0.0, {"leader": 0}),
                        ("complete", 0.2, {"via": "coalesced", "leader": 0})]
        run.failed[[0, 1]] = True           # the leader died: stranded
        tr = Tracer()
        tr.add_record(run, arrivals)
        assert tr.counts()["failed"] == 1   # no live fail for request 0
        assert tr.timeline(1)[-1].data == {"leader": 0, "stranded": True}

    def test_timeline_is_time_ordered(self):
        arrivals = np.array([0.0] * 6)
        run = _record(arrivals, [(2, 0.3, 0.5, (5,)),
                                 (0, 0.1, 0.2, (0, 1, 2, 3, 4))])
        tr = Tracer()
        tr.add_record(run, arrivals)
        tl = tr.timeline(5)
        assert [e.kind for e in tl] == ["arrival", "enqueue",
                                        "batch_launch", "complete"]
        assert [e.time for e in tl] == sorted(e.time for e in tl)
        # the timeline is the full stream's events about request 5
        assert tl == [e for e in tr.events if e.request_id == 5
                      or 5 in e.data.get("request_ids", ())]

    def test_outcome_columns_keep_the_records_dtypes(self):
        """A record-only tracer keeps three bytes per request (int8 model
        and outcome, bool arrived): an empty int64 placeholder for loose
        requests used to upcast both int8 columns."""
        arrivals = np.arange(4) * 0.1
        run = _record(arrivals, [(0, 0.1, 0.2, (0, 1, 2, 3))])
        tr = Tracer()
        tr.add_record(run, arrivals)
        assert tr.counts()["replica_completions"] == 4
        assert tr.models() == [0]
        assert [c.dtype for c in tr._requests()] == [np.int8, np.int8,
                                                     bool]

    def test_clear_resets(self):
        tr = Tracer()
        tr.emit("run_start", 0.0, data={"rate": 10.0})
        tr.emit("arrival", 0.0, request_id=0, model=0)
        tr.add_record(_record(np.zeros(1), [(0, 0.1, 0.2, (0,))]),
                      np.zeros(1))
        assert tr.meta == {"rate": 10.0}
        tr.clear()
        assert len(tr) == 0 and tr.meta == {} and tr.counts()["offered"] == 0
        tr.emit("run_start", 0.0, data={"rate": 20.0})   # reusable
        assert tr.meta == {"rate": 20.0}

    def test_meta_is_the_run_start_payload_read_only(self):
        tr = Tracer()
        tr.emit("run_start", 0.0, data={"rate": 10.0})
        with pytest.raises(TypeError):
            tr.meta["rate"] = 20.0
        assert tr.meta == tr.events[0].data

    def test_one_run_per_tracer(self):
        """A second ``run_start`` or a second record is refused, naming
        ``clear()``, and changes nothing; a record may follow the run's
        own ``run_start``, and a ``run_start`` may not follow a record."""
        arrivals = np.zeros(2)
        record = _record(arrivals, [(0, 0.1, 0.2, (0, 1))])
        tr = Tracer()
        tr.emit("run_start", 0.0, data={"rate": 1.0})
        tr.add_record(record, arrivals)
        before = (len(tr), tr.counts(), tr.events, dict(tr.meta))
        with pytest.raises(ValueError, match=r"clear\(\)"):
            tr.emit("run_start", 1.0, data={"rate": 2.0})
        with pytest.raises(ValueError, match=r"clear\(\)"):
            tr.add_record(record, arrivals)
        assert (len(tr), tr.counts(), tr.events, dict(tr.meta)) == before
        tr = Tracer()
        tr.add_record(record, arrivals)
        with pytest.raises(ValueError, match="holds a run"):
            tr.emit("run_start", 1.0)

    def test_models_listing(self):
        tr = Tracer()
        tr.emit("arrival", 0.0, request_id=0, model=1)
        tr.emit("arrival", 0.0, request_id=1, model=0)
        tr.emit("epoch", 0.1)  # fleet events carry no model
        assert tr.models() == [0, 1]


# -- metrics registry ----------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("reqs").inc()
        reg.counter("reqs").inc(2)
        reg.gauge("fleet").set(4.0)
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert reg.value("reqs") == 3
        assert reg.value("fleet") == 4.0
        assert h.count == 4 and h.sum == 10.0
        assert h.percentile(50) == pytest.approx(2.5)

    def test_counter_refuses_decrement(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("reqs").inc(-1)

    @pytest.mark.parametrize("bad", [float("nan"), 0.5, 1.0, -1])
    def test_counter_counts_whole_events(self, bad):
        c = MetricsRegistry().counter("reqs")
        c.inc(np.int64(2))
        with pytest.raises(ValueError, match="whole events"):
            c.inc(bad)
        assert c.value == 2

    def test_histogram_refuses_nan(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError, match="nan"):
            h.observe(float("nan"))
        assert h.count == 1 and h.sum == 1.0 and h.percentile(50) == 1.0

    def test_name_bound_to_one_kind(self):
        reg = MetricsRegistry()
        reg.counter("reqs")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("reqs")

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("c", model="a").inc()
        reg.counter("c", model="b").inc(2)
        assert reg.value("c", model="a") == 1
        assert reg.total("c") == 3
        assert len(reg.collect()) == 2

    def test_render_mentions_series(self):
        reg = MetricsRegistry()
        reg.counter("serve_requests_total", model="hep").inc(5)
        text = reg.render()
        assert "serve_requests_total" in text and "hep" in text


# -- reconciliation ------------------------------------------------------------

class TestReconcile:
    def test_reconcile_passes_and_builds_registry(self):
        sim = _obs_sim(11, failure_events=_failure_events(11))
        tr = Tracer()
        stats = sim.run(1.2 * sim.saturation_rate(), n_requests=1500,
                        process="mmpp", seed=11, popularity="zipf",
                        tracer=tr)
        reg = reconcile(tr, stats)
        assert reg.total("serve_requests_offered_total") == stats.n_offered
        assert reg.total("serve_requests_shed_total") == stats.n_dropped

    def test_reconcile_raises_on_divergence(self):
        sim = ServingSimulator(None, n_replicas=2,
                               service_models=[FakeService()],
                               policy=BatchingPolicy(max_batch=4))
        tr = Tracer()
        stats = sim.run(100.0, n_requests=200, seed=0, tracer=tr)
        tr.emit("arrival", 0.0, request_id=10_000, model=0)  # phantom
        with pytest.raises(ReconciliationError, match="offered"):
            reconcile(tr, stats)

    def test_registry_from_trace_fleet_series(self):
        sim = _obs_sim(11, failure_events=_failure_events(11))
        tr = Tracer()
        sim.run(1.2 * sim.saturation_rate(), n_requests=1500,
                process="mmpp", seed=11, popularity="zipf", tracer=tr)
        reg = registry_from_trace(tr)
        assert reg.total("serve_batches_total") > 0
        assert reg.total("serve_scale_events_total") > 0


# -- the conservation property, from events alone ------------------------------

@pytest.mark.parametrize("process", ["poisson", "mmpp"])
@pytest.mark.parametrize("seed", SEEDS)
class TestTraceConservation:
    def test_trace_counts_reproduce_stats(self, seed, process):
        tr = Tracer()
        sim = _obs_sim(seed, failure_events=_failure_events(seed))
        rate = float(as_rng(seed).uniform(0.9, 1.5)) * sim.saturation_rate()
        stats = sim.run(rate, n_requests=2000, process=process, seed=seed,
                        popularity=ZipfPopularity(alpha=1.1, n_keys=128),
                        tracer=tr)
        # reconcile() asserts trace totals == stats, per model + aggregate
        reconcile(tr, stats)
        agg = tr.counts()
        assert (agg["cache_hits"] + agg["replica_completions"]
                + agg["coalesced"] + agg["shed"] + agg["failed"]
                == agg["offered"])
        assert agg["offered"] == 2000
        for m in tr.models():
            c = tr.counts(model=m)
            assert (c["cache_hits"] + c["replica_completions"]
                    + c["coalesced"] + c["shed"] + c["failed"]
                    == c["offered"]), f"model {m}"

    def test_tracer_none_bit_identical(self, seed, process):
        kw = dict(n_requests=2000, process=process, seed=seed,
                  popularity=ZipfPopularity(alpha=1.1, n_keys=128))
        events = _failure_events(seed)
        a_sim = _obs_sim(seed, failure_events=events)
        rate = float(as_rng(seed).uniform(0.9, 1.5)) * a_sim.saturation_rate()
        traced = a_sim.run(rate, tracer=Tracer(), profiler=Profiler(), **kw)
        plain = _obs_sim(seed, failure_events=events).run(rate, **kw)
        _assert_same(traced, plain)
        assert len(traced.scale_events) == len(plain.scale_events)
        for x, y in zip(traced.scale_events, plain.scale_events):
            assert (x.time, x.action, x.delta, x.n_replicas) == \
                (y.time, y.action, y.delta, y.n_replicas)


class TestTracedStochasticFailures:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_conservation_with_failure_model(self, seed):
        # A FailureModel draws each run's events from the model's seed and
        # the run's, so the traced and untraced runs of one simulator
        # meet the same failures.
        sim = _obs_sim(seed, failures=FailureModel(mtbf_node_hours=0.002,
                                                   seed=seed))
        tr = Tracer()
        kw = dict(n_requests=1500, process="mmpp", seed=seed,
                  popularity="zipf")
        rate = 1.2 * sim.saturation_rate()
        stats = sim.run(rate, tracer=tr, **kw)
        reconcile(tr, stats)
        _assert_same(stats, sim.run(rate, **kw))


# -- ScaleReason ---------------------------------------------------------------

class TestScaleReason:
    def test_cause_validated(self):
        with pytest.raises(ValueError, match="unknown scale cause"):
            ScaleReason("because")

    def test_signals_and_str(self):
        r = ScaleReason("attainment_below_target", attainment=0.8,
                        occupancy=0.9, n_doomed=3,
                        detail="attainment 0.80 < target 0.95")
        assert r.signals()["attainment"] == 0.8
        assert str(r) == "attainment 0.80 < target 0.95"
        assert str(ScaleReason("steady")) == "steady"

    def test_scale_events_carry_structured_reasons(self):
        sim = _obs_sim(11, failure_events=_failure_events(11))
        tr = Tracer()
        stats = sim.run(1.3 * sim.saturation_rate(), n_requests=2000,
                        process="mmpp", seed=11, popularity="zipf",
                        tracer=tr)
        assert stats.scale_events, "expected fleet changes"
        for ev in stats.scale_events:
            assert isinstance(ev.reason, ScaleReason)
        causes = {ev.reason.cause for ev in stats.scale_events}
        assert causes <= {"attainment_below_target", "sustained_idle",
                          "node_death", "replace_failed"}
        # every applied change also hit the trace with its signals
        scales = [e for e in tr.events if e.kind == "scale"]
        assert len(scales) == len(stats.scale_events)
        decisions = [e for e in tr.events if e.kind == "decision"]
        assert len(decisions) == len(stats.epochs)

    def test_every_fleet_event_traces_what_it_records(self):
        """Controller changes, node deaths, degrades and repairs each
        record one ScaleEvent and one ``scale`` trace event carrying the
        same fields; a node event also names its node, a death what it
        lost, a degrade its slow factor."""
        events = [FailureEvent(0.15, 1, "degrade", 3.0),
                  FailureEvent(0.3, 0, "fail"),
                  FailureEvent(0.45, 1, "repair")]
        sim = _obs_sim(5, failure_events=events)
        tr = Tracer()
        stats = sim.run(1.3 * sim.saturation_rate(), n_requests=2000,
                        process="mmpp", seed=5, popularity="zipf",
                        tracer=tr)
        scales = [e for e in tr.events if e.kind == "scale"]
        assert len(scales) == len(stats.scale_events)
        # by cause: a controller repair (replace_failed) names no node
        extra = {"node_death": {"node_id", "lost"},
                 "node_degrade": {"node_id", "slow_factor"},
                 "node_repair": {"node_id"}}
        assert set(extra) <= {ev.reason.cause for ev in stats.scale_events}
        for ev, te in zip(stats.scale_events, scales):
            assert te.time == ev.time
            assert (te.data["epoch"], te.data["action"], te.data["delta"],
                    te.data["n_replicas"]) \
                == (ev.epoch, ev.action, ev.delta, ev.n_replicas)
            assert set(te.data) == ({"epoch", "action", "delta",
                                     "n_replicas"}
                                    | extra.get(ev.reason.cause, set())
                                    | set(ev.reason.signals()))
            if ev.action == "degrade":
                assert te.data["slow_factor"] == 3.0

    def test_scale_event_accepts_reason_none(self):
        ev = ScaleEvent(0.0, 0, "scale_out", 1, 2)
        assert ev.reason is None


# -- profiler ------------------------------------------------------------------

class TestProfiler:
    def test_span_and_wrap_accumulate(self):
        prof = Profiler()
        with prof.span("outer"):
            sum(range(1000))
        f = prof.wrap("fn", lambda x: x * 2)
        assert f(21) == 42 and f.__wrapped__(21) == 42
        assert prof.calls("fn") == 1
        assert prof.totals()["outer"] > 0.0
        report = prof.perf_report()
        assert "outer" in report and "fn" in report and "us/call" in report

    def test_to_dict_sorted_by_time(self):
        prof = Profiler()
        prof.add("slow", 2.0, calls=4)
        prof.add("fast", 0.5)
        rows = prof.to_dict()
        assert list(rows) == ["slow", "fast"]
        assert rows["slow"]["per_call_us"] == pytest.approx(500_000.0)

    def test_profiled_run_records_hot_path(self):
        """The router and cache spans time the event loop's hot path."""
        prof = Profiler()
        sim = EventLoopSimulator(None, n_replicas=2,
                                 service_models=[FakeService()],
                                 policy=BatchingPolicy(max_batch=8),
                                 cache_size=16)
        sim.run(200.0, n_requests=500, seed=3, popularity="zipf",
                profiler=prof)
        assert sim.last_run_engine == "event"
        t = prof.totals()
        for name in ("run.drive", "router.submit", "router.sync",
                     "cache.get"):
            assert name in t, name


# -- exporters -----------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_run():
    sim = _obs_sim(11, failure_events=_failure_events(11))
    tr = Tracer()
    stats = sim.run(1.3 * sim.saturation_rate(), n_requests=2000,
                    process="mmpp", seed=11, popularity="zipf", tracer=tr)
    return tr, stats


class TestExporters:
    def test_jsonl_header_and_count(self, traced_run, tmp_path):
        tr, _ = traced_run
        path = tmp_path / "run.trace.jsonl"
        n = to_jsonl(tr, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert "meta" in header and header["meta"]["n_requests"] == 2000
        assert len(lines) - 1 == n == len(tr)
        ev = json.loads(lines[1])
        assert {"t", "kind"} <= set(ev)

    def test_chrome_document_shape(self, traced_run, tmp_path):
        tr, _ = traced_run
        path = tmp_path / "run.trace.json"
        n = to_chrome(tr, path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert len(evs) == n > 0
        phases = {e["ph"] for e in evs}
        # counter track, duration slices, async request spans, metadata
        assert {"C", "X", "b", "e", "M"} <= phases
        pids = {e["pid"] for e in evs}
        assert pids == {0, 1, 2}  # fleet, replicas, requests
        names = {e["name"] for e in evs if e["ph"] == "M"}
        assert "process_name" in names

    def test_chrome_max_requests_caps_request_track(self, traced_run,
                                                    tmp_path):
        tr, _ = traced_run
        n_all = to_chrome(tr, tmp_path / "all.json")
        n_cap = to_chrome(tr, tmp_path / "cap.json", max_requests=10)
        assert n_cap < n_all

    @pytest.mark.parametrize("bad", [-1, 2.0, "10"])
    def test_chrome_refuses_a_bad_request_cap(self, bad, tmp_path):
        """A negative cap would slice from the end (``-1`` dropped the
        last request) and a non-integer one would not slice at all."""
        tr = Tracer()
        tr.add_record(_record(np.zeros(3), [(0, 0.1, 0.2, (0, 1, 2))]),
                      np.zeros(3))
        with pytest.raises(ValueError, match="non-negative integer"):
            to_chrome(tr, tmp_path / "bad.json", max_requests=bad)
        assert not (tmp_path / "bad.json").exists()
        to_chrome(tr, tmp_path / "all.json", max_requests=3)
        doc = json.loads((tmp_path / "all.json").read_text())
        assert sum(e["ph"] == "b" for e in doc["traceEvents"]) == 3

    def test_jsonl_leaves_no_event_stream_on_the_tracer(self, tmp_path):
        """Like ``to_chrome``, ``to_jsonl`` builds the stream it writes and
        drops it: iterating ``tracer.events`` kept every ``TraceEvent`` of
        the run cached on the tracer after the export."""
        tr = Tracer()
        tr.add_record(_record(np.zeros(3), [(0, 0.1, 0.2, (0, 1, 2))]),
                      np.zeros(3))
        n = to_jsonl(tr, tmp_path / "run.jsonl")
        assert tr._events is None
        assert n == len(tr) > 0

    def test_explain_shed_and_completed(self, traced_run):
        tr, _ = traced_run
        shed = next(e.request_id for e in tr.events if e.kind == "shed")
        text = explain(tr, shed)
        assert "rejected by admission control" in text
        done = next(e.request_id for e in tr.events
                    if e.kind == "complete" and e.data.get("via") == "replica")
        text = explain(tr, done)
        assert "completed on a replica" in text and "SLO" in text

    def test_explain_unknown_request(self, traced_run):
        tr, _ = traced_run
        assert "no trace events" in explain(tr, 10 ** 9)


class TestOneRun:
    def test_a_second_run_is_refused_before_it_drives(self, monkeypatch):
        """``run()`` on a tracer that holds a run raises ``ValueError``
        naming ``clear()`` before the second simulator drives anything,
        and the tracer still holds the first run, unchanged."""
        sim = _obs_sim(11, failure_events=_failure_events(11))
        tr = Tracer()
        sim.run(0.5 * sim.saturation_rate(), n_requests=50, process="mmpp",
                seed=11, popularity="zipf", tracer=tr)
        before = (len(tr), tr.counts(), tr.events, dict(tr.meta))
        other = _obs_sim(12)

        def refuse(*args):
            raise AssertionError("a refused run drove its simulator")

        monkeypatch.setattr(other, "_drive", refuse)
        with pytest.raises(ValueError, match=r"clear\(\)"):
            other.run(3.0 * other.saturation_rate(), n_requests=60,
                      process="mmpp", seed=11, popularity="zipf",
                      tracer=tr)
        assert (len(tr), tr.counts(), tr.events, dict(tr.meta)) == before

    def test_a_cleared_tracer_records_like_a_fresh_one(self, tmp_path):
        """After ``clear()`` a reused tracer's events and both exports
        are a fresh tracer's, byte for byte."""
        sim = _obs_sim(11, failure_events=_failure_events(11))
        kw = dict(process="mmpp", seed=11, popularity="zipf")
        reused, fresh = Tracer(), Tracer()
        sim.run(0.5 * sim.saturation_rate(), n_requests=50, tracer=reused,
                **kw)
        reused.clear()
        for tr in (reused, fresh):
            sim.run(3.0 * sim.saturation_rate(), n_requests=60, tracer=tr,
                    **kw)
        assert reused.events == fresh.events
        assert reused.meta == fresh.meta
        for export in (to_jsonl, to_chrome):
            export(reused, tmp_path / "reused")
            export(fresh, tmp_path / "fresh")
            assert (tmp_path / "reused").read_bytes() == \
                (tmp_path / "fresh").read_bytes()

    def test_a_second_model_set_cannot_relabel_a_run(self, tmp_path):
        """A HEP run and then a two-model run ("x", "y") on one tracer
        used to name every request span "x" or "y" (the second run's
        metadata labelled both) and overlap the runs' batches on one
        replica track. The second run is refused; the export is the HEP
        run's alone."""
        hep = ServingSimulator(hep_workload(), n_replicas=2)
        tr = Tracer()
        hep.run(0.9 * hep.saturation_rate(), n_requests=200,
                process="poisson", seed=0, tracer=tr)
        two = ServingSimulator(
            models=[ModelProfile("x", hep_workload()),
                    ModelProfile("y", hep_workload())], n_replicas=2)
        with pytest.raises(ValueError, match=r"clear\(\)"):
            two.run(0.9 * two.saturation_rate(), n_requests=200,
                    process="poisson", seed=0, tracer=tr)
        to_chrome(tr, tmp_path / "hep.json")
        evs = json.loads((tmp_path / "hep.json").read_text())["traceEvents"]
        assert {e["name"].split()[0] for e in evs if e["ph"] == "b"} == {
            "hep"}
        for rep in (0, 1):
            spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in evs
                           if e["ph"] == "X" and e["tid"] == rep)
            assert spans and all(b[0] >= a[1] - 1e-6
                                 for a, b in zip(spans, spans[1:]))


# -- run metadata --------------------------------------------------------------

class TestRunMeta:
    def test_meta_published_on_run_start(self, traced_run):
        tr, _ = traced_run
        assert tr.meta["models"] == ["alpha", "beta"]
        assert tr.meta["n_requests"] == 2000
        assert tr.meta["process"] == "mmpp"
        assert len(tr.meta["slos"]) == 2
        starts = [e for e in tr.events if e.kind == "run_start"]
        ends = [e for e in tr.events if e.kind == "run_end"]
        assert len(starts) == 1 and len(ends) == 1
        assert ends[0].data["n_events"] == len(tr)
        assert tr.counts()["offered"] == 2000
