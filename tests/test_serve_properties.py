"""Property-based invariants for the micro-batching schedulers.

Random arrival sequences, batching policies, and service-time models
(seeded ``numpy`` randomness — no extra dependencies) drive
``plan_batches`` and check invariants that must hold for *every* input,
not just the handcrafted cases in ``test_serve.py``:

1. every request appears in exactly one launched batch;
2. batch sizes never exceed ``max_batch`` (and are never empty);
3. no batch launches before its members arrive;
4. windowed launches respect the ``max_wait`` deadline;
5. continuous mode never lets the replica idle while work is queued;
6. one replica serves batches serially, with consistent completions;
7. requests launch and complete in FIFO order;
8. differential: windowed with ``max_wait=0`` and continuous mode produce
   identical batch plans;
9. a non-finite hold window still drains (regression for the silently
   dropped final partial batch).

The statistical half pins the arrival samplers to their analytic
inter-arrival moments (Poisson: mean 1/rate, CV 1; MMPP: phase-type
moments from :meth:`MMPP.interarrival_moments`) under fixed seeds.

The Hypothesis section holds the event engine's *kept* state — a queue's
lane keys, full-lane count and the launch instants it returns and keeps,
a router's published load values and pending launch events — to what a
fresh computation gives after every generated step. A twin queue that
advances before every push holds the advances a push skips to no-ops,
step by step. Generated whole simulations run under the router's
launch-event rule and under the every-admit rule it replaced, and must
agree bit for bit. Generated simulators over 1-3 models hand the router
and the array core the one list of admission limits the simulator
computes. Generated traced runs of the array core's configurations
record the event engine's trace, event for event. The last two tests pin
the work an admit does — calls, not seconds — on fixed-seed runs: the
queue and sync calls, and one router call per arrival.
"""

import heapq
import inspect
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureEvent
from repro.serve import (
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    ModelMix,
    ModelProfile,
    Router,
    ServingSimulator,
    Tracer,
    ZipfPopularity,
    plan_batches,
    reconcile,
    slo_sim,
)
from repro.serve.arrivals import MMPP, poisson_arrivals
from repro.serve.batching import (
    BATCHING_MODES,
    LAUNCH_ORDERS,
    ReplicaBatchQueue,
)
from repro.serve.reference import EventLoopSimulator
from repro.utils.rng import as_rng

#: every property must hold under each of these seeds (exercised in CI)
SEEDS = [7, 1234, 20260729]
N_CASES = 25
EPS = 1e-9


def random_case(rng, mode=None):
    """One random scheduling scenario: arrivals, policy, service model."""
    n = int(rng.integers(1, 64))
    scale = float(rng.choice([1e-3, 1e-2, 1e-1]))
    gaps = rng.exponential(scale, size=n)
    gaps[rng.random(n) < 0.3] = 0.0          # bursts of simultaneous arrivals
    arrivals = np.cumsum(gaps)
    arrivals -= arrivals[0]
    policy = BatchingPolicy(
        max_batch=int(rng.integers(1, 9)),
        max_wait=float(rng.choice([0.0, 2e-3, 2e-2, 0.5])),
        mode=str(rng.choice(["windowed", "continuous"]) if mode is None
                 else mode))
    base = float(rng.uniform(1e-3, 5e-2))
    per = float(rng.uniform(1e-4, 1e-2))
    return arrivals, policy, (lambda b: base + per * b)


def cases(seed, mode=None, n_cases=N_CASES):
    rng = as_rng(seed)
    for _ in range(n_cases):
        yield random_case(rng, mode=mode)


@pytest.mark.parametrize("seed", SEEDS)
class TestSchedulerInvariants:
    def test_every_request_in_exactly_one_batch(self, seed):
        for arrivals, policy, service in cases(seed):
            batches = plan_batches(arrivals, policy, service)
            ids = Counter(rid for b in batches for rid in b.request_ids)
            assert ids == Counter(range(len(arrivals))), (
                f"partition broken under {policy}")

    def test_batch_sizes_within_policy(self, seed):
        for arrivals, policy, service in cases(seed):
            for b in plan_batches(arrivals, policy, service):
                assert 1 <= b.size <= policy.max_batch

    def test_no_launch_before_members_arrive(self, seed):
        for arrivals, policy, service in cases(seed):
            for b in plan_batches(arrivals, policy, service):
                last = max(arrivals[rid] for rid in b.request_ids)
                assert b.start >= last - EPS, (
                    f"batch launched at {b.start} before member arrival "
                    f"{last} under {policy}")

    def test_windowed_launch_respects_max_wait(self, seed):
        """A windowed batch launches no later than the previous batch's
        completion or its head's deadline, whichever is later — the head
        never waits out more than ``max_wait`` of replica idle time."""
        for arrivals, policy, service in cases(seed, mode="windowed"):
            free_at = 0.0
            for b in plan_batches(arrivals, policy, service):
                head = min(arrivals[rid] for rid in b.request_ids)
                assert b.start <= max(free_at, head + policy.max_wait) + EPS
                free_at = b.completion

    def test_continuous_never_idles_with_queued_work(self, seed):
        """Continuous mode launches the instant the replica frees with work
        queued (or the instant work shows up on an idle replica): the start
        is exactly the later of the previous completion and the last
        member's arrival."""
        for arrivals, policy, service in cases(seed, mode="continuous"):
            free_at = 0.0
            for b in plan_batches(arrivals, policy, service):
                last = max(arrivals[rid] for rid in b.request_ids)
                assert b.start == pytest.approx(max(free_at, last), abs=EPS)
                free_at = b.completion

    def test_replica_serves_batches_serially(self, seed):
        for arrivals, policy, service in cases(seed):
            free_at = 0.0
            for b in plan_batches(arrivals, policy, service):
                assert b.start >= free_at - EPS, "batches overlap in service"
                assert b.completion == pytest.approx(
                    b.start + service(b.size))
                free_at = b.completion

    def test_fifo_launch_and_completion_order(self, seed):
        for arrivals, policy, service in cases(seed):
            batches = plan_batches(arrivals, policy, service)
            flat = [rid for b in batches for rid in b.request_ids]
            assert flat == sorted(flat), "requests launched out of FIFO order"
            comps = [b.completion for b in batches]
            assert all(b >= a for a, b in zip(comps, comps[1:]))

    def test_windowed_zero_wait_equals_continuous(self, seed):
        """Differential: ``max_wait=0`` windowed scheduling and continuous
        scheduling are the same policy — identical plans, batch for batch."""
        for arrivals, policy, service in cases(seed):
            windowed = plan_batches(
                arrivals, BatchingPolicy(max_batch=policy.max_batch,
                                         max_wait=0.0, mode="windowed"),
                service)
            continuous = plan_batches(
                arrivals, BatchingPolicy(max_batch=policy.max_batch,
                                         max_wait=policy.max_wait,
                                         mode="continuous"),
                service)
            assert windowed == continuous

    def test_infinite_wait_still_drains(self, seed):
        """Regression property: ``max_wait=inf`` ("full batches only") must
        not lose the final partial batch when the stream ends mid-window."""
        for arrivals, policy, service in cases(seed, mode="windowed"):
            policy = BatchingPolicy(max_batch=policy.max_batch,
                                    max_wait=math.inf)
            batches = plan_batches(arrivals, policy, service)
            ids = Counter(rid for b in batches for rid in b.request_ids)
            assert ids == Counter(range(len(arrivals)))
            # Everything but the drain-time leftover is a full batch.
            assert all(b.size == policy.max_batch for b in batches[:-1])


class TestArrivalProcessStatistics:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson_interarrival_moments(self, seed):
        rate = 50.0
        gaps = np.diff(poisson_arrivals(rate, 40001, as_rng(seed)))
        assert gaps.min() > 0
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.03)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.03)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mmpp_interarrival_moments(self, seed):
        shape = MMPP(burst=8.0, burst_fraction=0.125, cycle_requests=64.0)
        rate = 10.0
        mean, cv = shape.interarrival_moments(rate)
        # The analytic mean is 1/rate by construction of the quiet rate.
        assert mean == pytest.approx(1.0 / rate, rel=1e-9)
        assert cv > 1.0                      # burstier than Poisson
        gaps = shape.interarrival_times(rate, 40000, as_rng(seed))
        assert gaps.mean() == pytest.approx(mean, rel=0.08)
        assert gaps.std() / gaps.mean() == pytest.approx(cv, rel=0.08)

    def test_mmpp_cv_grows_with_burstiness(self):
        cvs = [MMPP(burst=b).interarrival_moments()[1] for b in (2, 8, 32)]
        assert cvs[0] < cvs[1] < cvs[2]

    def test_mmpp_cv_is_rate_invariant(self):
        shape = MMPP()
        assert shape.interarrival_moments(1.0)[1] == pytest.approx(
            shape.interarrival_moments(500.0)[1])

    def test_mmpp_parameter_validation(self):
        with pytest.raises(ValueError, match="burst"):
            MMPP(burst=0.5)
        with pytest.raises(ValueError, match="burst_fraction"):
            MMPP(burst_fraction=1.0)
        with pytest.raises(ValueError, match="cycle_requests"):
            MMPP(cycle_requests=0.0)

    @pytest.mark.parametrize("field", ["burst", "cycle_requests"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_mmpp_refuses_a_non_finite_shape(self, field, value):
        """An infinite burst gives the states rates ``(0, nan)`` and the
        arrival loop never ends; an infinite cycle never leaves the
        starting state, so the offered rate is not the one asked for."""
        with pytest.raises(ValueError, match=field):
            MMPP(**{field: value})


# -- kept state is never stale --------------------------------------------------

#: time steps of the generated sequences; 0.0 makes simultaneous events
_DT = st.sampled_from([0.0, 1e-3, 4e-3, 3e-2])


_QUEUE_STEPS = ["advance", "advance", "degrade", "repair", "flip", "evict"]


@st.composite
def _queue_runs(draw, min_steps=0, max_steps=40, pushes=6):
    """One generated replica queue and what happens to it: ``(n_lanes,
    max_batch, max_wait, per_model, steps)``. ``per_model`` gives each of
    the 1-3 lanes its own policy; a step is ``(kind, dt, model)``, with
    ``pushes`` push entries among the kinds drawn from, and an abort (a
    dead queue takes no further events) may end the list."""
    n_lanes = draw(st.integers(1, 3))
    step = st.tuples(st.sampled_from(["push"] * pushes + _QUEUE_STEPS), _DT,
                     st.integers(0, n_lanes - 1))
    steps = draw(st.lists(step, min_size=min_steps, max_size=max_steps))
    if draw(st.booleans()):
        steps.append(("abort", draw(_DT), 0))
    return (n_lanes, draw(st.integers(1, 4)),
            draw(st.sampled_from([0.0, 5e-3, math.inf])), draw(st.booleans()),
            steps)


def _queues(case, order, n):
    """``n`` identical queues of a generated case, and the multiplier of
    their service-time callables that a "flip" step rescales behind their
    backs (any callable may change its answer)."""
    n_lanes, max_batch, max_wait, per_model, _ = case
    scale = [1.0]
    policies = [BatchingPolicy(max_batch=m + 1, max_wait=2e-3 * m,
                               mode="continuous" if m == 1 else "windowed")
                for m in range(n_lanes)] if per_model else [
        BatchingPolicy(max_batch=max_batch, max_wait=max_wait)] * n_lanes
    return [ReplicaBatchQueue(
        policies,
        [(lambda b, m=m: scale[0] * (2e-3 * (m + 1) + 1e-3 * b))
         for m in range(n_lanes)],
        slos=None if order == "fifo" else [0.05, 0.02, 0.09][:n_lanes])
        for _ in range(n)], scale


def _play(q, step, t, rid, model):
    """Apply one generated queue step ("flip" is the caller's); return the
    instant a push / advance returned (None for the other steps)."""
    if step == "push":
        return q.push(t, rid, model)
    if step == "advance":
        return q.advance(t)
    if step == "degrade":
        q.degrade(1.5)
    elif step == "repair":
        q.repair()
    elif step == "evict":
        q.evict_queued(t)
    elif step == "abort":
        q.abort_after(t)
    return None


def _flip(scale):
    scale[0] = 0.25 if scale[0] == 1.0 else 1.0


@pytest.mark.parametrize("order", LAUNCH_ORDERS)
@settings(max_examples=100, deadline=None)
@given(case=_queue_runs())
def test_lane_keys_are_never_stale(order, case):
    """After every push / advance / degrade / repair / evict / abort — and
    every rescaling of the service-time callables behind the queue's back
    — each kept lane key equals a freshly computed one and ``next_launch``
    is the fresh minimum, and so are the instant a push or an advance
    returns (the router schedules launch events from it, never from a
    ``next_launch`` scan) and the one the queue keeps to skip a push's
    advance. The kept full-lane count is the number of lanes holding
    ``max_batch`` requests or more."""
    (q,), scale = _queues(case, order, 1)
    t = 0.0
    for rid, (step, dt, model) in enumerate(case[-1]):
        t += dt
        if step == "flip":
            _flip(scale)
        returned = _play(q, step, t, rid, model)
        fresh = {m: q._lane_key(m, lane)
                 for m, lane in q.lanes.items() if lane}
        assert all(fresh[m] == key for m, key in q._keys.items()), step
        want = min((key[0] for key in fresh.values()), default=math.inf)
        assert q.next_launch() == want, step
        assert q._next == want, step
        if returned is not None:
            assert returned == want, step
        assert q._nfull == sum(len(lane) >= q.policies[m].max_batch
                               for m, lane in q.lanes.items()), step


#: edf, two lanes of max_batch 2: lane 0 fills and grows to four requests
#: while lane 1's earlier-deadline partial holds the busy replica; one
#: advance then commits lane 1, then lane 0 twice (the first commit leaves a
#: full batch behind), and a fill of the emptied lane 0 must be committed
#: by the next push although the replica is busy past it
_FULL_BEHIND_PARTIAL = (2, 2, 0.0, False, [
    ("push", 0.0, 0), ("push", 0.0, 0), ("push", 0.0, 1),
    ("push", 1e-3, 0), ("push", 0.0, 0), ("push", 0.0, 0), ("push", 0.0, 0),
    ("advance", 4e-3, 0),
    ("push", 1e-3, 0), ("push", 0.0, 0), ("push", 1e-3, 0)])


@pytest.mark.parametrize("order", LAUNCH_ORDERS)
@settings(max_examples=200, deadline=None)
@given(case=_queue_runs(min_steps=40, max_steps=120, pushes=12))
@example(case=_FULL_BEHIND_PARTIAL)
def test_skipping_a_push_advance_changes_nothing(order, case):
    """A push advances the queue only when a lane is full or the kept
    launch instant is before the arrival; its twin advances before every
    push (the rule that made each admit scan the lanes). Step by step both
    commit the same batches at the same instants and return the same
    launch instants — the skipped advances would have committed nothing.
    Long runs of pushes let a full lane grow past ``max_batch`` while an
    earlier-deadline partial lane holds the replica under ``"edf"``."""
    (q, twin), scale = _queues(case, order, 2)
    t = 0.0
    for rid, (step, dt, model) in enumerate(case[-1]):
        t += dt
        if step == "flip":
            _flip(scale)
        elif step == "push":
            twin.advance(t)
        returned = _play(q, step, t, rid, model)
        assert _play(twin, step, t, rid, model) == returned, step
        assert q.batches == twin.batches, step
        assert q.completions == twin.completions, step
        assert q.free_at == twin.free_at, step


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_published_load_is_never_stale(data):
    """Cost-aware routing under generated traffic and fleet changes: every
    live replica's published load equals ``_value`` recomputed from the
    integer ledger, and the heap pick is what a linear scan picks — both
    the pick each admit made and the one the heap holds after every step.
    Every live replica with a finite :meth:`next_launch` has a launch
    event pending at exactly that instant — what lets an admit that
    leaves the instant unchanged push no event."""
    costs = [1e-3, 7e-3]
    router = Router(
        None, data.draw(st.integers(1, 3)),
        [BatchingPolicy(max_batch=data.draw(st.integers(1, 4)),
                        max_wait=data.draw(st.sampled_from(
                            [0.0, 2e-3, math.inf])))] * 2,
        [(lambda b, c=c: 1e-3 + c * b) for c in costs],
        model_costs=costs,
        limits=data.draw(st.one_of(st.none(), st.lists(
            st.sampled_from([1e-3, 0.008, 0.02]), min_size=2,
            max_size=2))),
        # fifo, or edf on these SLOs
        model_slos=data.draw(st.sampled_from([None, [0.01, 0.05]])))
    t = 0.0
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(["submit"] * 8 + ["sync", "add", "remove", "fail",
                                          "degrade", "repair"]),
        _DT, st.integers(0, 1)), max_size=50))
    for rid, (step, dt, model) in enumerate(steps):
        t += dt
        if step == "submit":
            if router.submit(t, rid, model):
                # the admit picked the least (load, index), its target's
                # load one request lighter then than now
                target = next(r for r in router.replicas
                              if any(i == rid for lane in r.queue.lanes
                                     .values() for _, i in lane))
                counts = list(router._counts[target.index])
                counts[model] -= 1
                picked = 0
                for c, w in zip(counts, costs):
                    picked += c * w
                assert all((picked, target.index) < (router._value(r.index),
                                                     r.index)
                           for r in router.replicas if r is not target)
        elif step == "sync":
            router.sync(t)
        elif step == "add":
            router.add_replica(t)
        elif step == "remove" and router.n_replicas > 1:
            router.remove_replica(t)
        elif step == "fail" and router.n_replicas:
            router.fail_replica(t, rid)
        elif step == "degrade" and router.n_replicas:
            router.degrade_replica(t, rid, 2.0)
        elif step == "repair" and router.n_replicas:
            router.repair_replica(t, rid)
        for r in router.replicas:
            assert router._load[r.index] == router._value(r.index), step
            launch = r.queue.next_launch()
            if launch != math.inf:
                assert (launch, r.index) in router._launch_events, step
        if router.replicas:
            # the lazy pick pops stale entries off a heap: it lands on the
            # least current entry, the linear (value, index) scan's pick
            heap = router._load_heap
            assert all(heap[(k - 1) // 2] <= heap[k]
                       for k in range(1, len(heap))), step
            pick = min(e for e in heap if router._load.get(e[1]) == e[0])
            assert pick == min((router._value(r.index), r.index)
                               for r in router.replicas), step


# -- the launch-event rule: whole runs against the every-admit rule -------------

class _EveryAdmitRouter(Router):
    """The earlier launch-event rule, kept as the reference: every admit
    pushes the replica's fresh :meth:`next_launch` scan (one event per
    admitted request), and every fired event re-pushes one. Its admit
    body syncs on every offer and picks by a linear scan of the published
    loads."""

    def _schedule(self, handle):
        launch = handle.queue.next_launch()
        if launch != math.inf:
            heapq.heappush(self._launch_events, (launch, handle.index))

    def _admit(self, t, request_id, model, source=None):
        limit = math.inf
        if source is None:
            self._clock = t
            self.n_offered += 1
            if not self.replicas:
                return self._shed(request_id)
            self._sync(t)
            limit = self._limits[model]
        value, idx = min((self._load[r.index], r.index)
                         for r in self.replicas)
        if value >= limit:
            return self._shed(request_id)
        handle = self._live[idx]
        handle.queue.push(t, request_id, model)
        self._backlog[idx] += 1
        if self.model_costs is not None:
            self._counts[idx][model] += 1
        self._load[idx] = self._value(idx)
        self._schedule(handle)
        return True

    def _sync(self, t):
        le = self._launch_events
        advanced = []
        while le and le[0][0] <= t:
            _, idx = heapq.heappop(le)
            handle = self._live.get(idx)
            if handle is not None and (not advanced or advanced[-1] != idx):
                handle.queue.advance(t)
                advanced.append(idx)
        for idx in advanced:
            if idx in self._live:
                self._schedule(self._live[idx])
        ce = self._completion_events
        while ce and ce[0][0] <= t:
            _, idx, model, size = heapq.heappop(ce)
            if idx in self._live:
                self._backlog[idx] -= size
                if self.model_costs is not None:
                    self._counts[idx][model] -= size
                self._load[idx] = self._value(idx)


class _Service:
    """Affine batch time, duck-typed like ServiceTimeModel."""

    def __init__(self, base, per):
        self.base, self.per = base, per

    def batch_time(self, b):
        return self.base + self.per * b

    def request_rtt(self):
        return 1e-4

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)

    def est_request_cost(self, max_batch):
        return self.batch_time(max_batch) / max_batch


_SVC = _Service(0.004, 0.001)


@st.composite
def _whole_runs(draw):
    """One small run: launch order x cost-aware (fixed fleets) or
    autoscaling with fail / degrade / repair events x cache + coalescing,
    over one or two models."""
    # one-request batches make every admit a determined full batch, whose
    # commit instant a degrade or a cache fill then observes
    max_batch = draw(st.sampled_from([1, 1, 2, 5]))
    kw = dict(policy=BatchingPolicy(
        max_batch=max_batch,
        max_wait=draw(st.sampled_from([0.0, 2e-3, math.inf])),
        mode=draw(st.sampled_from(["windowed", "continuous"]))),
        max_queue=draw(st.sampled_from([None, 3, 16])))
    autoscaled = draw(st.booleans())
    if draw(st.booleans()):
        kw.update(
            models=[ModelProfile("a", None, weight=2.0),
                    ModelProfile("b", None, policy=draw(st.sampled_from(
                        [None, BatchingPolicy(max_batch=2, max_wait=1e-3)])))],
            service_models=[_SVC, _Service(0.02, 0.004)],
            model_mix=ModelMix((0.7, 0.3), mean_run=draw(
                st.sampled_from([1.0, 5.0]))),
            order=draw(st.sampled_from(LAUNCH_ORDERS)),
            cost_aware=draw(st.booleans()))
    else:
        kw.update(workload=None, service_models=[_SVC])
    if draw(st.booleans()):
        kw.update(cache_size=draw(st.sampled_from([0, 8])),
                  coalesce=draw(st.booleans()))
    peak = _SVC.peak_throughput(max_batch)
    rate = draw(st.sampled_from([0.5, 1.5, 4.0])) * peak
    n = draw(st.integers(20, 300))
    if autoscaled:
        kw["autoscale"] = AutoscalePolicy(
            min_replicas=1, max_replicas=draw(st.integers(1, 4)),
            epoch=draw(st.sampled_from([0.01, 0.05])), cooldown_epochs=0)
        kw["failure_events"] = [
            FailureEvent(draw(st.floats(0.0, 1.0)) * n / rate,
                         draw(st.integers(0, 3)), kind,
                         2.0 if kind == "degrade" else 1.0)
            for kind in draw(st.lists(st.sampled_from(
                ["fail", "degrade", "repair"]), min_size=1, max_size=4))]
    else:
        kw["n_replicas"] = draw(st.integers(1, 3))
    run = dict(rate=rate, n_requests=n, seed=draw(st.integers(0, 2**16)),
               process=draw(st.sampled_from(["poisson", "mmpp"])),
               popularity="zipf" if "cache_size" in kw else None)
    # the router is the subject: a fixed fleet is pinned to the event loop
    cls = AutoscalingSimulator if autoscaled else EventLoopSimulator
    return cls, kw, run


#: two runs that a rule pushing only *earlier* instants gets wrong: it
#: drops an event whose firing commits a determined one-request batch,
#: which a degrade must then not slow, and whose cache fill must land
#: before a later arrival of the same key
_LATE_COMMITS = [
    (AutoscalingSimulator,
     dict(policy=BatchingPolicy(max_batch=1, max_wait=0.0), max_queue=None,
          workload=None, service_models=[_SVC],
          autoscale=AutoscalePolicy(min_replicas=1, max_replicas=1,
                                    epoch=0.05, cooldown_epochs=0),
          failure_events=[FailureEvent(0.11, 0, "degrade", 2.0)]),
     dict(rate=300.0, n_requests=33, seed=0, process="poisson",
          popularity=None)),
    (EventLoopSimulator,
     dict(policy=BatchingPolicy(max_batch=1, max_wait=2e-3), max_queue=4,
          workload=None, service_models=[_SVC], n_replicas=2, cache_size=16),
     dict(rate=600.0, n_requests=700, seed=4, process="mmpp",
          popularity=ZipfPopularity(alpha=1.1, n_keys=64))),
]


@settings(max_examples=300, deadline=None)
@given(case=_whole_runs())
@example(case=_LATE_COMMITS[0])
@example(case=_LATE_COMMITS[1])
def test_pushing_only_changed_launches_changes_nothing(case):
    """The router pushes a launch event only when an admit changes the
    replica's instant; the every-admit rule pushes one per admit. The
    extra events repeat pending ones, so both rules fire the same
    advances in the same order: every latency, batch, counter, epoch
    record and scale event comes out bit-identical."""
    cls, kw, run = case
    ref_sim = cls(**kw)
    with mock.patch.object(slo_sim, "Router", _EveryAdmitRouter):
        ref = ref_sim.run(**run)
    got = cls(**kw).run(**run)
    assert np.array_equal(got.latencies, ref.latencies)
    assert np.array_equal(got.batch_sizes, ref.batch_sizes)
    assert (got.n_offered, got.n_dropped, got.n_failed, got.n_cache_hits,
            got.n_coalesced, got.horizon) \
        == (ref.n_offered, ref.n_dropped, ref.n_failed, ref.n_cache_hits,
            ref.n_coalesced, ref.horizon)
    for a, b in zip(got.models or (), ref.models or ()):
        assert np.array_equal(a.latencies, b.latencies)
        assert (a.n_offered, a.n_dropped, a.n_failed) \
            == (b.n_offered, b.n_dropped, b.n_failed)
    # repr: exact float text, and NaN fields compare equal
    assert repr(got.epochs) == repr(ref.epochs)
    assert repr(got.scale_events) == repr(ref.scale_events)


# -- one admission rule ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_both_engines_read_one_admission_rule(data):
    """``admission_limits`` is each model's limit in the router's load
    unit, and it is what both engines admit on: the router's ``_limits``
    are that list, count limits are ``ceil(max_queue * w / max(w))``
    floored at one, and a count-mode run sheds the same requests on the
    event loop and the array core."""
    n_models = data.draw(st.integers(1, 3))
    weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n_models,
                                 max_size=n_models))
    policies = data.draw(st.lists(st.sampled_from(
        [None, BatchingPolicy(max_batch=2, max_wait=1e-3),
         BatchingPolicy(max_batch=16, max_wait=0.0)]),
        min_size=n_models, max_size=n_models))
    mix = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_models,
                             max_size=n_models))
    max_queue = data.draw(st.sampled_from([None, 1, 3, 256]))
    cost_aware = data.draw(st.booleans())
    services = [_Service(0.004 * (m + 1) ** 3, 0.001 * (m + 1) ** 3)
                for m in range(n_models)]
    kw = dict(models=[ModelProfile(f"m{m}", None, weight=w, policy=p)
                      for m, (w, p) in enumerate(zip(weights, policies))],
              service_models=services, model_mix=mix, max_queue=max_queue,
              policy=BatchingPolicy(max_batch=4, max_wait=2e-3),
              n_replicas=data.draw(st.integers(1, 3)))
    sim = EventLoopSimulator(cost_aware=cost_aware, **kw)
    limits = sim.admission_limits()
    assert sim._make_router()._limits == limits
    if max_queue is None:
        assert limits == [math.inf] * n_models
    elif not cost_aware:
        w_max = max(weights)
        assert limits == [max(1, math.ceil(max_queue * w / w_max))
                          for w in weights]
    else:
        floors = [c * p.max_batch
                  for c, p in zip(sim.model_costs(), sim._policies)]
        assert all(L > 0 for L in limits)
        if n_models > 1:
            assert all(L >= f for L, f in zip(limits, floors))
    if cost_aware:
        return
    run = dict(rate=4.0 * sim.saturation_rate(), n_requests=120,
               process="poisson", seed=data.draw(st.integers(0, 2**16)))
    event = sim.run(**run)
    array = ServingSimulator(**kw)
    arr = array.run(**run)
    assert array.last_run_engine == "array"
    assert np.array_equal(arr.latencies, event.latencies)
    assert (arr.n_dropped, [m.n_dropped for m in arr.models]) \
        == (event.n_dropped, [m.n_dropped for m in event.models])


# -- a trace is a view of the record --------------------------------------------

@st.composite
def _array_runs(draw):
    """One small configuration the array core runs: the single-model form
    or one to three profiles (weights, mix, per-model policies), any
    batching mode and hold, a queue bound or none, a cache or none."""

    def policy():
        return BatchingPolicy(
            max_batch=draw(st.integers(1, 8)),
            max_wait=draw(st.sampled_from([0.0, 2e-3, math.inf])),
            mode=draw(st.sampled_from(BATCHING_MODES)))

    n_models = draw(st.integers(0, 3))
    kw = dict(n_replicas=draw(st.integers(1, 4)), policy=policy(),
              max_queue=draw(st.sampled_from([None, 2, 8])),
              cache_size=draw(st.sampled_from([0, 0, 8])))
    if n_models:
        kw.update(
            models=[ModelProfile(
                f"m{m}", None, weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
                policy=policy() if draw(st.booleans()) else None)
                for m in range(n_models)],
            service_models=[_Service(0.004 * (m + 1), 0.001 * (m + 1))
                            for m in range(n_models)],
            model_mix=ModelMix(tuple(draw(st.floats(0.1, 1.0))
                                     for _ in range(n_models))))
    else:
        kw.update(workload=None, service_models=[_SVC])
    run = dict(n_requests=draw(st.integers(1, 120)),
               seed=draw(st.integers(0, 2**16)),
               process=draw(st.sampled_from(["uniform", "poisson", "mmpp"])),
               popularity="zipf" if kw["cache_size"] else None)
    return kw, draw(st.sampled_from([0.5, 1.0, 2.0])), run


@settings(max_examples=2000, deadline=None)
@given(case=_array_runs())
def test_a_traced_array_run_records_the_event_engines_trace(case):
    """A plain tracer keeps a supported run on the array core, and the
    trace it expands from that run's record is the event engine's, event
    for event, reconciled with the stats."""
    kw, load, run = case
    traces = []
    for engine, cls in (("event", EventLoopSimulator),
                        ("array", ServingSimulator)):
        sim = cls(**kw)
        tracer = Tracer()
        stats = sim.run(load * sim.saturation_rate(), tracer=tracer, **run)
        assert sim.last_run_engine == engine
        traces.append(tracer)
    reconcile(tracer, stats)
    event, array = traces
    assert array.events == event.events
    assert len(array) == len(event) == len(array.events)


# -- the work an admit does -----------------------------------------------------

def test_an_admit_does_only_work_that_can_change_state():
    """A two-model, cost-aware edf run the size of the ``sim_event`` smoke
    run: a push advances its queue only when a lane is full or a launch is
    due, rebuilds a lane key only for a new lane head or a fill, and a
    submit syncs the router only when an event is due. Each of the three
    is then called a small multiple of the batches committed, not once per
    request: 346 / 546 / 185 calls for 241 batches, where the every-admit
    rules made 5,203 / 5,158 / 5,000. A count, not a timing: deterministic
    per seed."""
    from repro.sim.workload import climate_workload, hep_workload
    sim = ServingSimulator(
        models=[ModelProfile("hep", hep_workload(), weight=4.0),
                ModelProfile("climate", climate_workload(), weight=1.0)],
        model_mix=ModelMix((0.9, 0.1)), n_replicas=4,
        policy=BatchingPolicy(max_batch=32), max_queue=1024, order="edf",
        cost_aware=True)
    calls = Counter()

    def spy(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return mock.patch.object(cls, name, counted)

    with spy(ReplicaBatchQueue, "advance"), \
            spy(ReplicaBatchQueue, "_lane_key"), spy(Router, "_sync"):
        stats = sim.run(rate=0.9 * sim.saturation_rate(), n_requests=5_000,
                        process="poisson", seed=0)
    assert sim.last_run_engine == "event"
    n_batches = len(stats.batch_sizes)
    assert n_batches > 100
    assert calls["advance"] <= 2 * n_batches, calls
    assert calls["_lane_key"] <= 3 * n_batches, calls
    assert calls["_sync"] <= 2 * n_batches, calls


def _router_calls(sim, **run):
    """Run ``sim`` with every :class:`Router` method, the queue's checked
    ``push`` and trusted ``_push`` and ``ServingSimulator._offer`` spied.
    Returns the stats, the ``_offer`` count, the checked entries entered
    (``submit``, ``push``) and, per top-level ``_admit`` (one that no
    other spied method called), whether it admitted and the helpers it
    entered outside event catch-up (``_sync``, which plays due events and
    is counted against the batches above)."""
    offers, admits, checked, stack = [], [], [], []

    def spied(name, method):
        def counted(*args, **kwargs):
            if name == "_offer":
                offers.append(args[3])   # (self, run, router, t, ...)
                return method(*args, **kwargs)
            if name in ("submit", "push"):
                checked.append(name)
            if name == "_admit" and not stack:
                admits.append([None, []])
            elif stack[:1] == ["_admit"] and "_sync" not in stack + [name]:
                admits[-1][1].append(name)
            stack.append(name)
            try:
                out = method(*args, **kwargs)
            finally:
                stack.pop()
            if name == "_admit" and not stack:
                admits[-1][0] = out
            return out
        return counted

    methods = {name: spied(name, fn) for name, fn in vars(Router).items()
               if inspect.isfunction(fn) and not name.startswith("__")}
    with mock.patch.multiple(Router, **methods), \
            mock.patch.multiple(ReplicaBatchQueue, **{
                name: spied(name, getattr(ReplicaBatchQueue, name))
                for name in ("push", "_push")}), \
            mock.patch.object(ServingSimulator, "_offer", spied(
                "_offer", ServingSimulator._offer)):
        stats = sim.run(**run)
    return stats, len(offers), checked, admits


@pytest.mark.parametrize("case", ["edf", "autoscale", "cached"])
def test_an_arrival_is_one_router_call(case):
    """Each arrival that reaches the router is one call of its trusted
    admit body ``_admit``: without a result cache the drive loops call it
    bound, once per request (``_offer`` never entered); with one every
    arrival goes through ``_offer`` and each miss is one ``_admit``. An
    admitted arrival enters one helper, the queue's trusted ``_push``, and
    a run never enters the checked ``Router.submit`` or
    ``ReplicaBatchQueue.push``: the simulator made its own stream."""
    from repro.sim.workload import climate_workload, hep_workload
    n = 2_000
    policy = BatchingPolicy(max_batch=4, max_wait=2e-3)
    if case == "edf":
        sim = ServingSimulator(
            models=[ModelProfile("hep", hep_workload(), weight=4.0),
                    ModelProfile("climate", climate_workload(), weight=1.0)],
            model_mix=ModelMix((0.9, 0.1)), n_replicas=4,
            policy=BatchingPolicy(max_batch=32), max_queue=1024,
            order="edf", cost_aware=True)
        run = dict(rate=0.9 * sim.saturation_rate(), process="poisson")
    elif case == "autoscale":
        sim = AutoscalingSimulator(
            workload=None, service_models=[_SVC], policy=policy, max_queue=16,
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=3,
                                      epoch=0.01, cooldown_epochs=0),
            failure_events=[FailureEvent(0.5, 0, "fail")])
        run = dict(rate=3.0 * _SVC.peak_throughput(4), process="mmpp")
    else:
        sim = EventLoopSimulator(workload=None, service_models=[_SVC],
                                 policy=policy, n_replicas=2, cache_size=16)
        run = dict(rate=_SVC.peak_throughput(4), process="poisson",
                   popularity=ZipfPopularity(alpha=1.1, n_keys=64))
    stats, n_offers, checked, admits = _router_calls(sim, n_requests=n,
                                                     seed=0, **run)
    assert sim.last_run_engine == "event"
    assert checked == []
    if case == "cached":
        assert n_offers == n and 0 < stats.n_cache_hits < n
        assert len(admits) == n - stats.n_cache_hits
    else:
        assert n_offers == 0 and len(admits) == n
    admitted = [helpers for ok, helpers in admits if ok]
    assert len(admitted) > len(admits) // 2
    assert all(helpers == ["_push"] for helpers in admitted)
    assert all(helpers == ["_shed"] for ok, helpers in admits if not ok)
    if case == "autoscale":
        assert "failure" in [e.action for e in stats.scale_events]
        assert stats.n_dropped > 0


@pytest.mark.parametrize("entry", ["Router.submit", "ReplicaBatchQueue.push"])
@pytest.mark.parametrize("t, model, name", [
    (math.nan, 0, "t"), (0.5, 0, "t"), (math.inf, 1, "t"),
    (2.0, 2, "model"), (2.0, -1, "model"), (2.0, 0.5, "model"),
    (2.0, "1", "model")])
def test_a_direct_call_is_still_checked(entry, t, model, name):
    """The public entries keep their checks in front of the trusted
    bodies: a NaN, infinite or decreasing ``t`` and a model that is not a
    served index are refused by name, and nothing counts."""
    svc = [lambda b: 1e-3 * b] * 2
    if entry == "Router.submit":
        obj = Router(None, 1, [BatchingPolicy()] * 2, svc)
        call = obj.submit
    else:
        obj = ReplicaBatchQueue([BatchingPolicy()] * 2, svc)
        call = obj.push
    call(1.0, 0, 0)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(t, 1, model)
    if entry == "Router.submit":
        assert (obj.n_offered, obj.shed_ids) == (1, [])
    else:
        assert obj.queue_depth == 1
    call(1.0, 2, np.int64(1))       # a NumPy index is a served index
