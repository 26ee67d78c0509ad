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

The last section (Hypothesis) holds the event engine's *kept* state — a
queue's lane keys, a router's published load values — to what a fresh
computation gives after every generated step.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchingPolicy, Router, plan_batches
from repro.serve.arrivals import MMPP, poisson_arrivals
from repro.serve.batching import LAUNCH_ORDERS, ReplicaBatchQueue
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


# -- kept state is never stale --------------------------------------------------

#: time steps of the generated sequences; 0.0 makes simultaneous events
_DT = st.sampled_from([0.0, 1e-3, 4e-3, 3e-2])


@pytest.mark.parametrize("order", LAUNCH_ORDERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lane_keys_are_never_stale(order, data):
    """After every push / advance / degrade / repair / evict / abort — and
    every rescaling of the service-time callables behind the queue's back,
    which is what a variant switch does — each kept lane key equals a
    freshly computed one and ``next_launch`` is the fresh minimum."""
    n_lanes = data.draw(st.integers(1, 3))
    scale = [1.0]
    q = ReplicaBatchQueue(
        BatchingPolicy(max_batch=data.draw(st.integers(1, 4)),
                       max_wait=data.draw(st.sampled_from([0.0, 5e-3]))),
        None,
        service_times=[(lambda b, m=m: scale[0] * (2e-3 * (m + 1) + 1e-3 * b))
                       for m in range(n_lanes)],
        policies=data.draw(st.sampled_from([None, [
            BatchingPolicy(max_batch=m + 1, max_wait=2e-3 * m,
                           mode="continuous" if m == 1 else "windowed")
            for m in range(n_lanes)]])),
        order=order, slos=[0.05, 0.02, 0.09][:n_lanes])
    t = 0.0
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(["push"] * 6 + ["advance", "advance", "degrade",
                                        "repair", "flip", "evict", "abort"]),
        _DT, st.integers(0, n_lanes - 1)), max_size=40))
    for rid, (step, dt, model) in enumerate(steps):
        t += dt
        if step == "push":
            q.push(t, rid, model)
        elif step == "advance":
            q.advance(t)
        elif step == "degrade":
            q.degrade(1.5)
        elif step == "repair":
            q.repair()
        elif step == "flip":
            scale[0] = 0.25 if scale[0] == 1.0 else 1.0
        elif step == "evict":
            q.evict_queued(t)
        else:
            q.abort_after(t)
        fresh = {m: q._lane_key(m, lane)
                 for m, lane in q.lanes.items() if lane}
        assert all(fresh[m] == key for m, key in q._keys.items()), step
        assert q.next_launch() == min(
            (key[0] for key in fresh.values()), default=math.inf), step
        if step == "abort":
            break       # a dead queue takes no further events


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_published_load_is_never_stale(data):
    """Cost-aware routing under generated traffic and fleet changes: every
    live replica's published load equals ``_value`` recomputed from the
    integer ledger, and the heap pick is what a linear scan picks."""
    costs = [1e-3, 7e-3]
    router = Router(
        None, data.draw(st.integers(1, 3)),
        BatchingPolicy(max_batch=data.draw(st.integers(1, 4)),
                       max_wait=2e-3),
        None, max_queue=None,
        service_times=[(lambda b, c=c: 1e-3 + c * b) for c in costs],
        model_costs=costs,
        max_queue_seconds=data.draw(st.sampled_from([None, 0.02])))
    t = 0.0
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(["submit"] * 8 + ["sync", "add", "remove", "fail"]),
        _DT, st.integers(0, 1)), max_size=50))
    for rid, (step, dt, model) in enumerate(steps):
        t += dt
        if step == "submit":
            router.submit(t, rid, model)
        elif step == "sync":
            router.sync(t)
        elif step == "add":
            router.add_replica(t)
        elif step == "remove" and router.n_replicas > 1:
            router.remove_replica(t)
        elif step == "fail" and router.n_replicas:
            router.fail_replica(t, rid)
        for r in router.replicas:
            assert router._load[r.index] == router._value(r.index), step
        if router.replicas:
            scan = min(router.replicas,
                       key=lambda r: (router._value(r.index), r.index))
            assert router._least_loaded(model) is scan, step
