"""Property-based invariants for the replica-autoscaling control loop.

Random arrival traces (Poisson and MMPP with randomized burst shapes),
random controller configurations, and random service-time models drive
:class:`AutoscalingSimulator` across ≥3 seeds and check invariants that
must hold for *every* input:

1. the fleet never leaves ``[min_replicas, max_replicas]`` (no-failure
   runs) — at every scale event and every epoch observation;
2. no voluntary scale decision lands inside the cooldown window;
3. conservation under live scaling: every admitted request completes or is
   shed up front — a drained replica's queue re-routes, it never drops;
4. a zero-failure deterministic trace reproduces bitwise across runs.

The differential half pins the control path to the static simulator: an
autoscaler pinned at ``min_replicas == max_replicas == k`` must produce
*identical* :class:`LatencyStats` to ``ServingSimulator(n_replicas=k)`` —
the control loop is a strict superset of the static path, not a fork.
Regression and failure-injection cases cover the remove/fail primitives
directly (PR 2's drain() fix under replica removal, node-death recovery).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureEvent
from repro.serve import (
    LAUNCH_ORDERS,
    MMPP,
    AutoscalePolicy,
    Autoscaler,
    AutoscalingSimulator,
    BatchingPolicy,
    EpochRecord,
    ModelMix,
    ModelProfile,
    Router,
    ScaleEvent,
    ServingSimulator,
    Tracer,
    make_arrivals,
)
from repro.utils.rng import as_rng

#: every property must hold under each of these seeds (exercised in CI)
SEEDS = [7, 1234, 20260729]
N_CASES = 8

VOLUNTARY = ("scale_out", "scale_in")


class FakeService:
    """Duck-typed stand-in for ServiceTimeModel: affine batch time.

    Keeps the property runs fast (no Fig 5 perf-model evaluation) while
    exercising the identical scheduler/router/controller code paths.
    """

    def __init__(self, base=0.004, per=0.001, rtt=1e-4):
        self.base, self.per, self.rtt = base, per, rtt

    def batch_time(self, b):
        return self.base + self.per * b

    def request_rtt(self):
        return self.rtt

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)


def random_case(rng):
    """One random autoscaled serving scenario."""
    policy = BatchingPolicy(
        max_batch=int(rng.integers(2, 17)),
        max_wait=float(rng.choice([0.0, 2e-3, 1e-2])),
        mode=str(rng.choice(["windowed", "continuous"])))
    svc = FakeService(base=float(rng.uniform(1e-3, 8e-3)),
                      per=float(rng.uniform(2e-4, 2e-3)))
    lo = int(rng.integers(1, 4))
    cfg = AutoscalePolicy(
        min_replicas=lo,
        max_replicas=lo + int(rng.integers(0, 5)),
        target_attainment=float(rng.uniform(0.8, 0.99)),
        scale_in_occupancy=float(rng.uniform(0.1, 0.6)),
        epoch=float(rng.uniform(0.5, 3.0)) * svc.batch_time(policy.max_batch),
        cooldown_epochs=int(rng.integers(0, 3)),
        idle_epochs=int(rng.integers(1, 5)),
        step_out=int(rng.integers(1, 4)),
        step_in=int(rng.integers(1, 3)))
    if rng.random() < 0.5:
        process = "poisson"
    else:
        process = MMPP(burst=float(rng.uniform(2.0, 12.0)),
                       burst_fraction=float(rng.uniform(0.05, 0.4)),
                       cycle_requests=float(rng.uniform(32.0, 256.0)))
    sat1 = svc.peak_throughput(policy.max_batch)
    rate = float(rng.uniform(0.2, 1.5)) * sat1
    n_requests = int(rng.integers(100, 500))
    seed = int(rng.integers(0, 2**31))
    return cfg, policy, svc, process, rate, n_requests, seed


def run_case(case):
    cfg, policy, svc, process, rate, n_requests, seed = case
    sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                               service_model=svc)
    return sim.run(rate, n_requests=n_requests, process=process, seed=seed)


def cases(seed, n_cases=N_CASES):
    rng = as_rng(seed)
    for _ in range(n_cases):
        yield random_case(rng)


@pytest.mark.parametrize("seed", SEEDS)
class TestControllerInvariants:
    def test_fleet_stays_within_bounds(self, seed):
        """Without failures the fleet never leaves [min, max] — checked at
        every scale event and every epoch observation."""
        for case in cases(seed):
            cfg = case[0]
            stats = run_case(case)
            for ev in stats.scale_events:
                assert cfg.min_replicas <= ev.n_replicas <= cfg.max_replicas
            for rec in stats.epochs:
                assert cfg.min_replicas <= rec.n_replicas <= cfg.max_replicas

    def test_no_voluntary_decision_during_cooldown(self, seed):
        """After any voluntary decision, the next one is at least
        cooldown_epochs + 1 epochs later; repairs are exempt by design but
        cannot occur here (no failures injected)."""
        for case in cases(seed):
            cfg = case[0]
            stats = run_case(case)
            assert all(ev.action in VOLUNTARY for ev in stats.scale_events)
            voluntary = [ev.epoch for ev in stats.scale_events]
            for a, b in zip(voluntary, voluntary[1:]):
                assert b - a > cfg.cooldown_epochs, (
                    f"decisions at epochs {a} and {b} violate "
                    f"cooldown={cfg.cooldown_epochs}")

    def test_no_request_lost_across_scaling(self, seed):
        """Conservation under live add/remove: every offered request either
        completes or was shed by admission control at the front door. A
        drained replica's queue must re-route, never drop."""
        for case in cases(seed):
            stats = run_case(case)
            assert stats.n_failed == 0
            assert stats.n_completed + stats.n_dropped == stats.n_offered
            if stats.batch_sizes is not None:
                assert int(stats.batch_sizes.sum()) == stats.n_completed

    def test_zero_failure_trace_is_bitwise_reproducible(self, seed):
        """The whole control loop is deterministic given the seed: same
        latencies (bitwise), same epochs, same scale events."""
        def eq(x, y):
            both_nan = (isinstance(x, float) and isinstance(y, float)
                        and math.isnan(x) and math.isnan(y))
            return x == y or both_nan

        for case in cases(seed, n_cases=3):
            a, b = run_case(case), run_case(case)
            assert np.array_equal(a.latencies, b.latencies)
            assert np.array_equal(a.batch_sizes, b.batch_sizes)
            assert a.scale_events == b.scale_events
            assert a.mean_replicas == b.mean_replicas
            assert len(a.epochs) == len(b.epochs)
            for ra, rb in zip(a.epochs, b.epochs):
                assert all(eq(getattr(ra, f), getattr(rb, f))
                           for f in ra.__dataclass_fields__)


class TestPinnedDifferential:
    """min == max == k must be byte-for-byte the static simulator."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("process,seed", [
        ("uniform", None), ("poisson", 11), ("mmpp", 0)])
    def test_pinned_equals_static(self, k, process, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        rate = 0.8 * k * svc.peak_throughput(policy.max_batch)
        static = ServingSimulator(None, n_replicas=k, policy=policy,
                                  service_model=svc)
        pinned = AutoscalingSimulator(
            None, autoscale=AutoscalePolicy(min_replicas=k, max_replicas=k),
            policy=policy, service_model=svc)
        s = static.run(rate, n_requests=400, process=process, seed=seed)
        a = pinned.run(rate, n_requests=400, process=process, seed=seed)
        assert a.scale_events == []       # nothing to decide, ever
        assert np.array_equal(a.latencies, s.latencies)
        assert np.array_equal(a.batch_sizes, s.batch_sizes)
        assert (a.n_offered, a.n_dropped, a.n_failed) == \
            (s.n_offered, s.n_dropped, s.n_failed)
        assert a.horizon == s.horizon

    def test_pinned_sweep_equals_static_sweep(self):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        static = ServingSimulator(None, n_replicas=2, policy=policy,
                                  service_model=svc)
        pinned = AutoscalingSimulator(
            None, autoscale=AutoscalePolicy(min_replicas=2, max_replicas=2),
            policy=policy, service_model=svc)
        rates = [f * static.saturation_rate() for f in (0.25, 0.75, 1.25)]
        s = static.sweep(rates=rates, n_requests=300, process="mmpp", seed=2)
        a = pinned.sweep(rates=rates, n_requests=300, process="mmpp", seed=2)
        assert np.array_equal(s.p99_curve, a.p99_curve)
        assert np.array_equal(s.attainment_curve, a.attainment_curve)
        # The autoscaled sweep additionally attributes per-epoch stats.
        assert all(p.stats.mean_replicas == 2.0 for p in a.points)


def _router(policy=None, n_replicas=2, max_queue=None):
    policy = policy or BatchingPolicy(max_batch=4, max_wait=math.inf)
    return Router(None, n_replicas, policy, FakeService().batch_time,
                  max_queue=max_queue)


class TestLiveFleetPrimitives:
    def test_removal_flushes_queued_partial_batch(self):
        """Regression pinning PR 2's drain() fix under replica removal:
        with a non-finite hold window, a removed replica's queued partial
        batch must flush through the surviving replica's plan, not drop.

        Before the re-route, request 9's deadline never fires (max_wait is
        inf) and a naive removal would silently lose it — exactly the bug
        drain() had."""
        router = _router()          # windowed, max_wait=inf, 2 replicas
        for i in range(9):          # 8 fill both replicas; 9th is a partial
            router.submit(0.001 * i, i)
        victim = max(range(2),
                     key=lambda p: router.replicas[p].queue.queue_depth)
        assert router.replicas[victim].queue.queue_depth > 0
        router.remove_replica(0.01, pos=victim)
        router.drain()
        assert set(router.completions()) == set(range(9))
        assert router.n_failed == 0
        sizes = sorted(b.size for b in router.batches())
        assert sum(sizes) == 9

    def test_removal_picks_emptiest_and_reroutes_fifo(self):
        router = _router(BatchingPolicy(max_batch=4, max_wait=0.5))
        for i in range(6):
            router.submit(0.0, i)
        # least-loaded routing alternates: replica0={0,2,4}, replica1={1,3,5}
        removed = router.remove_replica(1e-3)
        assert removed.index in (0, 1)
        router.drain()
        assert set(router.completions()) == set(range(6))

    def test_remove_last_replica_refused(self):
        router = _router(n_replicas=1)
        with pytest.raises(ValueError, match="last replica"):
            router.remove_replica(0.0)

    def test_rerouted_requests_bypass_admission(self):
        """A voluntary scale-in must not turn admitted requests into drops
        even when the survivors are at their admission limit."""
        router = _router(BatchingPolicy(max_batch=2, max_wait=math.inf),
                         n_replicas=2, max_queue=2)
        for i in range(4):
            router.submit(0.0, i)   # both replicas at max_queue
        router.submit(0.0, 4)
        assert router.n_dropped == 1    # front door genuinely full
        router.remove_replica(1e-3)
        router.drain()
        assert set(router.completions()) == set(range(4))

    def test_failed_replica_loses_in_flight_and_queued(self):
        svc = FakeService(base=0.1, per=0.0)       # 100 ms per batch
        policy = BatchingPolicy(max_batch=2, max_wait=0.0)
        router = Router(None, 1, policy, svc.batch_time)
        router.submit(0.0, 0)       # launches at t=0, completes at 0.1
        router.submit(0.01, 1)      # queued behind the busy replica
        dead, lost = router.fail_replica(0.05, 0)
        assert lost == 2 and router.n_failed == 2
        assert router.completions() == {}
        assert router.n_replicas == 0
        # With no fleet left, new arrivals shed at the front door.
        assert not router.submit(0.06, 2)
        assert router.n_dropped == 1

    def test_failure_preserves_completed_work(self):
        svc = FakeService(base=0.1, per=0.0)
        policy = BatchingPolicy(max_batch=2, max_wait=0.0)
        router = Router(None, 1, policy, svc.batch_time)
        router.submit(0.0, 0)                      # completes at 0.1
        dead, lost = router.fail_replica(0.2, 0)   # dies after finishing
        assert lost == 0 and router.completions() == {0: pytest.approx(0.1)}

    def test_added_replica_cannot_serve_the_past(self):
        router = _router(BatchingPolicy(max_batch=4, max_wait=0.0),
                         n_replicas=1)
        handle = router.add_replica(5.0)
        assert handle.queue.free_at == 5.0
        assert router.n_replicas == 2
        assert handle.node_id not in (router.replicas[0].node_id,)
        router.submit(5.0, 0)
        router.drain()
        assert all(b.start >= 5.0 for b in router.batches())


class TestFailureRecovery:
    """A node death mid-stream is an involuntary scale-in: the controller
    must detect the missing replica and replace it, and attainment must
    recover to the no-failure level once the repair lands."""

    def _run(self, failure_events):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=2, max_replicas=2, epoch=0.05)
        sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                   service_model=svc,
                                   failure_events=failure_events)
        rate = 1.2 * svc.peak_throughput(policy.max_batch)  # needs both
        return sim.run(rate, n_requests=2048, process="uniform", seed=None)

    def test_failure_detected_and_repaired(self):
        stats = self._run([FailureEvent(0.5, 0, "fail")])
        actions = [ev.action for ev in stats.scale_events]
        assert actions == ["failure", "repair"]
        fail_ev, repair_ev = stats.scale_events
        assert fail_ev.n_replicas == 1 and repair_ev.n_replicas == 2
        # Repair lands at the first epoch boundary after the death.
        assert repair_ev.time - fail_ev.time <= 0.05 + 1e-9
        assert stats.n_failed > 0

    def test_attainment_recovers_after_repair(self):
        slo_probe = AutoscalingSimulator(
            None, autoscale=AutoscalePolicy(min_replicas=2, max_replicas=2),
            policy=BatchingPolicy(max_batch=8, max_wait=0.004),
            service_model=FakeService())
        slo = slo_probe.default_slo()
        healthy = self._run([])
        wounded = self._run([FailureEvent(0.5, 0, "fail")])
        assert healthy.n_failed == 0 and wounded.n_failed > 0
        # Same trace, same epochs: late epochs (well past repair + backlog
        # clearing) must match the healthy run's attainment closely.
        h = {r.index: r for r in healthy.epochs}
        tail = [r for r in wounded.epochs if r.t_start >= 1.0]
        assert tail, "trace too short to observe recovery"
        for rec in tail:
            assert rec.attainment >= h[rec.index].attainment - 0.05
        # Overall: the failure costs a bounded slice, not the SLO story.
        assert wounded.attainment(slo) >= healthy.attainment(slo) - 0.05

    # -- degrade events (these used to be silently dropped: the event
    # schedule filtered on kind == "fail", so a degraded node kept healthy
    # service times and left no trace in the run record) -----------------

    def test_degrade_slows_batches_and_is_surfaced(self):
        healthy = self._run([])
        slowed = self._run([FailureEvent(0.5, 0, "degrade", 2.5),
                            FailureEvent(0.5, 1, "degrade", 2.5)])
        # Surfaced: one delta-0 ScaleEvent per degrade, with its cause.
        assert [ev.action for ev in slowed.scale_events] == \
            ["degrade", "degrade"]
        for ev in slowed.scale_events:
            assert ev.delta == 0 and ev.n_replicas == 2
            assert ev.reason.cause == "node_degrade"
        # Degraded is not dead: no request fails, the fleet keeps size.
        assert slowed.n_failed == 0
        # Epochs past the event observe the degraded replica count.
        late = [r for r in slowed.epochs if r.t_start >= 0.5]
        assert late and all(r.n_degraded == 2 for r in late)
        assert all(r.n_degraded == 0 for r in healthy.epochs)
        # And the slowdown is physical, not cosmetic: at the same overload
        # the degraded fleet's tail is strictly worse.
        assert np.percentile(slowed.latencies, 99) \
            > np.percentile(healthy.latencies, 99)

    def test_degrade_multiplies_batch_time_exactly(self):
        pol = BatchingPolicy(max_batch=4, max_wait=0.0)
        healthy = _router(pol, n_replicas=1)
        slowed = _router(pol, n_replicas=1)
        slowed.degrade_replica(0.0, 0, 2.5)
        slowed.degrade_replica(0.0, 0, 2.0)    # compounds: now 5x
        assert slowed.replicas[0].queue.slow_factor == 5.0
        for i in range(4):
            healthy.submit(0.0, i)
            slowed.submit(0.0, i)
        healthy.drain()
        slowed.drain()
        (hb,), (sb,) = healthy.batches(), slowed.batches()
        assert sb.start == hb.start
        assert (sb.completion - sb.start) \
            == 5.0 * (hb.completion - hb.start)

    def test_degraded_fleet_scales_out(self):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=3, epoch=0.05)

        def run(events):
            sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                       service_model=svc,
                                       failure_events=events)
            rate = 0.6 * svc.peak_throughput(policy.max_batch)
            return sim.run(rate, n_requests=4096, process="uniform",
                           seed=None)

        healthy = run([])
        assert not [ev for ev in healthy.scale_events
                    if ev.action == "scale_out"]
        slowed = run([FailureEvent(0.05, 0, "degrade", 3.0)])
        actions = [ev.action for ev in slowed.scale_events]
        # The controller sees the degraded node's broken attainment and
        # grows the fleet — the whole point of not dropping the event.
        assert actions[0] == "degrade"
        assert "scale_out" in actions


def _auto(events=None, max_replicas=2, n_requests=1600, rate=1600.0,
          seed=5):
    sim = AutoscalingSimulator(
        service_model=FakeService(),
        autoscale=AutoscalePolicy(min_replicas=2, max_replicas=max_replicas,
                                  target_attainment=0.95, epoch=0.1),
        policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
        max_queue=64, failure_events=events)
    return sim.run(rate=rate, n_requests=n_requests, seed=seed)


def _same_run(a, b):
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.batch_sizes, b.batch_sizes)
    assert (a.n_offered, a.n_dropped, a.n_failed) == \
               (b.n_offered, b.n_dropped, b.n_failed)


class TestRepair:
    def test_failure_event_validation(self):
        ev = FailureEvent(time=1.0, node_id=0, kind="repair")
        assert ev.slow_factor == 1.0
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, node_id=0, kind="repair",
                         slow_factor=2.0)
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, node_id=0, kind="reboot")

    def test_repaired_fleet_scales_back_in(self):
        """Regression: degrade doubles the fleet; after the repair undoes
        the slowdown the autoscaler must scale back toward min."""
        events = [FailureEvent(time=0.15, node_id=0, kind="degrade",
                               slow_factor=4.0),
                  FailureEvent(time=0.6, node_id=0, kind="repair")]
        r = _auto(events=events, max_replicas=6, rate=1000.0,
                  n_requests=3000)
        repairs = [e for e in r.scale_events if e.action == "repair"]
        assert len(repairs) == 1
        assert repairs[0].delta == 0
        assert repairs[0].reason.cause == "node_repair"
        assert sum(e.n_repaired for e in r.epochs) == 1
        # n_degraded is a gauge: one slow replica while degraded, none
        # after the repair lands.
        assert max(e.n_degraded for e in r.epochs) == 1
        assert r.epochs[-1].n_degraded == 0
        # The fleet grew to absorb the slow replica, then came back down.
        sizes = [e.n_replicas for e in r.epochs]
        assert max(sizes) > 2
        assert sizes[-1] < max(sizes)

    def test_repair_without_degrade_is_noop(self):
        """Repairing a healthy replica neither counts nor changes the
        run; the event is recorded but n_repaired stays zero."""
        events = [FailureEvent(time=0.3, node_id=0, kind="repair")]
        r0 = _auto(rate=800.0, n_requests=1200)
        r1 = _auto(events=events, rate=800.0, n_requests=1200)
        assert sum(e.n_repaired for e in r1.epochs) == 0
        _same_run(r0, r1)

    def test_repair_traced(self):
        from repro.serve.router import Router
        from repro.cluster.machine import cori
        tr = Tracer()
        router = Router(cori(seed=0, jitter=False), 2, BatchingPolicy(),
                        lambda b: 0.01, tracer=tr)
        router.degrade_replica(0.0, 0, 3.0)
        rep = router.repair_replica(1.0, 0)
        assert rep.queue.slow_factor == 1.0
        evs = [e for e in tr.events if e.kind == "replica_repair"]
        assert len(evs) == 1
        assert evs[0].data["undone_slow_factor"] == 3.0
        # idempotent: repairing again undoes nothing
        assert router.repair_replica(2.0, 0).queue.slow_factor == 1.0


class TestValidation:
    def test_autoscale_policy_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError, match="target_attainment"):
            AutoscalePolicy(target_attainment=0.0)
        with pytest.raises(ValueError, match="scale_in_occupancy"):
            AutoscalePolicy(scale_in_occupancy=1.0)
        with pytest.raises(ValueError, match="epoch"):
            AutoscalePolicy(epoch=0.0)
        with pytest.raises(ValueError, match="cooldown"):
            AutoscalePolicy(cooldown_epochs=-1)
        with pytest.raises(ValueError, match="idle_epochs"):
            AutoscalePolicy(idle_epochs=0)
        with pytest.raises(ValueError, match="steps"):
            AutoscalePolicy(step_out=0)

    def test_autoscaler_initial_out_of_bounds(self):
        with pytest.raises(ValueError, match="initial fleet"):
            Autoscaler(AutoscalePolicy(min_replicas=2, max_replicas=4),
                       initial=5)

    def test_simulator_rejects_conflicting_failure_sources(self):
        from repro.cluster.failures import FailureModel
        with pytest.raises(ValueError, match="not both"):
            AutoscalingSimulator(
                None, policy=BatchingPolicy(), service_model=FakeService(),
                failures=FailureModel(),
                failure_events=[FailureEvent(1.0, 0, "fail")])

    def test_simulator_rejects_bad_slo(self):
        sim = AutoscalingSimulator(None, policy=BatchingPolicy(),
                                   service_model=FakeService())
        for slo in (-1.0, math.nan):
            with pytest.raises(ValueError, match="slo"):
                sim.run(10.0, n_requests=10, slo=slo)

    def test_scale_event_validation(self):
        with pytest.raises(ValueError, match="scale action"):
            ScaleEvent(0.0, 0, "resize", 1, 2)
        with pytest.raises(ValueError, match="change the fleet"):
            ScaleEvent(0.0, 0, "scale_out", 0, 2)
        # degrade is the one action that must NOT change the fleet
        with pytest.raises(ValueError, match="delta must be 0"):
            ScaleEvent(0.0, 0, "degrade", 1, 2)
        ScaleEvent(0.0, 0, "degrade", 0, 2)    # and delta 0 is legal

    def test_epoch_record_validation(self):
        with pytest.raises(ValueError, match="duration"):
            EpochRecord(index=0, t_start=1.0, t_end=1.0, n_replicas=1,
                        n_arrived=0, n_completed=0, n_ok=0, n_doomed=0,
                        n_shed=0, attainment=float("nan"),
                        mean_batch_size=float("nan"),
                        occupancy=float("nan"), queue_depth=0)


class TestControlDirection:
    """Deterministic sanity cases for the two control signals."""

    def test_scales_in_to_min_on_trickle_load(self):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=4, epoch=0.05,
                              idle_epochs=2, cooldown_epochs=0)
        sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                   service_model=svc, n_replicas=4)
        rate = 0.05 * svc.peak_throughput(policy.max_batch)
        stats = sim.run(rate, n_requests=600, process="uniform")
        assert all(ev.action == "scale_in" for ev in stats.scale_events)
        assert stats.epochs[-1].n_replicas == 1
        assert stats.mean_replicas < 2.0

    def test_scales_out_when_overloaded(self):
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=4, epoch=0.05,
                              cooldown_epochs=0)
        sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                   service_model=svc)
        rate = 2.5 * svc.peak_throughput(policy.max_batch)  # 1 can't keep up
        stats = sim.run(rate, n_requests=1500, process="uniform")
        assert any(ev.action == "scale_out" for ev in stats.scale_events)
        assert stats.epochs[-1].n_replicas > 1
        # More capacity arrived while the queue was visibly backed up.
        out_epochs = [ev.epoch for ev in stats.scale_events
                      if ev.action == "scale_out"]
        assert out_epochs[0] <= 3

    def test_first_arrival_is_visible_to_epoch_zero(self):
        """Epoch windows are half-open (t_start, t_end] — but epoch 0
        starts exactly at the first arrival, so a closed start keeps that
        request (and a batch launched at that same instant, as continuous
        mode does at low load) from being invisible to the controller and
        misclassifying the opening epoch as idle."""
        policy = BatchingPolicy(max_batch=8, max_wait=0.004,
                                mode="continuous")
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=2, epoch=1.0)
        sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                   service_model=svc)
        stats = sim.run(2.0, n_requests=10, process="uniform")
        first = stats.epochs[0]
        assert first.n_arrived >= 1
        assert not math.isnan(first.occupancy)

    def test_scales_out_when_admission_control_masks_overload(self):
        """Regression for a controller blind spot: with a small max_queue,
        sustained overload is absorbed by admission drops — every admitted
        request meets the SLO, so a completions-only attainment signal
        reads 1.0 forever while half the offered traffic bounces. Shed
        requests must count as epoch violations."""
        policy = BatchingPolicy(max_batch=8, max_wait=0.004)
        svc = FakeService()
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=3, epoch=0.05,
                              cooldown_epochs=0)
        sim = AutoscalingSimulator(None, autoscale=cfg, policy=policy,
                                   service_model=svc, max_queue=16)
        rate = 2.5 * svc.peak_throughput(policy.max_batch)
        stats = sim.run(rate, n_requests=2000, process="uniform")
        shed_epochs = [r for r in stats.epochs if r.n_shed > 0]
        assert shed_epochs, "scenario must actually shed requests"
        assert any(ev.action == "scale_out" for ev in stats.scale_events)
        # 2.5x single-replica saturation needs the full 3-replica fleet;
        # once it is there, shedding stops.
        assert stats.epochs[-1].n_replicas == 3
        assert stats.epochs[-1].n_shed == 0


# -- incremental observation == full rescan ------------------------------------

def _full_rescan(sim, router, admitted, t_start, t_end, index, slos, rtts,
                 floors, n_shed, shed_by_model=None, n_repaired=0):
    """``AutoscalingSimulator._observe`` as it was before the open set and
    the batch cursors: every admitted request and every launched batch,
    rescanned at every epoch. Quadratic and obviously right — the oracle
    the incremental form is held to, field for field."""
    on_start = t_start if index == 0 else math.inf
    n_degraded = 0
    slow_min = math.inf
    for r in router.replicas:
        f = r.queue.slow_factor
        if f != 1.0:
            n_degraded += 1
        if f < slow_min:
            slow_min = f
    if n_degraded and slow_min != 1.0:
        floors = [(fl - rtt) * slow_min + rtt
                  for fl, rtt in zip(floors, rtts)]
    completions = {}
    for r in router.replicas + router.retired:
        completions.update(r.queue.completions)
    mids = sim._mids
    M = len(slos)
    n_completed = [0] * M
    n_ok = [0] * M
    n_doomed = [0] * M
    for rid, a in admitted.items():
        m = 0 if mids is None else mids[rid]
        c = completions.get(rid)
        if c is None:
            if rid not in router.failed_ids and a <= t_end \
                    and t_end - a + floors[m] > slos[m]:
                n_doomed[m] += 1
        elif t_start < c <= t_end:
            n_completed[m] += 1
            if c - a + rtts[m] <= slos[m]:
                n_ok[m] += 1
        elif c > t_end >= a and c - a + rtts[m] > slos[m]:
            n_doomed[m] += 1
    n_arrived = sum(1 for a in admitted.values()
                    if t_start < a <= t_end or a == on_start)
    queue_depth = sum(r.queue.outstanding(t_end) for r in router.replicas)
    epoch_batches = [b for r in router.replicas + router.retired
                     for b in r.queue.batches
                     if t_start < b.start <= t_end or b.start == on_start]
    sizes = [b.size for b in epoch_batches]
    mean_batch = float(np.mean(sizes)) if sizes else float("nan")
    pols = sim.model_policies()
    if not sizes:
        occupancy = float("nan")
    elif pols is None:
        occupancy = mean_batch / sim.policy.max_batch
    else:
        occupancy = float(np.mean(
            [b.size / pols[b.model].max_batch for b in epoch_batches]))
    queue_seconds = (router.total_backlog(t_end)
                     if router.model_costs is not None else float("nan"))
    tot_completed, tot_ok = sum(n_completed), sum(n_ok)
    tot_doomed = sum(n_doomed)
    if tot_completed or tot_doomed or n_shed:
        attainment = tot_ok / (tot_completed + tot_doomed + n_shed)
    elif queue_depth > 0:
        attainment = 0.0
    else:
        attainment = float("nan")
    model_attainment = None
    if mids is not None:
        shed_m = shed_by_model or [0] * M
        per = []
        for m in range(M):
            judged = n_completed[m] + n_doomed[m] + shed_m[m]
            per.append(n_ok[m] / judged if judged else float("nan"))
        model_attainment = tuple(per)
    return EpochRecord(index=index, t_start=t_start, t_end=t_end,
                       n_replicas=router.n_replicas, n_arrived=n_arrived,
                       n_completed=tot_completed, n_ok=tot_ok,
                       n_doomed=tot_doomed, n_shed=n_shed,
                       attainment=attainment, mean_batch_size=mean_batch,
                       occupancy=occupancy, queue_depth=queue_depth,
                       queue_seconds=queue_seconds,
                       model_attainment=model_attainment,
                       n_degraded=n_degraded, n_repaired=n_repaired)


def _same(a, b):
    """``==``, except that NaN equals NaN (also inside tuples)."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (isinstance(a, float) and math.isnan(a)
                      and isinstance(b, float) and math.isnan(b))


class _RescanChecked(AutoscalingSimulator):
    """Runs the oracle next to every incremental observation, on the same
    live router state, and fails the run at the first differing field."""

    def _drive(self, arrivals, router, admitted):
        self._all_admitted = admitted
        self.n_checked = 0
        super()._drive(arrivals, router, admitted)

    def _observe(self, router, open_reqs, cursors, *window, **kw):
        rec = super()._observe(router, open_reqs, cursors, *window, **kw)
        ref = _full_rescan(self, router, self._all_admitted, *window, **kw)
        for f in dataclasses.fields(EpochRecord):
            got, want = getattr(rec, f.name), getattr(ref, f.name)
            assert _same(got, want), \
                f"epoch {rec.index}: {f.name} {got!r} != rescan {want!r}"
        self.n_checked += 1
        return rec


@st.composite
def _observed_runs(draw):
    """A small autoscaled run with everything that touches the observation
    state: shedding, bursts, node deaths / slowdowns / repairs (one tied
    with an epoch boundary, one on the first arrival), immediate scale-ins
    (re-routes), two models with their own policies, cache + coalescing."""
    two = draw(st.booleans())
    max_batch = draw(st.integers(1, 8))
    policy = BatchingPolicy(
        max_batch=max_batch,
        max_wait=draw(st.sampled_from([0.0, 2e-3, 1e-2])),
        mode=draw(st.sampled_from(["windowed", "continuous"])))
    kw = dict(policy=policy,
              max_queue=draw(st.sampled_from([None, 3, 12, 256])))
    if two:
        kw.update(
            models=[ModelProfile("a", None, slo=draw(st.sampled_from(
                        [None, 0.02, 0.08]))),
                    ModelProfile("b", None, weight=draw(st.sampled_from(
                        [1.0, 0.3])), policy=draw(st.sampled_from(
                            [None, BatchingPolicy(max_batch=2,
                                                  max_wait=1e-3)])))],
            service_models=[FakeService(0.004, 0.001),
                            FakeService(0.009, 0.002)],
            model_mix=ModelMix((0.6, 0.4),
                               mean_run=draw(st.sampled_from([1.0, 6.0]))),
            order=draw(st.sampled_from(LAUNCH_ORDERS)),
            cost_aware=draw(st.booleans()))
        svc = kw["service_models"][1]
    else:
        svc = FakeService(base=draw(st.sampled_from([0.0, 2e-3, 6e-3])),
                          per=draw(st.sampled_from([2e-4, 1e-3])))
        kw.update(workload=None, service_model=svc)
    if draw(st.booleans()):
        kw.update(cache_size=draw(st.sampled_from([0, 8])), coalesce=True)
    epoch = draw(st.sampled_from([0.4, 1.0, 2.5])) * svc.batch_time(max_batch)
    lo = draw(st.integers(1, 3))
    kw["autoscale"] = AutoscalePolicy(
        min_replicas=lo, max_replicas=lo + draw(st.integers(0, 4)),
        target_attainment=draw(st.sampled_from([0.8, 0.95, 0.99])),
        scale_in_occupancy=draw(st.sampled_from([0.2, 0.6, 0.95])),
        epoch=epoch, cooldown_epochs=draw(st.sampled_from([0, 0, 1])),
        idle_epochs=draw(st.integers(1, 2)),
        step_out=draw(st.integers(1, 3)), step_in=draw(st.integers(1, 2)))
    process = draw(st.sampled_from(
        ["uniform", "poisson", MMPP(burst=8.0, burst_fraction=0.3,
                                    cycle_requests=48.0)]))
    rate = draw(st.sampled_from([0.3, 0.9, 1.6, 4.0])) \
        * svc.peak_throughput(max_batch)
    n = draw(st.integers(40, 260))
    seed = draw(st.integers(0, 2**20))
    arrivals = make_arrivals(process, rate, n, seed=seed)
    t0, t_last = float(arrivals[0]), float(arrivals[-1])
    boundary = t0
    for _ in range(draw(st.integers(1, 6))):
        boundary += epoch      # the drive loop's own accumulation
    times = st.one_of(
        st.sampled_from([t0, math.nextafter(t0, math.inf), boundary]),
        st.floats(t0, max(t_last, t0)))
    kw["failure_events"] = [
        FailureEvent(draw(times), draw(st.integers(0, 5)), kind,
                     draw(st.sampled_from([1.5, 4.0]))
                     if kind == "degrade" else 1.0)
        for kind in draw(st.lists(
            st.sampled_from(["fail", "degrade", "repair"]), max_size=4))]
    return kw, dict(rate=rate, n_requests=n, process=process, seed=seed,
                    popularity="zipf" if "coalesce" in kw else None)


class TestIncrementalObservation:
    @settings(max_examples=120, deadline=None)
    @given(run=_observed_runs())
    def test_every_epoch_equals_the_full_rescan(self, run):
        kw, run_kw = run
        sim = _RescanChecked(**kw)
        stats = sim.run(**run_kw)
        assert sim.n_checked == len(stats.epochs)

    def test_completion_on_an_epoch_boundary_is_dropped_uncounted(self):
        """Zero service time on an exact 0.25 s grid with 0.5 s epochs:
        every other request arrives, launches and completes *on* a
        boundary, just after that epoch closed. No window of the rescan
        holds such a completion; the open set must let it go uncounted."""
        sim = _RescanChecked(
            None, service_model=FakeService(base=0.0, per=0.0),
            policy=BatchingPolicy(max_batch=1, max_wait=0.0),
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=1,
                                      epoch=0.5))
        stats = sim.run(4.0, n_requests=12, process="uniform", seed=0,
                        slo=1.0)
        assert sim.n_checked == len(stats.epochs) == 5
        assert [(e.n_arrived, e.n_completed) for e in stats.epochs[1:]] \
            == [(1, 1)] * 4


class _CountingLedger(dict):
    """A completion ledger that counts how often it is asked for an id."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class _LedgerCounted(AutoscalingSimulator):
    def _make_router(self, on_commit=None):
        router = super()._make_router(on_commit)
        self.ledger = router._completions = _CountingLedger()
        for r in router.replicas:
            r.queue.completions = self.ledger
        return router


def test_observation_work_per_request_does_not_grow_with_the_run():
    """Pins the work, not the wall clock: on the ``autoscale`` configuration
    of ``bench/workloads.py`` (quarter-SLO epochs, MMPP bursts at 3x one
    replica's saturation, a node death) the completion-ledger lookups per
    request stay flat from ``n`` to ``4n`` requests. Rescanning every
    admitted request at every epoch made them grow ~4x."""
    from repro.sim import hep_workload
    hep = hep_workload()
    policy = BatchingPolicy(max_batch=32, max_wait=0.010)
    one = ServingSimulator(hep, n_replicas=1, policy=policy)
    slo = one.default_slo()
    per_request = []
    for n in (3000, 12000):
        sim = _LedgerCounted(
            hep, policy=policy,
            autoscale=AutoscalePolicy(max_replicas=8, epoch=0.25 * slo,
                                      cooldown_epochs=0, step_out=2),
            failure_events=[FailureEvent(1.0, 0, "fail")])
        stats = sim.run(3.0 * one.saturation_rate(), n_requests=n,
                        process=MMPP(burst=8.0), seed=11, slo=slo)
        assert len(stats.epochs) > n / 100 and stats.n_failed > 0
        per_request.append(sim.ledger.lookups / n)
    assert per_request[1] <= 1.3 * per_request[0], per_request
