"""Deadline-aware scheduling: the cost-model refactor's property suite.

Four families of guarantees for the seconds-based scheduler (ISSUE 7):

1. **Homogeneous single-model runs are bit-identical** — with one model
   (one cost, one SLO, one lane) ``order="edf"`` and
   ``cost_aware=True`` must reproduce the count-based FIFO scheduler
   exactly: same latencies, same batches, same drops, same horizon —
   across seeds, arrival processes, cached runs, and the autoscaled
   control loop. The refactor is a re-denomination, not a behavior
   change, wherever there is nothing to reorder.
2. **Deadline ordering semantics** — EDF launches the earliest-deadline
   lane among launch-ready ones and breaks deadline ties by model index;
   no admitted request is ever starved (every one launches in bounded
   time without waiting for ``drain``).
3. **Cost-aware routing and admission** — least-loaded becomes
   shortest-expected-work (one queued expensive scan outweighs many
   cheap events) and seconds limits are judged against the seconds
   backlog, with any positive limit admitting at an empty queue.
4. **Admission-limit regressions** (the satellite bugfix) — non-positive
   model weights are rejected at ``ModelProfile`` and at ``register()``;
   count-mode limits (``ServingSimulator.admission_limits``) are floored
   at one request even for arbitrarily tiny weights; the all-zero-weights
   corner raises ``ValueError``, not ``ZeroDivisionError``.

Plus the documented degenerate-run contract of the stats accessors
(zero-completion, all-shed, and single-request runs).
"""

import math

import numpy as np
import pytest

from repro.cluster.failures import FailureEvent
from repro.serve import (
    LAUNCH_ORDERS,
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    LatencyStats,
    ModelMix,
    ModelProfile,
    PerModelStats,
    ReplicaBatchQueue,
    Router,
    ServingSimulator,
)
from repro.utils.rng import as_rng

SEEDS = [3, 1717, 20260808]


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


def _svc_fns(*services):
    return [s.batch_time for s in services]


def _weighted_sim(weights, max_queue=64, **kw):
    """A simulator over one FakeService per admission weight."""
    return ServingSimulator(
        models=[ModelProfile(f"m{i}", None, weight=w)
                for i, w in enumerate(weights)],
        service_models=[FakeService() for _ in weights],
        max_queue=max_queue, **kw)


def _assert_same(a, b):
    assert np.array_equal(a.latencies, b.latencies)
    assert a.n_offered == b.n_offered
    assert a.n_dropped == b.n_dropped
    assert a.n_failed == b.n_failed
    assert a.n_cache_hits == b.n_cache_hits
    assert a.horizon == b.horizon
    assert np.array_equal(a.batch_sizes, b.batch_sizes)


# -- validation ----------------------------------------------------------------

class TestValidation:
    def test_unknown_order_rejected_everywhere(self):
        # a queue and a router take no order: SLOs given, they launch
        # by deadline
        svc = FakeService()
        with pytest.raises(ValueError, match="launch order"):
            ServingSimulator(None, service_models=[svc], order="lifo")

    def test_slos_must_be_positive(self):
        svc = FakeService()
        with pytest.raises(ValueError, match="positive"):
            ReplicaBatchQueue([BatchingPolicy()], [svc.batch_time],
                              slos=[0.0])

    def test_costs_must_be_positive(self):
        svc = FakeService()
        with pytest.raises(ValueError, match="positive"):
            Router(None, 1, [BatchingPolicy()], [svc.batch_time],
                   model_costs=[0.0])

    def test_seconds_limits_must_be_positive(self):
        svc = FakeService()
        for bad in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="positive"):
                Router(None, 1, [BatchingPolicy()], [svc.batch_time],
                       model_costs=[0.1], limits=[bad])
        with pytest.raises(ValueError, match="2 admission limits"):
            Router(None, 1, [BatchingPolicy()], [svc.batch_time],
                   model_costs=[0.1], limits=[1.0, 1.0])

    def test_per_model_sequence_lengths_checked(self):
        svc = FakeService()
        with pytest.raises(ValueError, match="model"):
            Router(None, 1, [BatchingPolicy()], [svc.batch_time],
                   model_costs=[0.1, 0.2])
        with pytest.raises(ValueError, match="model"):
            ReplicaBatchQueue([BatchingPolicy()], _svc_fns(svc, svc))
        # the router's per-model lists are checked by the queues it builds
        pol, fns = BatchingPolicy(), _svc_fns(svc, svc)
        for kw, match in (({"model_slos": [0.1] * 3}, "3 slos for 2"),
                          ({"policies": [pol]}, "1 policies for 2"),
                          ({"service_times": fns[:1]}, "2 policies for 1")):
            args = {"policies": [pol] * 2, "service_times": fns, **kw}
            with pytest.raises(ValueError, match=match):
                Router(None, 2, **args)


# -- homogeneous single-model differential -------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
class TestHomogeneousDifferential:
    """One model => nothing to reorder or re-weigh: every scheduling knob
    must reproduce the count-based FIFO scheduler bit for bit."""

    def _sim(self, policy, n_replicas, **kw):
        return ServingSimulator(None, service_models=[FakeService()],
                                policy=policy, n_replicas=n_replicas,
                                max_queue=16, **kw)

    def test_orders_identical_single_model(self, seed):
        rng = as_rng(seed)
        for process in ("uniform", "poisson", "mmpp"):
            policy = BatchingPolicy(max_batch=int(rng.integers(2, 9)),
                                    max_wait=1e-3)
            n = int(rng.integers(1, 4))
            base = self._sim(policy, n)
            rate = float(rng.uniform(0.4, 1.8)) * base.saturation_rate()
            a = base.run(rate, n_requests=600, process=process, seed=seed)
            for order in LAUNCH_ORDERS[1:]:
                b = self._sim(policy, n, order=order).run(
                    rate, n_requests=600, process=process, seed=seed)
                _assert_same(a, b)

    def test_cost_aware_identical_single_model(self, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        base = self._sim(policy, 2)
        aware = self._sim(policy, 2, cost_aware=True, order="edf")
        rate = 1.5 * base.saturation_rate()   # overload: admission active
        a = base.run(rate, n_requests=900, process="mmpp", seed=seed)
        b = aware.run(rate, n_requests=900, process="mmpp", seed=seed)
        assert a.n_dropped > 0                # the comparison had teeth
        _assert_same(a, b)

    def test_cached_runs_identical(self, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        kw = dict(cache_size=16, coalesce=True)
        base = self._sim(policy, 2, **kw)
        aware = self._sim(policy, 2, order="edf", cost_aware=True, **kw)
        rate = 1.2 * base.saturation_rate()
        a = base.run(rate, n_requests=800, process="poisson", seed=seed,
                     popularity="zipf")
        b = aware.run(rate, n_requests=800, process="poisson", seed=seed,
                      popularity="zipf")
        assert a.n_cache_hits > 0
        _assert_same(a, b)

    def test_autoscaled_identical(self, seed):
        policy = BatchingPolicy(max_batch=8, max_wait=1e-3)
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=4,
                              target_attainment=0.95, epoch=0.15)
        events = [FailureEvent(time=0.4, node_id=0, kind="fail")]
        kw = dict(autoscale=cfg, policy=policy, failure_events=events,
                  service_models=[FakeService()], max_queue=16)
        base = AutoscalingSimulator(None, **kw)
        aware = AutoscalingSimulator(None, order="edf", cost_aware=True,
                                     **kw)
        rate = 1.1 * base.saturation_rate()
        a = base.run(rate, n_requests=1500, process="mmpp", seed=seed)
        b = aware.run(rate, n_requests=1500, process="mmpp", seed=seed)
        _assert_same(a, b)
        assert a.mean_replicas == b.mean_replicas
        assert [(e.time, e.action, e.delta) for e in a.scale_events] == \
            [(e.time, e.action, e.delta) for e in b.scale_events]
        # Cost-aware epochs additionally record the seconds backlog;
        # count-based ones honestly decline to invent one.
        assert all(math.isnan(r.queue_seconds) for r in a.epochs)
        assert all(not math.isnan(r.queue_seconds) for r in b.epochs)
        for ra, rb in zip(a.epochs, b.epochs):
            assert ra.queue_depth == rb.queue_depth


# -- deadline ordering semantics -----------------------------------------------

class TestLaunchOrderSemantics:
    def _busy_queue(self, slos):
        s0, s1 = FakeService(0.004, 0.001), FakeService(0.05, 0.01)
        return ReplicaBatchQueue(
            [BatchingPolicy(max_batch=4, max_wait=1e-3)] * 2,
            _svc_fns(s0, s1), free_at=1.0, slos=slos)

    def test_edf_launches_tight_slo_lane_first(self):
        # Both lanes become launch-ready at free_at (the busy replica is
        # the regime where ordering matters). FIFO (no SLOs) ties break
        # to the lower model index; EDF to the earlier deadline.
        for slos, first in ((None, 0), ([10.0, 0.05], 1)):
            q = self._busy_queue(slos)
            q.push(0.0, 0, model=0)     # deadline 10.0
            q.push(0.01, 1, model=1)    # deadline 0.06  <- urgent
            q.drain()
            assert q.batches[0].model == first

    def test_edf_breaks_deadline_ties_by_model_index(self):
        # Equal deadlines (1.0 both): EDF falls through to the model
        # index (model 0 first), though model 1's batch costs ~10x more.
        q = self._busy_queue([1.0, 0.5])
        q.push(0.0, 0, model=0)     # deadline 0.0 + 1.0 = 1.0
        q.push(0.5, 1, model=1)     # deadline 0.5 + 0.5 = 1.0
        q.drain()
        assert q.batches[0].model == 0

    def test_per_model_policy_bounds_lane_batches(self):
        s0, s1 = FakeService(), FakeService(0.05, 0.01)
        pols = [BatchingPolicy(max_batch=8, max_wait=1e-3),
                BatchingPolicy(max_batch=2, max_wait=1e-3)]
        q = ReplicaBatchQueue(pols, _svc_fns(s0, s1))
        for i in range(6):
            q.push(0.0, i, model=1)
        q.drain()
        assert all(b.size <= 2 for b in q.batches if b.model == 1)
        assert max(b.size for b in q.batches) == 2

    def test_no_starvation_without_drain(self):
        """Every admitted request launches in bounded time: EDF defers
        the loose-SLO lane, it never forgets it. All completions exist
        after syncing past the last hold deadline — no ``drain()``."""
        svc = FakeService()
        router = Router(None, 1,
                        [BatchingPolicy(max_batch=4, max_wait=0.01)] * 2,
                        _svc_fns(svc, svc), model_slos=[0.05, 100.0])
        rids = []
        t = 0.0
        for i in range(200):
            model = 0 if i % 4 else 1   # a loose-SLO request every 4th
            assert router.submit(t, i, model)
            rids.append(i)
            t += 0.002
        router.sync(t + 1000.0)         # far past every hold deadline
        done = router.completions()
        assert sorted(done) == rids
        # ...and the loose-SLO model was genuinely deprioritized at some
        # point: at least one of its requests completed after a
        # later-arriving urgent one.
        assert any(done[i] > done[j]
                   for i in range(0, 200, 4) for j in range(i + 1, 200)
                   if j % 4)


# -- cost-aware routing and admission ------------------------------------------

class TestCostAwareRouting:
    def _router(self, costs, n_replicas=2, **kw):
        svc = FakeService()
        fns = _svc_fns(*([svc] * len(costs)))
        return Router(None, n_replicas,
                      [BatchingPolicy(max_batch=64, max_wait=10.0)] * len(fns),
                      fns, model_costs=costs, **kw)

    def test_shortest_expected_work_routing(self):
        # One queued expensive request (cost 10) outweighs many cheap
        # ones (cost 1): the cheap stream piles onto the other replica
        # until its seconds-backlog catches up, instead of alternating.
        r = self._router([1.0, 10.0])
        assert r.submit(0.0, 0, 1)          # -> replica 0 (ties to 0)
        for i in range(1, 9):
            assert r.submit(0.0, i, 0)
        assert r._counts[0] == [0, 1]       # 10 seconds of est. work
        assert r._counts[1] == [8, 0]       # 8 seconds — still lighter

    def test_count_mode_alternates_on_same_stream(self):
        svc = FakeService()
        r = Router(None, 2, [BatchingPolicy(max_batch=64, max_wait=10.0)] * 2,
                   _svc_fns(svc, svc))
        assert r.submit(0.0, 0, 1)
        for i in range(1, 9):
            assert r.submit(0.0, i, 0)
        # Request counts balance 4/5 — the cost model is what changed.
        assert sorted(r._backlog.values()) == [4, 5]

    def test_seconds_admission_limit(self):
        r = self._router([1.0], n_replicas=1, limits=[5.0])
        for i in range(5):
            assert r.submit(0.0, i)         # backlog 0..4 seconds < 5
        assert not r.submit(0.0, 5)         # 5 >= 5: shed
        assert r.n_dropped == 1

    def test_positive_seconds_limit_admits_at_empty_queue(self):
        # One request costs 10x the limit — it is still admitted when
        # the queue is empty (only the *next* one is shed): a positive
        # limit can never starve a model outright.
        r = self._router([10.0], n_replicas=1, limits=[5.0])
        assert r.submit(0.0, 0)
        assert not r.submit(0.0, 1)

    def test_weighted_seconds_limits(self):
        # Equal costs, so the mix-weighted mean is the one cost; each
        # weighted share clears the one-max-batch floor (8 costs).
        sim = _weighted_sim([4.0, 1.0], max_queue=64, cost_aware=True,
                            policy=BatchingPolicy(max_batch=8))
        c = sim.model_costs()[0]
        assert sim.admission_limits() == [64 * c * 4.0 / 4.0,
                                          64 * c * 1.0 / 4.0]
        assert sim._make_router()._limits == sim.admission_limits()

    def test_total_backlog_in_seconds(self):
        r = self._router([1.0, 10.0])
        r.submit(0.0, 0, 1)
        r.submit(0.0, 1, 0)
        assert r.total_backlog(0.0) == 11.0

    def test_simulator_derives_costs_and_budget(self):
        profiles = [ModelProfile("cheap", None), ModelProfile("dear", None)]
        services = [FakeService(0.004, 0.001), FakeService(0.4, 0.1)]
        sim = ServingSimulator(models=profiles, service_models=services,
                               model_mix=ModelMix((0.5, 0.5)),
                               policy=BatchingPolicy(max_batch=8,
                                                     max_wait=1e-3),
                               max_queue=10, cost_aware=True)
        costs = sim.model_costs()
        assert costs == [s.est_request_cost(8) for s in services]
        assert sim._make_router().model_costs == costs
        # Equal weights: each limit is the whole seconds budget, and the
        # dear model's is raised to one max batch of its own work.
        limits = sim.admission_limits()
        assert limits[0] == pytest.approx(
            10 * (0.5 * costs[0] + 0.5 * costs[1]))
        assert limits[1] == costs[1] * 8


# -- skewed-mix starvation (the derived-seconds-budget bugfix) -----------------

class TestSkewedMixStarvation:
    """A multi-model cost-aware run derives ``max_queue x mix-weighted
    mean cost`` as the seconds budget and splits it by admission weight —
    which used to hand a tiny-share expensive model a per-model budget
    below the cost of ONE of its own requests. The seconds limit is
    judged against the replica's *total* cost-weighted backlog, so
    sustained cheap traffic kept the backlog above that sliver forever:
    the expensive model shed 100% while replicas had capacity to spare.
    The fix floors each model's derived budget at its single max-batch
    cost.

    The scenario: a 1%-share model whose requests cost ~100x the cheap
    model's, with admission weights 100:1 (the shape that minimizes its
    derived share).
    """

    def _sim(self, **kw):
        profiles = [ModelProfile("cheap", None, weight=100.0),
                    ModelProfile("dear", None, weight=1.0)]
        services = [FakeService(0.004, 0.001), FakeService(0.4, 0.1)]
        return ServingSimulator(models=profiles, service_models=services,
                                model_mix=ModelMix((0.99, 0.01)),
                                n_replicas=4,
                                policy=BatchingPolicy(max_batch=8,
                                                      max_wait=1e-3),
                                max_queue=32, cost_aware=True, **kw)

    def test_derived_budget_floors_at_one_max_batch(self):
        sim = self._sim()
        costs = sim.model_costs()
        budget = 32 * (0.99 * costs[0] + 0.01 * costs[1])
        limits = sim.admission_limits()
        # The top-weight model gets the whole derived budget, above its
        # own floor…
        assert limits[0] == pytest.approx(budget)
        assert limits[0] > costs[0] * 8
        # …and the expensive model is raised to one batch of its work.
        assert limits[1] == costs[1] * 8
        # Pre-floor, the expensive model's weighted share of the budget
        # was below the cost of a single one of its requests.
        assert budget * (1.0 / 100.0) < costs[1]

    def test_expensive_model_admits_instead_of_shedding_100pct(self):
        sim = self._sim()
        stats = sim.run(0.7 * sim.saturation_rate(), n_requests=4000,
                        seed=3)
        dear = stats.models[1]
        assert dear.n_offered > 0
        # The regression: before the floor this was n_dropped == n_offered
        # (100% shed, replicas idle or serving cheap traffic only).
        assert dear.n_dropped == 0

    def test_router_gets_the_floored_limits(self):
        # Model 0's weighted share already clears its floor and is taken
        # verbatim; model 1's sliver is raised to its floor. The router
        # reads exactly what the simulator computed.
        sim = self._sim()
        costs = sim.model_costs()
        r = sim._make_router()
        assert r._limits == sim.admission_limits()
        assert r._limits[1] == costs[1] * 8
        assert r.model_costs == costs

    def test_unbounded_queue_has_no_limit(self):
        # max_queue=None is no limit in either unit, floors included.
        for cost_aware in (False, True):
            sim = _weighted_sim([100.0, 1.0], max_queue=None,
                                cost_aware=cost_aware)
            assert sim.admission_limits() == [math.inf, math.inf]
            assert sim._make_router()._limits == [math.inf, math.inf]

    def test_single_model_derivation_has_no_floor(self):
        # The floor applies only where starvation can: cross-model
        # backlog. Single-model cost_aware derivation stays floor-free,
        # keeping the homogeneous cost_aware <-> count differential exact.
        sim = ServingSimulator(service_models=[FakeService()],
                               policy=BatchingPolicy(max_batch=8),
                               max_queue=4, cost_aware=True)
        c = sim.model_costs()[0]
        assert sim.admission_limits() == [4 * c]
        assert 4 * c < c * 8            # a floor would have raised it


# -- admission-limit regressions (the satellite bugfix) ------------------------

class TestAdmissionLimitRegressions:
    def _router(self, weights, max_queue=64):
        svc = FakeService()
        fns = _svc_fns(*([svc] * len(weights)))
        return Router(None, 1, [BatchingPolicy()] * len(fns), fns,
                      limits=_weighted_sim(weights,
                                           max_queue).admission_limits())

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            self._router([0.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            self._router([-1.0, 1.0])

    def test_all_zero_weights_raise_value_error_not_zero_division(self):
        # The historical failure mode: ceil(max_queue * 0 / max(0,...))
        # divides by zero. Validation must turn it into a ValueError.
        try:
            self._router([0.0, 0.0])
        except ValueError:
            pass
        else:
            pytest.fail("all-zero weights were accepted")

    def test_profile_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            ModelProfile("m", None, weight=0.0)
        with pytest.raises(ValueError, match="positive"):
            ModelProfile("m", None, weight=-2.0)

    def test_registry_register_rejects_zero_weight(self, tmp_path):
        from repro.serve import ModelRegistry
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="positive"):
            reg.register("m", lambda: None, (4,), weight=0.0)

    def test_tiny_weight_floors_at_one_request(self):
        # ceil() already yields 1 for any positive weight, and the
        # explicit max(1, ...) floor makes the zero corner structurally
        # impossible: no configuration can produce a limit of 0.
        r = self._router([1e-12, 1.0], max_queue=64)
        assert r._limits == [1, 64]
        assert r.submit(0.0, 0, 0)      # empty queue: always admitted

    def test_floor_holds_even_if_validation_is_bypassed(self):
        sim = _weighted_sim([1.0, 1.0], max_queue=64)
        # simulate a bypassed guard
        object.__setattr__(sim._profiles[0], "weight", 0.0)
        assert sim.admission_limits() == [1, 64]

    def test_weighted_count_limits_unchanged(self):
        r = self._router([4.0, 1.0], max_queue=10)
        assert r._limits == [10, 3]     # ceil(10 * 1/4) = 3


# -- degenerate-run stats contract ---------------------------------------------

class TestDegenerateStatsContract:
    def test_zero_completion_run(self):
        s = LatencyStats(latencies=np.array([]), n_offered=0)
        for v in (s.p50, s.p99, s.mean, s.percentile(37.0),
                  s.mean_batch_size):
            assert math.isnan(v)
        for v in (s.drop_rate, s.hit_rate, s.throughput, s.deflected_load):
            assert v == 0.0
        assert s.attainment(1.0) == 1.0     # vacuous: nothing offered
        assert s.n_batches == 0

    def test_all_shed_run(self):
        s = LatencyStats(latencies=np.array([]), n_offered=10,
                         n_dropped=10, horizon=0.0)
        assert s.attainment(1.0) == 0.0     # every offer was a violation
        assert s.drop_rate == 1.0
        assert math.isnan(s.p99)
        assert s.throughput == 0.0

    def test_single_request_is_a_full_sample(self):
        s = LatencyStats(latencies=np.array([0.5]), n_offered=1,
                         horizon=2.0, batch_sizes=np.array([1]))
        assert s.p50 == s.p99 == s.mean == 0.5
        assert s.percentile(0.0) == s.percentile(100.0) == 0.5
        assert s.mean_batch_size == 1.0
        assert s.throughput == 0.5

    def test_per_model_degenerates_match(self):
        empty = PerModelStats(name="m", slo=1.0, weight=1.0,
                              latencies=np.array([]), n_offered=0)
        assert empty.attainment == 1.0
        assert math.isnan(empty.p99) and math.isnan(empty.mean)
        assert empty.hit_rate == 0.0
        shed = PerModelStats(name="m", slo=1.0, weight=1.0,
                             latencies=np.array([]), n_offered=7,
                             n_dropped=7)
        assert shed.attainment == 0.0
        one = PerModelStats(name="m", slo=1.0, weight=1.0,
                            latencies=np.array([0.25]), n_offered=1)
        assert one.p50 == one.p99 == 0.25
        assert one.attainment == 1.0

    def test_percentile_domain_still_checked(self):
        s = LatencyStats(latencies=np.array([]), n_offered=0)
        with pytest.raises(ValueError, match="q must be"):
            s.percentile(101.0)


# -- per-model conservation under edf + autoscaling + failures ----------------

@pytest.mark.parametrize("seed", SEEDS)
class TestDeadlineConservation:
    def test_conservation_under_edf_scaling_and_failures(self, seed):
        rng = as_rng(seed)
        profiles = [ModelProfile("alpha", None, weight=1.0, slo=0.08),
                    ModelProfile("beta", None, weight=0.5, slo=1.0)]
        services = [FakeService(0.004, 0.001), FakeService(0.05, 0.01)]
        cfg = AutoscalePolicy(min_replicas=1, max_replicas=5,
                              target_attainment=0.95, epoch=0.1)
        events = [FailureEvent(time=float(rng.uniform(0.1, 0.5)),
                               node_id=int(rng.integers(0, 4)),
                               kind="fail")]
        sim = AutoscalingSimulator(
            models=profiles, service_models=services,
            model_mix=ModelMix((0.7, 0.3),
                               mean_run=float(rng.choice([1.0, 8.0]))),
            autoscale=cfg, max_queue=16,
            policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
            failure_events=events, order="edf", cost_aware=True)
        rate = float(rng.uniform(0.8, 1.6)) * sim.saturation_rate()
        stats = sim.run(rate, n_requests=2500, process="mmpp", seed=seed)
        assert stats.models is not None
        for m in stats.models:
            assert m.n_completed + m.n_dropped + m.n_failed \
                == m.n_offered, m.name
        for field in ("n_offered", "n_completed", "n_dropped", "n_failed"):
            assert sum(getattr(m, field) for m in stats.models) \
                == getattr(stats, field), field
        assert stats.n_completed + stats.n_dropped + stats.n_failed \
            == stats.n_offered

    def test_deadline_runs_reproduce_bitwise(self, seed):
        profiles = [ModelProfile("alpha", None, slo=0.08),
                    ModelProfile("beta", None, slo=1.0)]
        services = [FakeService(0.004, 0.001), FakeService(0.05, 0.01)]
        kw = dict(models=profiles, service_models=services,
                  model_mix=ModelMix((0.6, 0.4)), max_queue=16,
                  policy=BatchingPolicy(max_batch=8, max_wait=1e-3),
                  order="edf", cost_aware=True)
        a = ServingSimulator(**kw).run(300.0, n_requests=1200,
                                       process="mmpp", seed=seed)
        b = ServingSimulator(**kw).run(300.0, n_requests=1200,
                                       process="mmpp", seed=seed)
        _assert_same(a, b)
