"""Burst-aware autoscaling benchmarks: the ISSUE 3 acceptance numbers.

No paper column — the paper stops at training. The scenario is the one PR 2
characterized and the ROADMAP demanded a controller for: an MMPP stream
whose *mean* rate sits comfortably below the uniform-arrival saturation of
a single replica, but whose 8x bursts break tail attainment anyway. A
controller keyed on "offered rate vs saturation" would never act here —
the mean rate says everything is fine. The autoscaler keys on observed
attainment instead, and the acceptance claims are:

- **restore**: under the bursty trace, the autoscaler brings SLO
  attainment back to >= its target, from the badly broken static
  min-fleet level;
- **cheaper than worst-case**: it does so at a time-averaged fleet size
  well below the static provisioning needed to ride out the burst peaks
  (burst-state rate ~4.3x the mean => 4 replicas of headroom);
- **failure contention**: a node death mid-burst (the involuntary
  scale-in) is detected and repaired by the controller, and costs only a
  bounded slice of attainment — capacity adaptation is what made the
  paper's production story hold at ~9600 nodes;
- **observation cost**: the host time of an autoscaled run per request
  stays flat as the run grows — each control epoch reads only what is
  outstanding.
"""

import time

import numpy as np
import pytest

from bench_report import bench_json, report
from repro.cluster.failures import FailureEvent
from repro.serve import (
    MMPP,
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    ServingSimulator,
)

#: burst shape: 8x bursts, 12.5% of the time, long dwells (the controller
#: must catch a burst while it is still bursting, so cycles are long
#: relative to the control epoch)
SHAPE = MMPP(burst=8.0, burst_fraction=0.125, cycle_requests=2048.0)
#: mean offered rate as a fraction of single-replica uniform saturation
MEAN_LOAD = 0.75
#: static fleet that covers the burst-state rate (~4.3x mean = 3.2x sat)
WORST_CASE_REPLICAS = 4
N_REQUESTS = 4096
SEED = 0


def _setup(hep_wl):
    policy = BatchingPolicy(max_batch=32, max_wait=0.010)
    static1 = ServingSimulator(hep_wl, n_replicas=1, policy=policy)
    sat1 = static1.saturation_rate()
    slo = static1.default_slo()
    cfg = AutoscalePolicy(min_replicas=1, max_replicas=WORST_CASE_REPLICAS,
                          target_attainment=0.95, epoch=0.25 * slo,
                          cooldown_epochs=0, step_out=2, idle_epochs=3,
                          scale_in_occupancy=0.3)
    return policy, static1, sat1, slo, cfg


class TestAutoscaleRestoresBurstySLO:
    def test_attainment_restored_with_fewer_replicas(self, hep_wl):
        """The acceptance criterion: mean rate below uniform saturation,
        bursts break the static min fleet, the autoscaler restores
        attainment >= target while averaging fewer replicas than static
        worst-case provisioning."""
        policy, static1, sat1, slo, cfg = _setup(hep_wl)
        rate = MEAN_LOAD * sat1
        service = static1.service

        # The PR 2 curve, reproduced: uniform at this mean rate is healthy
        # on one replica; the same mean rate with bursts is broken.
        uni1 = static1.run(rate, n_requests=1024, process="uniform")
        mmpp1 = static1.run(rate, n_requests=N_REQUESTS, process=SHAPE,
                            seed=SEED)
        # Static worst-case provisioning rides out the burst peaks.
        mmpp_wc = ServingSimulator(
            hep_wl, n_replicas=WORST_CASE_REPLICAS, policy=policy,
            service_models=[service]).run(rate, n_requests=N_REQUESTS,
                                       process=SHAPE, seed=SEED)
        auto = AutoscalingSimulator(hep_wl, autoscale=cfg, policy=policy,
                                    service_models=[service])
        scaled = auto.run(rate, n_requests=N_REQUESTS, process=SHAPE,
                          seed=SEED, slo=slo)

        print(f"\n--- hep: MMPP(burst=8) @ {MEAN_LOAD}x sat, "
              f"slo={slo * 1e3:.0f} ms ---")
        print(scaled.scale_timeline())
        report("autoscaling under MMPP bursts (hep)", [
            ("uniform attainment, 1 replica", "1.0",
             f"{uni1.attainment(slo):.3f}"),
            ("MMPP attainment, 1 replica", "< 0.5",
             f"{mmpp1.attainment(slo):.3f}"),
            (f"MMPP attainment, {WORST_CASE_REPLICAS} replicas (worst-case)",
             ">= 0.95", f"{mmpp_wc.attainment(slo):.3f}"),
            ("MMPP attainment, autoscaled", ">= 0.95",
             f"{scaled.attainment(slo):.3f}"),
            ("mean replicas, autoscaled",
             f"< {WORST_CASE_REPLICAS}", f"{scaled.mean_replicas:.2f}"),
        ])

        # Below saturation on average; bursts are the only problem.
        assert uni1.attainment(slo) == pytest.approx(1.0)
        assert mmpp1.attainment(slo) < 0.5
        # Worst-case static provisioning does solve it — at 4x the fleet.
        assert mmpp_wc.attainment(slo) >= cfg.target_attainment
        # The tentpole claim, both halves.
        assert scaled.attainment(slo) >= cfg.target_attainment
        assert scaled.mean_replicas < WORST_CASE_REPLICAS
        assert np.isfinite(scaled.p99)
        # The controller actually worked for this: it scaled out under the
        # bursts and back in during the quiet spans.
        actions = {ev.action for ev in scaled.scale_events}
        assert {"scale_out", "scale_in"} <= actions
        n_max = max(r.n_replicas for r in scaled.epochs)
        assert n_max == cfg.max_replicas
        assert scaled.epochs[-1].n_replicas < n_max

    def test_conservation_and_attribution(self, hep_wl):
        """Live scaling must not lose work, and every epoch's stats must
        add up: completions across epochs equal the run's completions."""
        policy, static1, sat1, slo, cfg = _setup(hep_wl)
        auto = AutoscalingSimulator(hep_wl, autoscale=cfg, policy=policy,
                                    service_models=[static1.service])
        scaled = auto.run(MEAN_LOAD * sat1, n_requests=N_REQUESTS,
                          process=SHAPE, seed=SEED, slo=slo)
        assert scaled.n_failed == 0
        assert scaled.n_completed + scaled.n_dropped == scaled.n_offered
        in_epochs = sum(r.n_completed for r in scaled.epochs)
        # The drain tail (after the last closed epoch) is the remainder.
        assert in_epochs <= scaled.n_completed
        assert sum(r.n_arrived for r in scaled.epochs) <= scaled.n_offered


class TestAutoscaleFailureContention:
    def test_node_death_mid_burst_is_repaired(self, hep_wl):
        """Kill a node while the fleet is scaled out into a burst: the
        controller detects the involuntary scale-in, replaces the replica
        at the next epoch, and the run still lands within a bounded slice
        of the no-failure attainment."""
        policy, static1, sat1, slo, cfg = _setup(hep_wl)
        rate = MEAN_LOAD * sat1
        service = static1.service
        healthy = AutoscalingSimulator(
            hep_wl, autoscale=cfg, policy=policy,
            service_models=[service]).run(rate, n_requests=N_REQUESTS,
                                       process=SHAPE, seed=SEED, slo=slo)
        # t=6.0 s sits inside the second burst of the seed-0 trace, when
        # the fleet is at max — the worst moment to lose a node.
        wounded = AutoscalingSimulator(
            hep_wl, autoscale=cfg, policy=policy, service_models=[service],
            failure_events=[FailureEvent(6.0, 0, "fail")],
        ).run(rate, n_requests=N_REQUESTS, process=SHAPE, seed=SEED,
              slo=slo)

        actions = [ev.action for ev in wounded.scale_events]
        assert "failure" in actions
        assert "repair" in actions[actions.index("failure"):], \
            "controller never replaced the dead replica"
        fail_ev = next(ev for ev in wounded.scale_events
                       if ev.action == "failure")
        repair_ev = next(ev for ev in wounded.scale_events
                         if ev.action == "repair"
                         and ev.time > fail_ev.time)
        report("failure contention: node death mid-burst (hep)", [
            ("requests lost to the death", "> 0", f"{wounded.n_failed}"),
            ("repair latency (epochs)", "<= 1",
             f"{repair_ev.epoch - fail_ev.epoch}"),
            ("attainment, no failure", "--",
             f"{healthy.attainment(slo):.3f}"),
            ("attainment, death + repair", "within 0.03",
             f"{wounded.attainment(slo):.3f}"),
        ])
        assert wounded.n_failed > 0
        # Repair lands at the first epoch boundary after the death.
        assert repair_ev.time - fail_ev.time <= cfg.epoch + 1e-9
        # Attainment recovers: bounded cost vs the no-failure run, and
        # still at or above the controller's target.
        assert wounded.attainment(slo) >= healthy.attainment(slo) - 0.03
        assert wounded.attainment(slo) >= cfg.target_attainment
        # After repair (+ backlog clearing), the wounded run's epochs track
        # the healthy run again.
        h = {r.index: r for r in healthy.epochs}
        settle = fail_ev.time + 10 * cfg.epoch
        tail = [r for r in wounded.epochs if r.t_start >= settle]
        assert tail, "no post-repair epochs to judge recovery on"
        gaps = [h[r.index].attainment - r.attainment for r in tail
                if r.index in h and np.isfinite(r.attainment)
                and np.isfinite(h[r.index].attainment)]
        assert max(gaps, default=0.0) <= 0.1


class TestObservationCost:
    #: request counts of the scan; 8x the smallest is where a per-epoch
    #: rescan of the run shows (it cost ~6x per request there)
    SIZES = (12_000, 24_000, 48_000, 96_000)

    def test_host_time_per_request_is_flat(self, hep_wl):
        """The ``autoscale`` configuration of ``bench/workloads.py``
        (quarter-SLO epochs, MMPP bursts at 3x one replica's saturation, a
        node death at 1 s): wall-clock microseconds per request of the
        whole run, best of 3 per size. The epoch count grows with the run,
        so a per-epoch cost that grew with it would show here; the largest
        run must stay within 1.5x of the smallest per request."""
        policy = BatchingPolicy(max_batch=32, max_wait=0.010)
        one = ServingSimulator(hep_wl, n_replicas=1, policy=policy)
        slo = one.default_slo()
        sim = AutoscalingSimulator(
            hep_wl, policy=policy,
            autoscale=AutoscalePolicy(max_replicas=8, epoch=0.25 * slo,
                                      cooldown_epochs=0, step_out=2),
            failure_events=[FailureEvent(1.0, 0, "fail")])
        rate = 3.0 * one.saturation_rate()
        us, epochs = {}, {}
        for n in self.SIZES:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                stats = sim.run(rate, n_requests=n, process=MMPP(burst=8.0),
                                seed=0, slo=slo)
                best = min(best, time.perf_counter() - t0)
            us[n], epochs[n] = best / n * 1e6, len(stats.epochs)
        report("autoscaled run host time per request (bench autoscale)", [
            (f"{n // 1000}k requests, {epochs[n]} epochs",
             f"<= {1.5 * us[self.SIZES[0]]:.1f} us"
             if n == self.SIZES[-1] else "--", f"{us[n]:.1f} us")
            for n in self.SIZES])
        bench_json("autoscale_observation_cost", {
            "us_per_request": {str(n): us[n] for n in self.SIZES},
            "epochs": {str(n): epochs[n] for n in self.SIZES}})
        assert epochs[self.SIZES[-1]] > 4 * epochs[self.SIZES[0]]
        assert us[self.SIZES[-1]] <= 1.5 * us[self.SIZES[0]], us
