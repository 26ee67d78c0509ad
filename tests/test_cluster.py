"""Cluster model: KNL node, network jitter, topology, failures, events."""

import numpy as np
import pytest

from repro.cluster import (
    AriesNetwork,
    CoriMachine,
    DragonflyTopology,
    EventQueue,
    FailureEvent,
    FailureModel,
    IOModel,
    KNLNodeModel,
    SolverOverheadModel,
    StragglerModel,
    cori,
)
from repro.cluster.topology import CORI_NODES
from repro.utils.units import TFLOPS


class TestKNL:
    def test_peak_flops_matches_paper(self):
        """Paper SIV: 68 cores x 1.4 GHz x 64 = 6.09 TF/s; our sustained
        model uses 66 cores at 1.2 GHz."""
        full = KNLNodeModel(cores=68, clock_hz=1.4e9)
        assert full.peak_flops == pytest.approx(6.09e12, rel=0.01)
        sustained = KNLNodeModel()
        assert sustained.peak_flops == pytest.approx(66 * 1.2e9 * 64)

    def test_machine_peak(self):
        """9688 nodes at sustained clock ~ 49 PF (paper quotes 50.6 with 68
        cores; we reserve 2 for the OS)."""
        m = CoriMachine()
        assert m.peak_flops == pytest.approx(
            CORI_NODES * 66 * 1.2e9 * 64)

    def test_efficiency_monotone_in_batch(self):
        node = KNLNodeModel()
        effs = [node.conv_efficiency(b, 1152) for b in (1, 2, 4, 8, 32)]
        assert effs == sorted(effs)
        assert effs[-1] <= node.eff_max

    def test_small_batch_efficiency_drop(self):
        """DeepBench (paper SII-A): minibatch 4-16 lands at 20-30 % of peak
        for deep-layer GEMM shapes; batch 1-2 is worse."""
        node = KNLNodeModel()
        assert node.conv_efficiency(2, 1152) < 0.5 * node.conv_efficiency(
            32, 1152)

    def test_shallow_channels_hurt(self):
        node = KNLNodeModel()
        # HEP conv1 (3 ch x 9) vs deep conv (128 ch x 9)
        assert node.conv_efficiency(8, 27) < 0.5 * node.conv_efficiency(
            8, 1152)

    def test_efficiency_validation(self):
        node = KNLNodeModel()
        with pytest.raises(ValueError):
            node.conv_efficiency(0, 100)
        with pytest.raises(ValueError):
            node.conv_efficiency(8, 0)


class TestSolverOverhead:
    def test_adam_costlier_than_sgd(self):
        m = SolverOverheadModel()
        assert m.time(10**6, 6, "adam") > m.time(10**6, 6, "sgd")

    def test_scales_with_params(self):
        m = SolverOverheadModel()
        assert m.time(10**8, 17, "sgd") > m.time(10**6, 17, "sgd")

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            SolverOverheadModel().time(10, 1, "rmsprop")


class TestIOModel:
    def test_small_reads_fast(self):
        io = IOModel()
        assert io.rate(10**6) == io.cached_rate

    def test_large_reads_stream(self):
        io = IOModel()
        big = io.rate(10**9)
        assert big < io.cached_rate
        assert big > io.streaming_rate  # partially cached

    def test_time_monotone(self):
        io = IOModel()
        assert io.time(10**9) > io.time(10**6)
        assert io.time(0) == 0.0


class TestNetwork:
    def test_jitter_disabled_deterministic(self):
        net = AriesNetwork(jitter_sigma0=0.0, jitter_scale=0.0, seed=0)
        a = net.allreduce(10**6, 64)
        b = net.allreduce(10**6, 64)
        assert a == b

    def test_jitter_grows_with_participants(self):
        net = AriesNetwork(seed=0)
        small = [net.jitter(2) for _ in range(500)]
        large = [net.jitter(4096) for _ in range(500)]
        assert np.std(large) > np.std(small)

    def test_jitter_factor_near_one_median(self):
        net = AriesNetwork(seed=0)
        vals = [net.jitter(64) for _ in range(500)]
        assert np.median(vals) == pytest.approx(1.0, abs=0.1)

    def test_endpoints(self):
        net = AriesNetwork(seed=0, jitter_sigma0=0, jitter_scale=0)
        fast = net.with_endpoints(2.0)
        assert fast.allreduce(10**8, 16) < net.allreduce(10**8, 16)


class TestTopology:
    def test_electrical_groups(self):
        topo = DragonflyTopology()
        assert topo.electrical_group(0) == 0
        assert topo.electrical_group(383) == 0
        assert topo.electrical_group(384) == 1

    def test_compact_placement_minimizes_spread(self):
        topo = DragonflyTopology()
        p = topo.place(n_workers=384, n_groups=1, compact=True)
        assert topo.spread(p.group_nodes[0]) <= 2

    def test_scattered_placement_spreads(self):
        topo = DragonflyTopology()
        rng = np.random.default_rng(0)
        p = topo.place(n_workers=384, n_groups=1, compact=False, rng=rng)
        assert topo.spread(p.group_nodes[0]) > 5

    def test_scattered_costs_more(self):
        topo = DragonflyTopology()
        rng = np.random.default_rng(0)
        compact = topo.place(512, 2, compact=True)
        scattered = topo.place(512, 2, compact=False, rng=rng)
        assert (topo.allreduce_penalty(scattered.group_nodes[0])
                > topo.allreduce_penalty(compact.group_nodes[0]))

    def test_group_sizes_even(self):
        topo = DragonflyTopology()
        p = topo.place(n_workers=9594, n_groups=9, n_ps=6)
        sizes = [len(g) for g in p.group_nodes]
        assert sum(sizes) == 9594
        assert max(sizes) - min(sizes) <= 1
        assert p.n_nodes == 9600

    def test_no_double_assignment(self):
        topo = DragonflyTopology()
        p = topo.place(100, 4, n_ps=3)
        p.validate()

    def test_oversubscription_raises(self):
        topo = DragonflyTopology(n_nodes=100)
        with pytest.raises(ValueError):
            topo.place(101, 1)


class TestFailures:
    def test_straggler_max_grows_with_group(self):
        s = StragglerModel(seed=0)
        assert s.group_slowdown(4096) > s.group_slowdown(4) >= 1.0

    def test_zero_sigma_no_slowdown(self):
        s = StragglerModel(sigma_node=0, sigma_iter=0, seed=0)
        np.testing.assert_array_equal(s.node_factors(10), np.ones(10))

    def test_failure_rate_scales_with_nodes(self):
        f = FailureModel(seed=0)
        assert f.rate_per_second(9600) == pytest.approx(
            9600 / (5e4 * 3600))

    def test_sync_survival_drops_with_scale(self):
        """Paper SVIII-A: single node failure kills a sync run — survival
        probability falls with allocation size."""
        f = FailureModel(seed=0)
        day = 24 * 3600.0
        assert f.survival_probability(9600, day) < \
            f.survival_probability(100, day)

    def test_sample_events_within_duration(self):
        f = FailureModel(mtbf_node_hours=10.0, seed=0)
        events = f.sample_events(1000, 3600.0)
        assert all(0 <= e.time < 3600.0 for e in events)
        assert len(events) > 0

    def test_event_kinds(self):
        f = FailureModel(mtbf_node_hours=1.0, degrade_fraction=1.0, seed=0)
        events = f.sample_events(100, 3600.0)
        assert all(e.kind == "degrade" for e in events)

    @pytest.mark.parametrize("args, what", [
        ((float("nan"), 0, "fail"), "time"),
        ((float("inf"), 0, "fail"), "time"),
        ((-1.0, 0, "fail"), "time"),
        ((1.0, -3, "fail"), "node_id"),
        ((1.0, 0, "degrade", float("nan")), "slow_factor"),
        ((1.0, 0, "degrade", float("inf")), "slow_factor"),
        ((1.0, 0, "fail", float("nan")), "slow_factor"),
    ])
    def test_failure_event_rejects_nonsense(self, args, what):
        """A NaN time used to construct and then fall silently through the
        autoscaler's window filter; a NaN slow factor passed `< 1.0`."""
        with pytest.raises(ValueError, match=what):
            FailureEvent(*args)

    def test_autoscaling_simulator_surfaces_a_bad_failure_event(self):
        from repro.serve import AutoscalingSimulator
        from repro.sim import hep_workload
        with pytest.raises(ValueError, match="time"):
            AutoscalingSimulator(
                hep_workload(),
                failure_events=[FailureEvent(1.0, 0, "fail"),
                                FailureEvent(float("nan"), 1, "fail")])


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        seen = []
        q.schedule(2.0, lambda: seen.append("b"))
        q.schedule(1.0, lambda: seen.append("a"))
        q.schedule(3.0, lambda: seen.append("c"))
        q.run()
        assert seen == ["a", "b", "c"]
        assert q.now == 3.0

    def test_fifo_tiebreak(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: seen.append(1))
        q.schedule(1.0, lambda: seen.append(2))
        q.run()
        assert seen == [1, 2]

    def test_actions_can_schedule(self):
        q = EventQueue()
        seen = []

        def recurse():
            if len(seen) < 3:
                seen.append(q.now)
                q.schedule(1.0, recurse)

        q.schedule(0.0, recurse)
        q.run()
        assert seen == [0.0, 1.0, 2.0]

    def test_run_until(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run(until=2.0)
        assert q.now == 2.0
        assert not q.empty()

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_at(0.5, lambda: None)

    def test_event_budget(self):
        q = EventQueue()

        def forever():
            q.schedule(1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)


class TestCoriFactory:
    def test_default_size(self):
        assert cori(seed=0).n_nodes == CORI_NODES

    def test_no_jitter_mode(self):
        m = cori(seed=0, jitter=False)
        assert m.network.jitter_sigma0 == 0.0
        assert m.stragglers.sigma_iter == 0.0

    def test_custom_size_rebuilds_topology(self):
        m = cori(seed=0, n_nodes=128)
        assert m.topology.n_nodes == 128
