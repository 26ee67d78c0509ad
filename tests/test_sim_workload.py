"""Workload descriptors and scaling-point bookkeeping."""

import numpy as np
import pytest

from repro.sim.scaling import ScalingPoint
from repro.sim.workload import Workload, climate_workload, hep_workload


class TestWorkloadInvariants:
    def test_model_bytes_equals_layer_sum(self):
        wl = hep_workload()
        assert wl.model_bytes == sum(wl.trainable_layer_bytes)

    def test_sync_points_equal_trainable_layers(self):
        assert hep_workload().sync_points == 6
        assert climate_workload().sync_points == 17

    def test_input_bytes(self):
        wl = hep_workload()
        assert wl.input_bytes(8) == 4 * 8 * 3 * 224 * 224

    def test_activation_bytes_scale_with_batch(self):
        wl = climate_workload()
        assert wl.activation_bytes(8) == 8 * wl.activation_bytes(1)

    def test_report_invalid_batch(self):
        with pytest.raises(ValueError):
            hep_workload().report(0)

    def test_hep_layer_bytes_dominated_by_deep_convs(self):
        """The 128->128 convs carry ~590 KB each (the payload the paper's
        SVI-B2 all-reduce analysis quotes)."""
        wl = hep_workload()
        deep = sorted(wl.trainable_layer_bytes)[-4]
        assert deep == pytest.approx(590e3, rel=0.05)

    def test_workloads_cached(self):
        assert hep_workload() is hep_workload()

    def test_climate_records_come_from_undrawn_weights(self):
        """``climate_workload()`` reads shapes, FLOPs and bytes off a net
        whose 75 M weights were never drawn; the numbers are the drawn
        net's (``benchmarks/test_table2_architectures.py`` compares every
        record)."""
        wl = climate_workload()
        assert len(wl.report(1).layers) == 30
        assert wl.n_trainable_layers == 17
        assert wl.model_bytes == 314_977_712
        assert wl.report(1).forward_flops == 891_645_511_680

    def test_undrawn_weights_are_zero_and_scoped(self):
        from repro.core.initializers import he_normal, undrawn, xavier_uniform
        with undrawn():
            assert not he_normal((3, 4), 4, 0).any()
            assert not xavier_uniform((3, 4), 4, 3, 0).any()
            with pytest.raises(ValueError):
                he_normal((3, 4), 0)        # still validated
        assert he_normal((3, 4), 4, 0).any()
        assert he_normal((3, 4), 4, 0).dtype == np.float32

    def test_climate_model_larger_than_hep(self):
        assert climate_workload().model_bytes > \
            100 * hep_workload().model_bytes


class TestScalingPoint:
    def test_str_renders(self):
        p = ScalingPoint("hep", "hybrid", 4, 1024, 8, 0.1, 1000.0, 580.0)
        s = str(p)
        assert "hybrid-4" in s and "1024" in s and "580" in s

    def test_sync_label(self):
        p = ScalingPoint("hep", "sync", 1, 256, 8, 0.1, 100.0, 200.0)
        assert "sync" in str(p)
