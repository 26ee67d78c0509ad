"""Full-machine headline accounting (SVI-B3) — quick bands.

The benchmark harness runs the full configuration; here we exercise the
accounting logic with a smaller machine so the tests stay fast, plus one
full-scale smoke with wide tolerance.
"""

import numpy as np
import pytest

from repro.sim.headline import (
    HeadlineResult,
    checkpoint_time,
    climate_headline,
    headline_run,
    hep_headline,
)
from repro.sim.workload import climate_workload, hep_workload
from repro.utils.units import PFLOPS


class TestCheckpointTime:
    def test_scales_with_model(self):
        assert checkpoint_time(300 * 2**20) > checkpoint_time(2 * 2**20)

    def test_climate_snapshot_seconds(self):
        # ~302 MiB at the slow single-threaded write path: O(10 s)
        t = checkpoint_time(climate_workload().model_bytes)
        assert 5.0 < t < 30.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            checkpoint_time(-1)


class TestHeadlineAccounting:
    def test_small_machine_run(self):
        res = headline_run(hep_workload(), n_workers=256, n_ps=4,
                           n_groups=4, local_batch=8, n_iterations=12,
                           checkpoint_every=6, seed=0)
        assert res.peak_flops > res.sustained_flops > 0
        assert res.mean_iteration_time > 0
        assert 0 < res.speedup_vs_single_node <= 256 * 1.5

    def test_sustained_includes_checkpoint_overhead(self):
        often = headline_run(hep_workload(), n_workers=128, n_ps=2,
                             n_groups=2, local_batch=8, n_iterations=12,
                             checkpoint_every=2, seed=0)
        rarely = headline_run(hep_workload(), n_workers=128, n_ps=2,
                              n_groups=2, local_batch=8, n_iterations=12,
                              checkpoint_every=12, seed=0)
        assert often.sustained_flops < rarely.sustained_flops

    def test_hep_full_scale_band(self):
        """Peak 11.73 / sustained 11.41 PF/s, generous band."""
        res = hep_headline(seed=0, n_iterations=15)
        assert res.peak_flops / PFLOPS == pytest.approx(11.73, rel=0.3)
        assert res.sustained_flops / PFLOPS == pytest.approx(11.41,
                                                             rel=0.3)

    def test_climate_full_scale_band(self):
        res = climate_headline(seed=0, n_iterations=12)
        assert res.peak_flops / PFLOPS == pytest.approx(15.07, rel=0.35)

    def test_a_run_shorter_than_the_window_is_refused(self):
        """One group's 5 iterations never filled the 10-wide sustained
        window, so the sustained rate read 0.0 beside a 1.29e14 peak."""
        with pytest.raises(ValueError,
                           match="n_iterations .* checkpoint_every"):
            headline_run(hep_workload(), n_workers=96, n_ps=2, n_groups=3,
                         n_iterations=5, checkpoint_every=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            headline_run(hep_workload(), n_workers=64, n_ps=2, n_groups=2,
                         local_batch=8, checkpoint_every=0)
