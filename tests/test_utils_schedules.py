"""Timer, unit formatting, viz rendering, LR schedules."""

import numpy as np
import pytest

from repro.optim import ConstantLR, ExponentialDecayLR, StepLR
from repro.utils.timers import Timer
from repro.utils.units import (
    GIB,
    MIB,
    TB,
    TFLOPS,
    format_bytes,
    format_flops,
)
from repro.utils.viz import ascii_plot


class TestTimer:
    def test_sections_accumulate(self):
        t = Timer()
        t.add("conv", 0.5)
        t.add("conv", 0.25)
        t.add("pool", 0.1)
        assert t.total("conv") == pytest.approx(0.75)
        assert t.count("conv") == 2
        assert sorted(t.names()) == ["conv", "pool"]

    def test_context_manager_records(self):
        t = Timer()
        with t.section("work"):
            sum(range(1000))
        assert t.total("work") > 0
        assert t.count("work") == 1

    def test_unknown_name_is_zero(self):
        t = Timer()
        assert t.total("nope") == 0.0
        assert t.count("nope") == 0

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError, match="seconds must be >= 0"):
            Timer().add("x", -1.0)

    def test_reset(self):
        t = Timer()
        t.add("x", 1.0)
        t.reset()
        assert t.as_dict() == {}


class TestUnits:
    def test_paper_model_sizes(self):
        # Table II anchors.
        assert format_bytes(2.3 * MIB) == "2.30 MiB"
        assert format_bytes(302.1 * MIB) == "302.10 MiB"

    def test_paper_dataset_volumes(self):
        assert format_bytes(15 * TB, binary=False) == "15.00 TB"

    def test_paper_rates(self):
        assert format_flops(1.9 * TFLOPS) == "1.90 TFLOP/s"
        assert format_flops(15.07e15) == "15.07 PFLOP/s"

    def test_byte_rollover(self):
        assert format_bytes(1023) == "1023.00 B"
        assert format_bytes(1024) == "1.00 KiB"
        assert format_bytes(GIB) == "1.00 GiB"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)
        with pytest.raises(ValueError):
            format_flops(-1)


class TestAsciiPlot:
    def test_renders_series_and_legend(self):
        out = ascii_plot({"sync": ([1, 2, 3], [1.0, 0.5, 0.2]),
                          "hybrid": ([1, 2, 3], [1.0, 0.4, 0.1])},
                         width=40, height=10,
                         xlabel="nodes", ylabel="loss")
        assert "sync" in out and "hybrid" in out
        assert "nodes" in out and "loss" in out
        lines = out.splitlines()
        assert len(lines) >= 10

    def test_log_axes(self):
        out = ascii_plot({"s": ([1, 10, 100, 1000], [1, 10, 100, 1000])},
                         width=40, height=10, logx=True, logy=True)
        assert isinstance(out, str) and out

    def test_single_point_series(self):
        out = ascii_plot({"p": ([1.0], [2.0])}, width=30, height=8)
        assert isinstance(out, str)


class TestSchedules:
    def test_constant(self):
        s = ConstantLR(0.1)
        assert s(0) == s(10_000) == 0.1

    def test_step_decay_boundaries(self):
        s = StepLR(1.0, step_size=10, gamma=0.5)
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(20) == 0.25

    def test_exponential_continuity(self):
        s = ExponentialDecayLR(1.0, decay=0.5, decay_steps=10)
        assert s(10) == pytest.approx(0.5)
        assert s(5) == pytest.approx(0.5**0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            StepLR(0.1, step_size=0)
        with pytest.raises(ValueError):
            ExponentialDecayLR(0.1, decay=1.5, decay_steps=10)
        with pytest.raises(ValueError):
            StepLR(0.1, step_size=5)(-1)
