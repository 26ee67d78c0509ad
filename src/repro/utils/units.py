"""Unit constants and human-readable formatting for bytes, FLOP rates, time.

The paper reports quantities in MiB (model sizes), TB (datasets), TFLOP/s
(single node) and PFLOP/s (full machine); keeping the conversions in one
place avoids factor-of-1024-vs-1000 mistakes when calibrating the machine
model against the paper's numbers.
"""

from __future__ import annotations

from repro.utils.checks import require_real

# Decimal (SI) units -- used for FLOP rates and dataset volumes, matching the
# paper's usage ("15 PFLOP/s", "15TB").
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12
PB = 1e15

# Binary units -- used for model/parameter sizes ("2.3MiB", "302.1 MiB").
KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3

TFLOPS = 1e12
PFLOPS = 1e15


def format_bytes(n: float, binary: bool = True) -> str:
    """Format a byte count, e.g. ``format_bytes(2.4e6)`` -> ``'2.29 MiB'``."""
    require_real("n", n, "[0, inf)")
    base = 1024.0 if binary else 1000.0
    units = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"] if binary else [
        "B", "KB", "MB", "GB", "TB", "PB"]
    value = float(n)
    for unit in units:
        if value < base or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= base
    raise AssertionError("unreachable")


def format_flops(rate: float) -> str:
    """Format a FLOP/s rate, e.g. ``format_flops(1.5e13)`` -> ``'15.00 TFLOP/s'``."""
    require_real("rate", rate, "[0, inf)")
    for unit, scale in (("PFLOP/s", PFLOPS), ("TFLOP/s", TFLOPS),
                        ("GFLOP/s", 1e9), ("MFLOP/s", 1e6)):
        if rate >= scale:
            return f"{rate / scale:.2f} {unit}"
    return f"{rate:.2f} FLOP/s"


def format_time(seconds: float) -> str:
    """Format a duration with an appropriate unit (us/ms/s/min)."""
    require_real("seconds", seconds, "[0, inf)")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.2f} min"
