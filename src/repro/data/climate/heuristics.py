"""Expert-threshold extreme-weather detection (the TECA-style baseline).

The paper motivates its DL approach against the field's standard practice:
"heuristics, and expert-specified multi-variate threshold conditions for
specifying extremes" [10-12] (SI-B). This module implements that baseline —
a tropical-cyclone detector in the style of the TECA/CAM5 criteria:

1. find local sea-level-pressure minima;
2. require a wind-speed maximum nearby exceeding a threshold;
3. require a warm-core temperature anomaly;
4. require high column water vapour;

plus an atmospheric-river detector thresholding elongated TMQ structures.
It produces the same ``(score, Box)`` interface as the network, so the
benchmark can compare the two detectors head-to-head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.climate.fields import channel_index
from repro.models.bbox import Box
from repro.utils.checks import require_count, require_real


@dataclass
class HeuristicTCDetector:
    """Threshold-condition tropical-cyclone detector."""

    psl_drop: float = 8.0          # hPa below the local neighborhood
    wind_min: float = 10.0         # m/s maximum wind within the radius
    warm_core_min: float = 0.5     # K surface-temperature anomaly
    tmq_min: float = 8.0           # kg/m^2 moisture anomaly
    radius: int = 8                # search radius, pixels
    box_scale: float = 2.8         # box half-size = scale * radius

    def __post_init__(self) -> None:
        for name in ("psl_drop", "wind_min", "warm_core_min", "tmq_min"):
            require_real(name, getattr(self, name), "(-inf, inf)")
        require_count("radius", self.radius)
        require_real("box_scale", self.box_scale, "(0, inf)")

    def detect(self, fields: np.ndarray) -> List[Tuple[float, Box]]:
        """Detect TCs in one (C, H, W) raw-unit field."""
        from scipy import ndimage   # at first use: see nn/fft_conv.py
        if fields.ndim != 3:
            raise ValueError(f"expected (C, H, W), got {fields.shape}")
        _c, h, w = fields.shape
        psl = fields[channel_index("PSL")]
        u = fields[channel_index("U850")]
        v = fields[channel_index("V850")]
        ts = fields[channel_index("TS")]
        tmq = fields[channel_index("TMQ")]
        r = self.radius
        size = 2 * r + 1
        # Local PSL minima, measured against the wider neighborhood mean.
        local_min = ndimage.minimum_filter(psl, size=size, mode="nearest")
        neighborhood = ndimage.uniform_filter(psl, size=4 * r + 1,
                                              mode="nearest")
        is_min = (psl == local_min) & (neighborhood - psl >= self.psl_drop)
        speed = np.hypot(u, v)
        max_wind = ndimage.maximum_filter(speed, size=size, mode="nearest")
        ts_anom = ts - ndimage.uniform_filter(ts, size=4 * r + 1,
                                              mode="nearest")
        tmq_anom = tmq - ndimage.uniform_filter(tmq, size=4 * r + 1,
                                                mode="nearest")
        candidates = np.argwhere(is_min
                                 & (max_wind >= self.wind_min)
                                 & (ts_anom >= self.warm_core_min)
                                 & (tmq_anom >= self.tmq_min))
        out: List[Tuple[float, Box]] = []
        half = self.box_scale * self.radius
        for cy, cx in candidates:
            score = float(max_wind[cy, cx] / self.wind_min)
            x0 = max(0.0, cx - half)
            y0 = max(0.0, cy - half)
            bw = min(float(w), cx + half) - x0
            bh = min(float(h), cy + half) - y0
            if bw < 2 or bh < 2:
                continue
            out.append((score, Box(x=x0, y=y0, w=bw, h=bh, class_id=0)))
        out.sort(key=lambda t: -t[0])
        return out


@dataclass
class HeuristicARDetector:
    """Threshold + shape-based atmospheric-river detector (Lavers-style):
    contiguous regions of anomalously high TMQ that are long and thin."""

    tmq_anomaly_min: float = 10.0   # kg/m^2 above the zonal background
    min_length_frac: float = 0.3    # of the domain width
    max_aspect: float = 0.5         # region height/width must be elongated

    def __post_init__(self) -> None:
        require_real("tmq_anomaly_min", self.tmq_anomaly_min, "(-inf, inf)")
        require_real("min_length_frac", self.min_length_frac, "[0, 1]")
        require_real("max_aspect", self.max_aspect, "(0, inf)")

    def detect(self, fields: np.ndarray) -> List[Tuple[float, Box]]:
        from scipy import ndimage   # at first use: see nn/fft_conv.py
        if fields.ndim != 3:
            raise ValueError(f"expected (C, H, W), got {fields.shape}")
        _c, h, w = fields.shape
        tmq = fields[channel_index("TMQ")]
        background = ndimage.uniform_filter(tmq, size=h // 2,
                                            mode="nearest")
        mask = (tmq - background) >= self.tmq_anomaly_min
        labels, n = ndimage.label(mask)
        out: List[Tuple[float, Box]] = []
        for region in range(1, n + 1):
            ys, xs = np.nonzero(labels == region)
            bw = xs.max() - xs.min() + 1.0
            bh = ys.max() - ys.min() + 1.0
            length = max(bw, bh)
            width = min(bw, bh)
            if length < self.min_length_frac * w:
                continue
            if width / length > self.max_aspect:
                continue
            score = float(length / w)
            out.append((score, Box(x=float(xs.min()), y=float(ys.min()),
                                   w=bw, h=bh, class_id=2)))
        out.sort(key=lambda t: -t[0])
        return out


def detect_all(fields_batch: np.ndarray,
               tc: HeuristicTCDetector | None = None,
               ar: HeuristicARDetector | None = None
               ) -> List[List[Tuple[float, Box]]]:
    """Run both heuristic detectors over a (N, C, H, W) raw-unit batch."""
    if fields_batch.ndim != 4:
        raise ValueError(f"expected (N, C, H, W), got {fields_batch.shape}")
    tc = tc or HeuristicTCDetector()
    ar = ar or HeuristicARDetector()
    return [tc.detect(f) + ar.detect(f) for f in fields_batch]
