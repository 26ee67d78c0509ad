"""Extreme-weather event signatures planted into background fields.

Each event type writes a physically-coupled multi-channel signature and
reports its ground-truth bounding box:

- :class:`TropicalCyclone` — compact warm-core vortex: deep PSL minimum,
  cyclonic winds (tangential velocity peaking at the radius of maximum
  wind), saturated TMQ core, heavy precipitation;
- :class:`ExtraTropicalCyclone` — larger, weaker, asymmetric vortex at
  higher latitudes;
- :class:`AtmosphericRiver` — a long, narrow filament of high TMQ with
  along-band winds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.climate.fields import channel_index
from repro.models.bbox import Box
from repro.utils.checks import require_real
from repro.utils.rng import SeedLike, as_rng


class WeatherEvent:
    """Base class: subclasses implement :meth:`imprint`."""

    #: class id used in detection targets
    class_id: int = 0
    #: human-readable name
    name: str = "event"

    def __post_init__(self) -> None:
        # a position or an angle is any finite number; a size or an
        # intensity is positive
        for f in dataclasses.fields(self):
            require_real(f.name, getattr(self, f.name),
                         "(-inf, inf)" if f.name in ("cy", "cx", "angle")
                         else "(0, inf)")

    def imprint(self, fields: np.ndarray,
                rng: np.random.Generator) -> Box:
        """Write the signature into ``fields`` (C, H, W); return the box."""
        raise NotImplementedError


def _grid(h: int, w: int, cy: float, cx: float):
    ys = np.arange(h)[:, None] - cy
    xs = np.arange(w)[None, :] - cx
    return ys, xs


def _add(fields: np.ndarray, channel: str, patch: np.ndarray) -> None:
    """Add a signature to one channel; silently skip channels not present
    (scaled-down datasets keep only the first k CAM5 channels)."""
    idx = channel_index(channel)
    if idx < fields.shape[0]:
        fields[idx] += patch.astype(np.float32)


@dataclass
class TropicalCyclone(WeatherEvent):
    cy: float
    cx: float
    radius: float            # radius of maximum wind, pixels
    intensity: float = 1.0   # 1.0 ~ category 3

    class_id = 0
    name = "tropical_cyclone"

    def imprint(self, fields: np.ndarray,
                rng: np.random.Generator) -> Box:
        _c, h, w = fields.shape
        ys, xs = _grid(h, w, self.cy, self.cx)
        r = np.hypot(ys, xs) + 1e-9
        core = np.exp(-0.5 * (r / self.radius) ** 2)
        # Rankine-like tangential wind profile peaking at `radius`.
        v_t = (r / self.radius) * np.exp(1.0 - r / self.radius)
        v_t *= 14.0 * self.intensity
        u = -v_t * ys / r     # cyclonic (counter-clockwise, NH)
        v = v_t * xs / r
        _add(fields, "U850", u)
        _add(fields, "V850", v)
        _add(fields, "UBOT", 0.8 * u)
        _add(fields, "VBOT", 0.8 * v)
        _add(fields, "PSL", -30.0 * self.intensity * core)
        _add(fields, "PS", -28.0 * self.intensity * core)
        _add(fields, "TMQ", 28.0 * self.intensity * core)
        _add(fields, "QREFHT", 0.008 * self.intensity * core)
        _add(fields, "PRECT", 7.0 * self.intensity * core)
        _add(fields, "TS", 2.0 * self.intensity * core)       # warm core
        _add(fields, "T500", 3.0 * self.intensity * core)
        _add(fields, "OMEGA500", -0.3 * self.intensity * core)  # ascent
        half = 2.8 * self.radius
        return Box(x=self.cx - half, y=self.cy - half,
                   w=2 * half, h=2 * half, class_id=self.class_id)


@dataclass
class ExtraTropicalCyclone(WeatherEvent):
    cy: float
    cx: float
    radius: float
    intensity: float = 1.0

    class_id = 1
    name = "extratropical_cyclone"

    def imprint(self, fields: np.ndarray,
                rng: np.random.Generator) -> Box:
        _c, h, w = fields.shape
        ys, xs = _grid(h, w, self.cy, self.cx)
        # Asymmetric (elliptical, tilted) broad vortex with a cold front.
        angle = float(rng.uniform(0, np.pi))
        ca, sa = np.cos(angle), np.sin(angle)
        ye = ca * ys + sa * xs
        xe = -sa * ys + ca * xs
        r = np.hypot(ye / 1.4, xe) + 1e-9
        core = np.exp(-0.5 * (r / self.radius) ** 2)
        v_t = (r / self.radius) * np.exp(1.0 - r / self.radius)
        v_t *= 8.0 * self.intensity
        u = -v_t * ys / np.hypot(ys, xs + 1e-9)
        v = v_t * xs / np.hypot(ys, xs + 1e-9)
        _add(fields, "U850", u)
        _add(fields, "V850", v)
        _add(fields, "PSL", -18.0 * self.intensity * core)
        _add(fields, "PS", -16.0 * self.intensity * core)
        _add(fields, "TMQ", 10.0 * self.intensity * core)
        _add(fields, "TS", -3.0 * self.intensity * core)      # cold core
        _add(fields, "T500", -2.5 * self.intensity * core)
        _add(fields, "PRECT", 2.5 * self.intensity * core)
        half = 2.6 * self.radius
        return Box(x=self.cx - half, y=self.cy - half,
                   w=2 * half, h=2 * half, class_id=self.class_id)


@dataclass
class AtmosphericRiver(WeatherEvent):
    cy: float                 # band anchor point
    cx: float
    length: float             # pixels
    width: float              # band half-width, pixels
    angle: float = 0.6        # radians from the x-axis
    intensity: float = 1.0

    class_id = 2
    name = "atmospheric_river"

    def imprint(self, fields: np.ndarray,
                rng: np.random.Generator) -> Box:
        _c, h, w = fields.shape
        ys, xs = _grid(h, w, self.cy, self.cx)
        ca, sa = np.cos(self.angle), np.sin(self.angle)
        along = ca * xs + sa * ys          # distance along the band
        across = -sa * xs + ca * ys        # distance across
        # Gentle sinusoidal meander so the band is not a straight line.
        meander = 0.15 * self.length * np.sin(
            2 * np.pi * along / max(1.0, self.length))
        band = (np.exp(-0.5 * ((across - meander * 0.2) / self.width) ** 2)
                * (np.abs(along) < self.length / 2))
        _add(fields, "TMQ", 22.0 * self.intensity * band)
        _add(fields, "QREFHT", 0.006 * self.intensity * band)
        _add(fields, "PRECT", 3.0 * self.intensity * band)
        _add(fields, "U850", 9.0 * self.intensity * ca * band)
        _add(fields, "V850", 9.0 * self.intensity * sa * band)
        # Bounding box of the band support.
        half_l = self.length / 2
        ex = abs(ca) * half_l + 2.2 * self.width * abs(sa)
        ey = abs(sa) * half_l + 2.2 * self.width * abs(ca)
        return Box(x=self.cx - ex, y=self.cy - ey, w=2 * ex, h=2 * ey,
                   class_id=self.class_id)
