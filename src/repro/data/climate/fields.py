"""Background climate-field synthesis.

Sixteen channels named after the CAM5 variables the source work [13, 36]
used (integrated water vapour TMQ, wind components at the surface and
850 hPa, sea-level pressure PSL, temperatures, precipitation, geopotential
heights). Backgrounds are smooth random fields built by spectrally filtered
noise with channel-specific correlation lengths, a meridional (latitude)
gradient, and physically-motivated cross-channel correlations (pressure and
temperature anticorrelate; winds are the rotational part of a streamfunction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, as_rng

#: the 16 channels (CAM5 variable names)
CHANNELS: Tuple[str, ...] = (
    "TMQ", "U850", "V850", "UBOT", "VBOT", "PSL", "PS", "T200",
    "T500", "TS", "TREFHT", "QREFHT", "PRECT", "Z100", "Z200", "OMEGA500",
)

#: per-channel (mean, std, correlation length as fraction of height)
_CHANNEL_STATS: Dict[str, Tuple[float, float, float]] = {
    "TMQ": (20.0, 8.0, 0.08),
    "U850": (0.0, 8.0, 0.10),
    "V850": (0.0, 8.0, 0.10),
    "UBOT": (0.0, 6.0, 0.09),
    "VBOT": (0.0, 6.0, 0.09),
    "PSL": (1013.0, 8.0, 0.15),
    "PS": (1000.0, 9.0, 0.15),
    "T200": (220.0, 4.0, 0.12),
    "T500": (260.0, 5.0, 0.12),
    "TS": (288.0, 10.0, 0.10),
    "TREFHT": (287.0, 10.0, 0.10),
    "QREFHT": (0.01, 0.004, 0.08),
    "PRECT": (2.0, 1.5, 0.05),
    "Z100": (16000.0, 120.0, 0.15),
    "Z200": (12000.0, 110.0, 0.15),
    "OMEGA500": (0.0, 0.08, 0.06),
}


def channel_index(name: str) -> int:
    try:
        return CHANNELS.index(name)
    except ValueError:
        raise KeyError(f"unknown channel {name!r}; have {CHANNELS}") from None


@dataclass
class FieldGenerator:
    """Generator of (C, H, W) background fields."""

    height: int = 96
    width: int = 96
    n_channels: int = 16
    seed: SeedLike = None

    def __post_init__(self) -> None:
        require_count("height", self.height, least=16)
        require_count("width", self.width, least=16)
        if require_count("n_channels", self.n_channels) > len(CHANNELS):
            raise ValueError(f"n_channels must be <= {len(CHANNELS)}, "
                             f"got {self.n_channels}")
        self._rng = as_rng(self.seed)

    def _smooth_noise(self, corr_frac: float,
                      rng: np.random.Generator) -> np.ndarray:
        """Unit-variance smooth noise with correlation length corr_frac*H."""
        from scipy import ndimage   # at first use: see nn/fft_conv.py
        raw = rng.normal(size=(self.height, self.width))
        sigma = max(1.0, corr_frac * self.height)
        smooth = ndimage.gaussian_filter(raw, sigma, mode="wrap")
        std = smooth.std()
        return smooth / std if std > 0 else smooth

    def background(self) -> np.ndarray:
        """One (C, H, W) float32 background sample."""
        rng = self._rng
        h, w = self.height, self.width
        out = np.zeros((self.n_channels, h, w), dtype=np.float32)
        # Shared latent structure: a streamfunction for the winds and a
        # thermal field coupling temperatures/pressure.
        psi = self._smooth_noise(0.12, rng)
        thermal = self._smooth_noise(0.14, rng)
        # Latitude axis: y=0 is the south edge; meridional gradients.
        lat = np.linspace(-1.0, 1.0, h)[:, None]
        gy, gx = np.gradient(psi)
        for c in range(self.n_channels):
            name = CHANNELS[c]
            mean, std, corr = _CHANNEL_STATS[name]
            base = self._smooth_noise(corr, rng)
            field = 0.7 * base
            if name in ("U850", "UBOT"):
                field += 2.0 * (-gy) / max(1e-9, np.abs(gy).std())
                field += 0.8 * (1.0 - lat * lat) * 0.5  # jet-like mean flow
            elif name in ("V850", "VBOT"):
                field += 2.0 * gx / max(1e-9, np.abs(gx).std())
            elif name in ("PSL", "PS", "Z100", "Z200"):
                field += -1.2 * thermal
            elif name in ("TS", "TREFHT", "T500", "T200"):
                field += 1.2 * thermal - 1.5 * np.abs(lat)
            elif name in ("TMQ", "QREFHT", "PRECT"):
                field += 0.9 * thermal + 1.0 * (1.0 - np.abs(lat))
            out[c] = (mean + std * field).astype(np.float32)
        return out

    def normalize(self, fields: np.ndarray) -> np.ndarray:
        """Standardize each channel to ~zero mean / unit variance using the
        nominal channel statistics (what the training pipeline feeds the
        network)."""
        if fields.ndim not in (3, 4):
            raise ValueError(f"expected (C,H,W) or (N,C,H,W), got "
                             f"{fields.shape}")
        single = fields.ndim == 3
        arr = fields[None] if single else fields
        out = np.empty_like(arr, dtype=np.float32)
        for c in range(arr.shape[1]):
            mean, std, _ = _CHANNEL_STATS[CHANNELS[c]]
            out[:, c] = (arr[:, c] - mean) / (3.0 * std)
        return out[0] if single else out
