"""Event imaging: jets -> 3-channel calorimeter images (paper SI-A).

Channel 0: electromagnetic-calorimeter energy; channel 1: hadronic
calorimeter energy; channel 2: track counts — "the energy deposited in the
electromagnetic and hadronic calorimeters, and the number of tracks formed
from the inner detector in that region". The image spans the full detector
(|eta| < 2.5, phi in [-pi, pi]); each jet (and each of its substructure
prongs) deposits a Gaussian splat at calorimeter-tower resolution.

:class:`EventImager` adds one deposit slot of every event at once; its
docstring says how, and why the bytes are those of one splat at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.data.hep.generator import ETA_MAX, Event
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: pixels per image channel in a chunk: its canvas stays near a MiB at any
#: image size
_CHUNK_PIXELS = 1 << 16


@dataclass
class EventImager:
    """Rasterize events onto (3, size, size) float32 images.

    The n-th (jet, prong) splat of an event is its deposit *slot* n. Slot n
    of every event in a chunk is one scatter-add of the whole ``(2k+1)²``
    stamp (its rows folded mod ``size`` where it is taller than the image)
    into all three channels, on a canvas padded by ``k`` columns at
    each eta edge (no splat is cropped while it is added) whose phi rows
    wrap mod ``size``. Chunks are copied, unpadded, into the one output;
    then each image draws its noise, one ``rng.normal`` call as before (a
    chunk-wide call draws the same stream, but its MiB-sized temporaries
    ran slower and left the allocator holding memory). The bytes are
    those of one splat at a time: an event's slots are added in order,
    each as ``float32(float64 pixel + amount * stamp)``, and one slot's
    scatter touches each of an event's pixels once.
    """

    size: int = 224
    jet_radius: float = 0.12          # splat sigma in (eta, phi) units
    noise_level: float = 0.3          # calo electronic noise (GeV/tower)
    pt_scale: float = 100.0           # normalization: pixel = pt / pt_scale
    seed: SeedLike = None

    def __post_init__(self) -> None:
        self.size = require_count("size", self.size, least=8)
        self.jet_radius = require_real("jet_radius", self.jet_radius,
                                       "(0, inf)")
        self.noise_level = require_real("noise_level", self.noise_level,
                                        "[0, inf)")
        self.pt_scale = require_real("pt_scale", self.pt_scale, "(0, inf)")
        self._rng = as_rng(self.seed)
        # Splat stamp: (2k+1)^2 Gaussian kernel in pixel units.
        self._sigma_px_eta = self.jet_radius / (2 * ETA_MAX) * self.size
        self._sigma_px_phi = self.jet_radius / (2 * np.pi) * self.size
        k = max(2, int(np.ceil(3 * max(self._sigma_px_eta,
                                       self._sigma_px_phi))))
        self._half = k
        ys, xs = np.mgrid[-k:k + 1, -k:k + 1]
        self._stamp = np.exp(-0.5 * ((xs / self._sigma_px_eta) ** 2
                                     + (ys / self._sigma_px_phi) ** 2))
        self._stamp /= self._stamp.sum()
        if 2 * k + 1 > self.size:
            # A stamp taller than the image covers a phi row twice: fold its
            # rows mod size once, so each pixel gets every hit in one add.
            folded = np.zeros((self.size, 2 * k + 1))
            np.add.at(folded, np.arange(2 * k + 1) % self.size, self._stamp)
            self._stamp = folded
        self._chunk = max(1, _CHUNK_PIXELS // self.size ** 2)

    def _splat(self, canvas: np.ndarray, events: Sequence[Event]) -> None:
        """Add every deposit of ``events`` to their padded, channel-last
        ``canvas`` (event, phi row, eta column, channel)."""
        size, k = self.size, self._half
        d = np.array([(i, jet.pt, jet.eta, jet.phi, jet.em_frac,
                       jet.n_tracks, frac, d_eta, d_phi)
                      for i, ev in enumerate(events) for jet in ev.jets
                      for frac, d_eta, d_phi in jet.prongs],
                     dtype=np.float64).reshape(-1, 9)
        if not np.isfinite(d).all():
            raise ValueError("a jet or prong of the events is not finite")
        ev, pt, eta, phi, em, n_tracks, frac, d_eta, d_phi = d.T
        ev = ev.astype(np.intp)
        eta = np.clip(eta + d_eta, -ETA_MAX, ETA_MAX)
        x = np.rint((eta + ETA_MAX) / (2 * ETA_MAX) * (size - 1))
        # fmod first (exact), so any finite phi's row fits an intp
        y = np.fmod(np.rint((phi + d_phi + np.pi) / (2 * np.pi) * (size - 1)),
                    size)
        pt = pt * frac / self.pt_scale
        amount = np.stack([pt * em, pt * (1.0 - em), frac * n_tracks / 10.0],
                          axis=1)
        # a stamp row of a deposit is one run of (2k+1) * 3 floats in the
        # flat canvas: its first column's three channels, then the next's
        run, tall = 3 * (2 * k + 1), len(self._stamp)
        rows = (y.astype(np.intp)[:, None] + np.arange(-k, tall - k)) % size
        at = ((ev[:, None] * size + rows) * canvas.shape[2]
              + x.astype(np.intp)[:, None]) * 3
        add = (amount[:, None, None, :] * self._stamp[:, :, None]).reshape(
            len(d), tall, run)
        runs = as_strided(canvas.reshape(-1), (canvas.size - run + 1, run),
                          (canvas.itemsize,) * 2, writeable=True)
        # slot n of every event at once: deposit starts[e] + n of each event
        # e with more than n deposits
        counts = np.bincount(ev, minlength=len(events)).tolist()
        starts = list(accumulate(counts, initial=0))
        for n in range(max(counts)):
            slot = [s + n for s, c in zip(starts, counts) if c > n]
            runs[at[slot]] += add[slot]

    # -- public API -------------------------------------------------------------
    def image(self, event: Event) -> np.ndarray:
        """Render one event to a (3, size, size) image."""
        return self.images([event])[0]

    def images(self, events: Sequence[Event]) -> np.ndarray:
        """Render a batch: (N, 3, size, size)."""
        size, k = self.size, self._half
        out = np.zeros((len(events), 3, size, size), dtype=np.float32)
        for lo in range(0, len(events), self._chunk):
            part = out[lo:lo + self._chunk]
            canvas = np.zeros((len(part), size, size + 2 * k, 3),
                              dtype=np.float32)
            self._splat(canvas, events[lo:lo + self._chunk])
            part[...] = canvas[:, :, k:k + size].transpose(0, 3, 1, 2)
        if self.noise_level > 0:
            for img in out:
                noise = self._rng.normal(
                    0.0, self.noise_level / self.pt_scale,
                    size=(2, size, size)).astype(np.float32)
                img[:2] += np.abs(noise)  # rectified electronic noise
        return out
