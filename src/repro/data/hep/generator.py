"""Toy multijet event generator (the Pythia substitute).

Two processes, mirroring the ATLAS multi-jet SUSY search [5] setup:

- **background**: QCD multijet production — few jets with a steeply falling
  p_T spectrum, roughly back-to-back topology, single-core jets;
- **signal**: pair production of heavy resonances cascading to many jets —
  higher multiplicity, harder and more democratic p_T spectrum, more
  isotropic topology, and **two-prong substructure** (each cascade jet is
  really two nearby partons).

The kinematic overlap is tuned so scalar selections (H_T, N_jet) reach a
true-positive rate of roughly 40 % at a false-positive rate of 2e-4 — the
paper's baseline operating point — while the angular/substructure
information leaves headroom for the CNN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: detector acceptance in pseudorapidity
ETA_MAX = 2.5


@dataclass(frozen=True)
class Jet:
    """One jet: transverse momentum (GeV) and direction."""

    pt: float
    eta: float
    phi: float
    #: fraction of energy in the electromagnetic calorimeter
    em_frac: float
    #: charged-track multiplicity
    n_tracks: int
    #: substructure: list of (pt_fraction, d_eta, d_phi) subclusters
    prongs: Tuple[Tuple[float, float, float], ...] = ((1.0, 0.0, 0.0),)

    def __post_init__(self) -> None:
        require_real("pt", self.pt, "(0, inf)")
        require_real("eta", self.eta, "(-inf, inf)")
        require_real("phi", self.phi, "(-inf, inf)")
        require_real("em_frac", self.em_frac, "[0, 1]")


@dataclass
class Event:
    """One collision event."""

    jets: List[Jet]
    is_signal: bool

    @property
    def ht(self) -> float:
        """Scalar sum of jet transverse momenta."""
        return float(sum(j.pt for j in self.jets))

    @property
    def n_jets(self) -> int:
        return len(self.jets)

    def leading_pt(self) -> float:
        return max(j.pt for j in self.jets) if self.jets else 0.0


def _wrap_phi(phi: float) -> float:
    """``phi`` in [-pi, pi), bit for bit as NumPy's ``%`` would wrap it."""
    return (phi + math.pi) % (2 * math.pi) - math.pi


class EventGenerator:
    """Generator of toy signal/background events."""

    def __init__(self,
                 bkg_njet_mean: float = 1.8,
                 sig_njet_mean: float = 11.0,
                 bkg_pt_scale: float = 55.0,
                 pt_min: float = 40.0,
                 sig_resonance_mass: float = 850.0,
                 sig_mass_sigma: float = 0.25,
                 sig_prong_dr: float = 0.35,
                 seed: SeedLike = None) -> None:
        self.bkg_njet_mean = require_real("bkg_njet_mean", bkg_njet_mean,
                                          "[0, inf)")
        # the cascade draws poisson(sig_njet_mean - 3) extra jets
        self.sig_njet_mean = require_real("sig_njet_mean", sig_njet_mean,
                                          "[3, inf)")
        self.bkg_pt_scale = require_real("bkg_pt_scale", bkg_pt_scale,
                                         "(0, inf)")
        self.pt_min = require_real("pt_min", pt_min, "(0, inf)")
        self.sig_resonance_mass = require_real(
            "sig_resonance_mass", sig_resonance_mass, "(0, inf)")
        self.sig_mass_sigma = require_real("sig_mass_sigma", sig_mass_sigma,
                                           "(0, inf)")
        self.sig_prong_dr = require_real("sig_prong_dr", sig_prong_dr,
                                         "[0, inf)")
        self._rng = as_rng(seed)

    # -- background ----------------------------------------------------------
    def _background_event(self) -> Event:
        rng = self._rng
        n = 2 + rng.poisson(self.bkg_njet_mean)
        # Steeply falling (exponential-tailed) p_T spectrum: after the
        # trigger-level pre-selection the surviving QCD spectrum falls like
        # exp(-pt/scale), which bounds the far tail the low-FPR working
        # point probes.
        pts = self.pt_min + rng.exponential(self.bkg_pt_scale, size=n)
        # QCD topology: a leading back-to-back pair plus soft radiation.
        phi0 = rng.uniform(-np.pi, np.pi)
        phis = np.empty(n)
        phis[0] = phi0
        if n > 1:
            phis[1] = _wrap_phi(phi0 + math.pi + rng.normal(0, 0.4))
        if n > 2:
            phis[2:] = rng.uniform(-np.pi, np.pi, n - 2)
        etas = rng.normal(0.0, 1.2, n).clip(-ETA_MAX, ETA_MAX)
        jets = []
        for i in range(n):
            jets.append(Jet(
                pt=float(pts[i]), eta=float(etas[i]), phi=float(phis[i]),
                em_frac=float(rng.beta(4.0, 4.0)),
                n_tracks=int(2 + rng.poisson(0.04 * pts[i])),
            ))
        return Event(jets=jets, is_signal=False)

    # -- signal --------------------------------------------------------------
    def _signal_event(self) -> Event:
        rng = self._rng
        # Cascade decays of the resonance pair: high multiplicity
        # (the ATLAS search's >= 8-10 jet signal regions [5]).
        n = max(4, 3 + rng.poisson(self.sig_njet_mean - 3))
        # Democratic p_T sharing of the resonance-pair energy (Dirichlet),
        # smeared; total scale set by the resonance mass.
        total = self.sig_resonance_mass * rng.lognormal(
            0.0, self.sig_mass_sigma)
        shares = rng.dirichlet(np.full(n, 2.5))
        pts = np.maximum(total * shares, self.pt_min * 0.8)
        # Isotropic topology (cascade decays wash out the dijet axis).
        phis = rng.uniform(-np.pi, np.pi, n)
        etas = rng.normal(0.0, 1.0, n).clip(-ETA_MAX, ETA_MAX)
        jets = []
        for i in range(n):
            # Two-prong substructure: each cascade jet splits its energy.
            # np.clip's min(max(...)), in its argument order: the same float
            frac = min(0.9, max(0.55, rng.beta(5.0, 3.0)))
            dr = self.sig_prong_dr * float(rng.lognormal(0.0, 0.2))
            angle = float(rng.uniform(0, 2 * np.pi))
            prongs = (
                (frac, 0.0, 0.0),
                (1.0 - frac, dr * np.cos(angle), dr * np.sin(angle)),
            )
            jets.append(Jet(
                pt=float(pts[i]), eta=float(etas[i]), phi=float(phis[i]),
                em_frac=float(rng.beta(4.0, 4.0)),
                n_tracks=int(3 + rng.poisson(0.05 * pts[i])),
                prongs=prongs,
            ))
        return Event(jets=jets, is_signal=True)

    # -- public API ------------------------------------------------------------
    def generate(self, n_events: int,
                 signal_fraction: float = 0.5) -> List[Event]:
        """Generate a shuffled mix of signal and background events."""
        require_count("n_events", n_events)
        require_real("signal_fraction", signal_fraction, "[0, 1]")
        n_sig = int(round(n_events * signal_fraction))
        events = [self._signal_event() for _ in range(n_sig)]
        events += [self._background_event()
                   for _ in range(n_events - n_sig)]
        self._rng.shuffle(events)
        return events

    def generate_signal(self, n: int) -> List[Event]:
        return [self._signal_event() for _ in range(n)]

    def generate_background(self, n: int) -> List[Event]:
        return [self._background_event() for _ in range(n)]
