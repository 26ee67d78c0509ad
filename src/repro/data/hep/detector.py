"""Fast detector simulation (the Delphes substitute).

Applies resolution smearing and reconstruction inefficiency to generated
jets, in the spirit of Delphes' parameterized detector response:

- p_T smearing: sigma(p_T)/p_T = a/sqrt(p_T) + b (calorimeter stochastic +
  constant terms);
- angular smearing at the calorimeter-tower scale;
- reconstruction inefficiency for soft jets near threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.hep.generator import ETA_MAX, Event, Jet, _wrap_phi
from repro.utils.checks import require_real
from repro.utils.rng import SeedLike, as_rng


@dataclass
class DetectorModel:
    """Parameterized detector response."""

    stochastic_term: float = 0.8     # a in sigma/pt = a/sqrt(pt) + b
    constant_term: float = 0.03      # b
    angular_sigma: float = 0.02      # eta/phi smear (tower granularity)
    pt_threshold: float = 25.0       # reconstruction threshold (GeV)
    seed: SeedLike = None

    def __post_init__(self) -> None:
        require_real("stochastic_term", self.stochastic_term, "[0, inf)")
        require_real("constant_term", self.constant_term, "[0, inf)")
        require_real("angular_sigma", self.angular_sigma, "[0, inf)")
        require_real("pt_threshold", self.pt_threshold, "(0, inf)")
        self._rng = as_rng(self.seed)

    def _smear_jet(self, jet: Jet) -> Jet | None:
        rng = self._rng
        # sqrt is correctly rounded either way; np.exp below may not be
        rel_sigma = (self.stochastic_term / math.sqrt(jet.pt)
                     + self.constant_term)
        pt = jet.pt * float(rng.normal(1.0, rel_sigma))
        if pt < self.pt_threshold:
            return None  # fell below reconstruction threshold
        # Turn-on curve near threshold (efficiency plateau at ~99 %).
        eff = 0.99 / (1.0 + np.exp(-(pt - self.pt_threshold) / 5.0))
        if rng.random() > eff:
            return None
        eta = min(ETA_MAX, max(-ETA_MAX,
                               jet.eta + rng.normal(0, self.angular_sigma)))
        phi = _wrap_phi(jet.phi + rng.normal(0, self.angular_sigma))
        em = min(1.0, max(0.0, jet.em_frac + rng.normal(0, 0.05)))
        n_tracks = max(0, int(rng.binomial(jet.n_tracks, 0.92)))
        return Jet(pt=float(pt), eta=eta, phi=phi, em_frac=em,
                   n_tracks=n_tracks, prongs=jet.prongs)

    def simulate(self, event: Event) -> Event:
        """Smear one event; jets can be lost near threshold."""
        jets = []
        for jet in event.jets:
            out = self._smear_jet(jet)
            if out is not None:
                jets.append(out)
        return Event(jets=jets, is_signal=event.is_signal)

    def simulate_all(self, events: List[Event]) -> List[Event]:
        out = [self.simulate(ev) for ev in events]
        # Drop events with no reconstructed jets (below trigger anyway).
        return [ev for ev in out if ev.jets]
