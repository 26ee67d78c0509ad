"""The physics cut-based baseline (paper SI-A, SVII-A).

The paper benchmarks the CNN against "our own implementation of the
selections of [5]": the ATLAS multi-jet SUSY search, which selects events by
jet multiplicity and scalar momentum sums over high-level reconstructed
features. We implement the same style of selection on the toy events:
count jets above a p_T threshold, demand a minimum multiplicity, and cut on
H_T. Scanning the H_T cut over a grid of multiplicity working points traces
out the baseline ROC; the paper's operating point is TPR ~42 % at
FPR = 0.02 % = 2e-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.hep.generator import Event
from repro.utils.checks import require_real


def high_level_features(events: Sequence[Event],
                        jet_pt_min: float = 40.0) -> np.ndarray:
    """Per-event physics features: (N, 4) = [n_jet, HT, leading pT, mean |dphi|].

    These are the reconstructed quantities a cut-based analysis works with —
    deliberately blind to substructure and fine angular correlations.
    """
    require_real("jet_pt_min", jet_pt_min, "[0, inf)")
    feats = np.zeros((len(events), 4), dtype=np.float64)
    for i, ev in enumerate(events):
        jets = [j for j in ev.jets if j.pt >= jet_pt_min]
        if not jets:
            continue
        pts = np.array([j.pt for j in jets])
        phis = np.array([j.phi for j in jets])
        feats[i, 0] = len(jets)
        feats[i, 1] = pts.sum()
        feats[i, 2] = pts.max()
        if len(jets) >= 2:
            dphi = np.abs((phis[:, None] - phis[None, :] + np.pi)
                          % (2 * np.pi) - np.pi)
            feats[i, 3] = dphi[np.triu_indices(len(jets), k=1)].mean()
    return feats


@dataclass
class CutBaseline:
    """Grid of (N_jet >= n, H_T > t) selections -> baseline ROC.

    ``score(events)`` maps each event to a scalar discriminant so the
    baseline can be compared on the same ROC axes as the network: the score
    is the tightest H_T working point (per multiplicity tier) the event
    passes, i.e. a monotone cut-counting statistic.
    """

    jet_pt_min: float = 30.0
    njet_tiers: Tuple[int, ...] = (6, 8, 10, 12)

    def __post_init__(self) -> None:
        require_real("jet_pt_min", self.jet_pt_min, "[0, inf)")

    def score(self, events: Sequence[Event]) -> np.ndarray:
        """Scalar discriminant per event (higher = more signal-like).

        Lexicographic (N_jet, then H_T): thresholding it sweeps the family
        of (N_jet >= n AND H_T > t) working points — exactly how the
        multi-jet search's signal regions tighten (first demand more jets,
        then harden the H_T cut within each multiplicity tier).
        """
        feats = high_level_features(events, self.jet_pt_min)
        n_jet, ht = feats[:, 0], feats[:, 1]
        return n_jet * 1e4 + ht

    def roc(self, events: Sequence[Event]
            ) -> Tuple[np.ndarray, np.ndarray]:
        """(fpr, tpr) arrays over all score thresholds."""
        from repro.train.metrics import roc_curve

        labels = np.array([ev.is_signal for ev in events], dtype=np.int64)
        return roc_curve(self.score(events), labels)

    def tpr_at_fpr(self, events: Sequence[Event],
                   fpr_target: float = 2e-4) -> float:
        """Baseline signal efficiency at the paper's operating point."""
        from repro.train.metrics import tpr_at_fpr

        labels = np.array([ev.is_signal for ev in events], dtype=np.int64)
        return tpr_at_fpr(self.score(events), labels, fpr_target)
