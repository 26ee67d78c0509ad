"""YellowFin: automatic momentum and learning-rate tuning (paper ref [48]).

The paper closes with: hybrid schemes "add an extra parameter to be tuned,
which stresses the need for principled momentum tuning approaches, an active
area of research (e.g. [25] and recently [48])" — [48] being Zhang,
Mitliagkas & Re, "YellowFin and the art of momentum tuning" (2017). This is
that tuner, so the Fig 8 (groups x momentum) grid search can be replaced by
a closed loop.

Per iteration YellowFin measures, from gradients alone:

- the **curvature range** ``[h_min, h_max]`` — windowed extrema of the
  squared gradient norm (a curvature proxy along the trajectory);
- the **gradient variance** ``C = E||g||^2 - ||E g||^2``;
- the **distance to the optimum** ``D ~ E||g|| / h``;

and picks ``(momentum, lr)`` minimizing the expected squared distance after
one step of the noisy quadratic model (the *SingleStep* problem):

    sqrt(mu) = max( root of  p x = (1 - x)^3,  with p = D^2 h_min^2 / (2C),
                    (sqrt(kappa) - 1) / (sqrt(kappa) + 1) ),   kappa = h_max/h_min
    lr = (1 - sqrt(mu))^2 / h_min

All statistics are de-biased exponential moving averages, as in the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from repro.core.parameter import Parameter
from repro.distributed.flatten import flatten_grads
from repro.optim.base import Optimizer
from repro.utils.checks import require_count, require_real


@dataclass
class TunerState:
    """The measured statistics and the tuned knobs, for introspection."""

    h_min: float
    h_max: float
    variance: float
    distance: float
    momentum: float
    lr: float


def solve_single_step_momentum(p: float) -> float:
    """Root ``x`` in [0, 1) of ``p x = (1 - x)^3``; returns ``sqrt(mu)``.

    The cubic has exactly one real root in [0, 1) for ``p > 0`` (LHS
    increases from 0, RHS decreases from 1). Solved by bisection — robust
    for the extreme ``p`` values early training produces.
    """
    require_real("p", p, "(0, inf]")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if p * mid < (1.0 - mid) ** 3:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class YellowFin(Optimizer):
    """SGD with momentum where (momentum, lr) are auto-tuned per iteration.

    ``lr`` here is the *initial* learning rate used until the estimators
    warm up (``warmup`` iterations). ``beta`` is the EMA factor of the
    statistics; ``window`` the curvature-extrema window; ``mu_max`` a
    safety clamp on the tuned momentum.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 beta: float = 0.95, window: int = 20,
                 warmup: int = 5, mu_max: float = 0.95,
                 lr_max: Optional[float] = None) -> None:
        super().__init__(params, lr)
        self.beta = require_real("beta", beta, "(0, 1)")
        self.window = require_count("window", window, least=2)
        self.warmup = require_count("warmup", warmup)
        self.mu_max = require_real("mu_max", mu_max, "(0, 1)")
        self.lr_max = require_real("lr_max", lr_max, "(0, inf)", none_ok=True)
        self.momentum = 0.0
        self._velocity: Dict[str, np.ndarray] = {}
        self._curvatures: Deque[float] = deque(maxlen=window)
        # EMA accumulators (de-biased by _zeta = 1 - beta^t).
        self._h_min_ema = 0.0
        self._h_max_ema = 0.0
        self._grad_sq_ema = 0.0      # E ||g||^2
        self._grad_ema: Optional[np.ndarray] = None   # E g (elementwise)
        self._grad_norm_ema = 0.0    # E ||g||
        self._dist_ema = 0.0         # E ||g|| / h
        self._t = 0
        self.history: List[TunerState] = []

    # -- measurement ---------------------------------------------------------
    def _debias(self, value: float) -> float:
        return value / (1.0 - self.beta ** self._t)

    def _measure(self, flat_grad: np.ndarray) -> TunerState:
        self._t += 1
        b = self.beta
        norm_sq = float(flat_grad @ flat_grad)
        norm_sq = max(norm_sq, np.finfo(np.float32).tiny)
        # Curvature range over the window (eq. 8 of [48]).
        self._curvatures.append(norm_sq)
        h_min_t = min(self._curvatures)
        h_max_t = max(self._curvatures)
        self._h_min_ema = b * self._h_min_ema + (1 - b) * h_min_t
        self._h_max_ema = b * self._h_max_ema + (1 - b) * h_max_t
        h_min = self._debias(self._h_min_ema)
        h_max = self._debias(self._h_max_ema)
        # Gradient variance (eq. 9).
        self._grad_sq_ema = b * self._grad_sq_ema + (1 - b) * norm_sq
        if self._grad_ema is None:
            self._grad_ema = np.zeros_like(flat_grad, dtype=np.float64)
        self._grad_ema *= b
        self._grad_ema += (1 - b) * flat_grad
        mean_grad = self._grad_ema / (1.0 - b ** self._t)
        variance = max(self._debias(self._grad_sq_ema)
                       - float(mean_grad @ mean_grad), 1e-12)
        # Distance to the optimum (eq. 10).
        norm = np.sqrt(norm_sq)
        self._grad_norm_ema = b * self._grad_norm_ema + (1 - b) * norm
        self._dist_ema = (b * self._dist_ema
                          + (1 - b) * self._debias(self._grad_norm_ema)
                          / norm_sq)
        distance = self._debias(self._dist_ema)
        return TunerState(h_min=h_min, h_max=h_max, variance=variance,
                          distance=distance, momentum=self.momentum,
                          lr=self.lr)

    def _tune(self, s: TunerState) -> TunerState:
        """Solve SingleStep for (momentum, lr) from measured statistics."""
        kappa = max(s.h_max / max(s.h_min, 1e-12), 1.0)
        sqrt_kappa = np.sqrt(kappa)
        mu_cond = ((sqrt_kappa - 1.0) / (sqrt_kappa + 1.0)) ** 2
        p = s.distance ** 2 * s.h_min ** 2 / (2.0 * s.variance)
        sqrt_mu_cubic = solve_single_step_momentum(max(p, 1e-12))
        mu = min(max(mu_cond, sqrt_mu_cubic ** 2), self.mu_max)
        lr = (1.0 - np.sqrt(mu)) ** 2 / max(s.h_min, 1e-12)
        if self.lr_max is not None:
            lr = min(lr, self.lr_max)
        # The published algorithm smooths the applied knobs with the same
        # EMA used for the statistics — without it the lr jumps on every
        # curvature-window shift.
        b = self.beta
        self.momentum = float(b * self.momentum + (1 - b) * mu)
        self.lr = float(b * self.lr + (1 - b) * lr)
        return TunerState(h_min=s.h_min, h_max=s.h_max, variance=s.variance,
                          distance=s.distance, momentum=self.momentum,
                          lr=self.lr)

    # -- update --------------------------------------------------------------
    def step(self) -> None:
        flat = flatten_grads(self.params).astype(np.float64)
        state = self._measure(flat)
        if self._t > self.warmup:
            state = self._tune(state)
        self.history.append(state)
        self.iteration += 1
        for p in self.params:
            self._update(p)

    def _update(self, p: Parameter) -> None:
        v = self._velocity.get(p.name)
        if v is None:
            v = np.zeros_like(p.data)
            self._velocity[p.name] = v
        v *= self.momentum
        v -= self.lr * p.grad
        p.data += v

    # -- introspection -------------------------------------------------------
    @property
    def state(self) -> Optional[TunerState]:
        """Most recent tuner state (None before the first step)."""
        return self.history[-1] if self.history else None
