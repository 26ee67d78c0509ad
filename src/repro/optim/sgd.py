"""Stochastic gradient descent with (heavy-ball) momentum.

The climate network trains with SGD+momentum (paper SIII-B). In hybrid runs
the *explicit* momentum set here is tuned down to compensate for the
*implicit* momentum contributed by asynchrony (paper SVI-B4, [31]); see
:mod:`repro.optim.async_momentum`.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.core.parameter import Parameter
from repro.optim.base import Optimizer
from repro.utils.checks import require_real


class SGD(Optimizer):
    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = require_real("momentum", momentum, "[0, 1)")
        self.weight_decay = require_real("weight_decay", weight_decay,
                                         "[0, inf)")
        self._velocity: Dict[str, np.ndarray] = {}

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        if self.momentum:
            v = self._velocity.get(p.name)
            if v is None:
                v = np.zeros_like(p.data)
                self._velocity[p.name] = v
            v *= self.momentum
            v -= self.lr * grad
            p.data += v
        else:
            p.data -= self.lr * grad
