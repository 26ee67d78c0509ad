"""ADAM optimizer [35].

The paper trains the HEP network with ADAM because it "requires less
parameter tuning than SGD and suppresses high norm variability between
gradients of different layers" (SIII-A). Note the per-parameter moment
history is exactly the state the Fig 5a "solver update" component spends its
12.5% of runtime copying — accounted for in the single-node model.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.core.parameter import Parameter
from repro.optim.base import Optimizer
from repro.utils.checks import require_real


class Adam(Optimizer):
    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        self.beta1 = require_real("beta1", beta1, "[0, 1)")
        self.beta2 = require_real("beta2", beta2, "[0, 1)")
        self.eps = require_real("eps", eps, "(0, inf)")
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t: Dict[str, int] = {}
        #: two work arrays per parameter, so a step allocates nothing
        self._scratch: Dict[str, np.ndarray] = {}

    def _update(self, p: Parameter) -> None:
        if p.name not in self._m:
            self._m[p.name] = np.zeros_like(p.data)
            self._v[p.name] = np.zeros_like(p.data)
            self._scratch[p.name] = np.empty((2,) + p.data.shape, p.data.dtype)
        m, v = self._m[p.name], self._v[p.name]
        a, b = self._scratch[p.name]
        t = self._t.get(p.name, 0) + 1
        self._t[p.name] = t
        g = p.grad
        # The textbook expressions, operation for operation, into a and b:
        # p -= lr * m_hat / (sqrt(v_hat) + eps).
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        np.multiply(g, g, out=a)
        v += np.multiply(1.0 - self.beta2, a, out=a)
        np.divide(m, 1.0 - self.beta1 ** t, out=a)              # m_hat
        np.multiply(self.lr, a, out=a)
        np.divide(v, 1.0 - self.beta2 ** t, out=b)              # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        p.data -= np.divide(a, b, out=a)
