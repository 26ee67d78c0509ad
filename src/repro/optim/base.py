"""Optimizer base class.

Optimizers hold per-parameter state keyed by parameter name (not identity),
so the same optimizer state can be applied on a parameter server that owns a
*copy* of the model — exactly the PS update path of the hybrid architecture.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.parameter import Parameter
from repro.utils.checks import require_real


class Optimizer:
    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.set_lr(lr)
        self.params: List[Parameter] = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self.iteration = 0

    def step(self) -> None:
        """Apply one update from the gradients currently in ``p.grad``."""
        self.iteration += 1
        for p in self.params:
            self._update(p)

    def _update(self, p: Parameter) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        self.lr = require_real("lr", lr, "(0, inf)")
