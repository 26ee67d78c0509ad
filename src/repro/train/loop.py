"""Single-process training loop for the supervised classifier."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.sequential import Sequential
from repro.nn.activations import softmax
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.optim.base import Optimizer
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, as_rng

_xent = SoftmaxCrossEntropyLoss()


def hep_loss_fn(net: Sequential, x: np.ndarray,
                y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Forward + softmax cross-entropy; returns (loss, dL/d logits).

    This is the ``loss_fn`` contract shared by the single-process loop and
    the distributed trainers.
    """
    logits = net.forward(x)
    return _xent(logits, y)


def step(net: Sequential, loss_fn, x: np.ndarray, y: np.ndarray) -> float:
    """``zero_grad``, ``loss_fn(net, x, y)`` and a backward pass that skips
    dL/d(input); returns the loss. The gradients stay on the parameters,
    where ``optimizer.step``, ``flatten_grads`` and ``push_from`` read them."""
    net.zero_grad()
    loss, grad = loss_fn(net, x, y)
    net.backward(grad, input_grad=False)
    return loss


@dataclass
class TrainHistory:
    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no iterations recorded")
        return self.losses[-1]

    def smoothed(self, k: int = 5) -> np.ndarray:
        arr = np.asarray(self.losses)
        if k <= 1 or arr.size < k:
            return arr
        return np.convolve(arr, np.ones(k) / k, mode="valid")


def fit_classifier(net: Sequential, optimizer: Optimizer, x: np.ndarray,
                   y: np.ndarray, batch: int, n_iterations: int,
                   loss_fn=hep_loss_fn, lr_schedule=None,
                   seed: SeedLike = 0) -> TrainHistory:
    """Minibatch training with random sampling (with replacement across
    iterations, without within a batch). ``lr_schedule(iteration) -> lr``
    overrides the optimizer's learning rate each step when given."""
    n = x.shape[0]
    if require_count("batch", batch) > n:
        raise ValueError(f"batch must be <= {n}, got {batch}")
    require_count("n_iterations", n_iterations)
    rng = as_rng(seed)
    history = TrainHistory()
    net.train()
    for it in range(n_iterations):
        if lr_schedule is not None:
            optimizer.set_lr(lr_schedule(it))
        idx = rng.choice(n, size=batch, replace=False)
        history.losses.append(step(net, loss_fn, x[idx], y[idx]))
        optimizer.step()
    return history


def predict_proba(net: Sequential, x: np.ndarray,
                  batch: int = 64) -> np.ndarray:
    """Class probabilities, evaluated in batches: (N, K)."""
    require_count("batch", batch)
    net.eval()
    outputs = []
    for lo in range(0, x.shape[0], batch):
        logits = net.forward(x[lo:lo + batch])
        outputs.append(softmax(logits, axis=1))
    net.train()
    return np.concatenate(outputs)
