"""Loss functions. Each returns ``(scalar_loss, grad_wrt_input)``.

The HEP network trains with softmax cross-entropy (paper SIII-A). The climate
objective (SIII-B) is a composite of confidence BCE, class cross-entropy, box
smooth-L1 and autoencoder MSE — assembled in
:class:`repro.models.climate.SemiSupervisedLoss` from the pieces here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.activations import sigmoid, softmax
from repro.utils.checks import require_real


class SoftmaxCrossEntropyLoss:
    """Softmax + cross-entropy fused for numerical stability.

    ``logits``: (N, K); ``labels``: (N,) integer class ids.
    """

    def __call__(self, logits: np.ndarray,
                 labels: np.ndarray) -> Tuple[float, np.ndarray]:
        n, k = logits.shape
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} != ({n},)")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"labels out of range [0, {k})")
        probs = softmax(logits, axis=1)
        eps = np.finfo(np.float32).tiny
        picked = probs[np.arange(n), labels]
        loss = float(-np.log(np.maximum(picked, eps)).mean())
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n
        return loss, grad.astype(np.float32)


class MSELoss:
    """Mean squared error over all elements (autoencoder reconstruction)."""

    def __call__(self, pred: np.ndarray,
                 target: np.ndarray) -> Tuple[float, np.ndarray]:
        if pred.shape != target.shape:
            raise ValueError(
                f"shape mismatch: {pred.shape} vs {target.shape}")
        diff = pred - target
        loss = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff
        return loss, grad.astype(np.float32)


class BCEWithLogitsLoss:
    """Binary cross-entropy on logits, with optional per-element weights.

    Used for the confidence map: "minimize the confidence of areas without a
    box, maximize those with a box" (paper SIII-B). Weights let the positive
    cells (rare) be up-weighted against the background sea of negatives.
    """

    def __call__(self, logits: np.ndarray, targets: np.ndarray,
                 weights: Optional[np.ndarray] = None
                 ) -> Tuple[float, np.ndarray]:
        if logits.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: {logits.shape} vs {targets.shape}")
        if weights is None:
            weights = np.ones_like(logits)
        elif weights.shape != logits.shape:
            raise ValueError(
                f"weights shape {weights.shape} != {logits.shape}")
        # log(1 + exp(-|x|)) formulation: stable for large |x|.
        p = sigmoid(logits)
        per_elem = (np.maximum(logits, 0.0) - logits * targets
                    + np.log1p(np.exp(-np.abs(logits))))
        wsum = float(weights.sum())
        if wsum <= 0:
            raise ValueError("weights sum to zero")
        loss = float((weights * per_elem).sum() / wsum)
        grad = weights * (p - targets) / wsum
        return loss, grad.astype(np.float32)


class SmoothL1Loss:
    """Huber/smooth-L1 on box regression targets, masked to positive cells."""

    def __init__(self, beta: float = 1.0) -> None:
        self.beta = require_real("beta", beta, "(0, inf)")

    def __call__(self, pred: np.ndarray, target: np.ndarray,
                 mask: Optional[np.ndarray] = None
                 ) -> Tuple[float, np.ndarray]:
        if pred.shape != target.shape:
            raise ValueError(
                f"shape mismatch: {pred.shape} vs {target.shape}")
        if mask is None:
            mask = np.ones_like(pred)
        elif mask.shape != pred.shape:
            raise ValueError(f"mask shape {mask.shape} != {pred.shape}")
        count = float(mask.sum())
        if count == 0:
            # No positive cells in this batch: zero loss, zero gradient.
            return 0.0, np.zeros_like(pred, dtype=np.float32)
        diff = (pred - target) * mask
        absd = np.abs(diff)
        quad = absd < self.beta
        per = np.where(quad, 0.5 * diff * diff / self.beta,
                       absd - 0.5 * self.beta)
        loss = float(per.sum() / count)
        grad = np.where(quad, diff / self.beta, np.sign(diff)) * mask / count
        return loss, grad.astype(np.float32)
