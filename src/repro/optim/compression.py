"""Gradient compression for communication (paper SVIII-B).

"more aggressive optimizations involving computing in low-precision and
**communicating high-order bits of weight updates** are poorly understood
with regards to their implications for classification and regression
accuracy for scientific datasets." This module makes those optimizations
available so their implications can be measured:

- :func:`topk_compress` / :func:`topk_decompress` — ship only the k
  largest-magnitude gradient entries (the "high-order" part of the update);
- :func:`sign_compress` / :func:`sign_decompress` — 1-bit sign compression
  with a norm-preserving scale (the extreme high-order-bits-only limit);
- :class:`ErrorFeedbackCompressor` — the residual-accumulation wrapper that
  makes both schemes converge: whatever a step does not transmit is added
  back into the next step's gradient (Seide et al. 1-bit SGD / EF-SGD).

Byte accounting on every compressed message feeds the communication cost
models, so the benchmark can report bandwidth saved vs accuracy lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.checks import require_count, require_real


@dataclass(frozen=True)
class CompressedGrad:
    """A compressed gradient message.

    ``indices`` is None for dense schemes (sign compression transmits a bit
    per element instead). ``nbytes`` is the on-the-wire size; ``dense_bytes``
    what the uncompressed float32 message would have been.
    """

    indices: Optional[np.ndarray]
    values: np.ndarray
    scale: float
    size: int                   # elements of the original vector
    scheme: str

    @property
    def nbytes(self) -> int:
        if self.scheme == "topk":
            # 4-byte index + 4-byte value per surviving entry.
            return int(8 * self.values.size)
        if self.scheme == "sign":
            # One bit per element, plus the 4-byte scale.
            return int(np.ceil(self.size / 8)) + 4
        raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def dense_bytes(self) -> int:
        return 4 * self.size

    @property
    def compression_ratio(self) -> float:
        return self.dense_bytes / max(self.nbytes, 1)


def topk_compress(grad: np.ndarray, k: int) -> CompressedGrad:
    """Keep the ``k`` largest-magnitude entries of a flat gradient."""
    if grad.ndim != 1:
        raise ValueError(f"expected a flat gradient, got shape {grad.shape}")
    if require_count("k", k) > grad.size:
        raise ValueError(f"k must be <= {grad.size}, got {k}")
    if k == grad.size:
        idx = np.arange(grad.size)
    else:
        idx = np.argpartition(np.abs(grad), -k)[-k:]
    idx = np.sort(idx)
    return CompressedGrad(indices=idx.astype(np.int64),
                          values=grad[idx].astype(np.float32),
                          scale=1.0, size=grad.size, scheme="topk")


def topk_decompress(msg: CompressedGrad) -> np.ndarray:
    """Reconstruct the dense (sparse-fill) gradient from a top-k message."""
    if msg.scheme != "topk":
        raise ValueError(f"not a topk message: {msg.scheme!r}")
    out = np.zeros(msg.size, dtype=np.float32)
    out[msg.indices] = msg.values
    return out


def sign_compress(grad: np.ndarray) -> CompressedGrad:
    """1-bit sign compression scaled to preserve the l1 mass.

    ``decompress(compress(g)) = sign(g) * mean(|g|)`` — the signSGD-with-
    majority-vote transmission format.
    """
    if grad.ndim != 1:
        raise ValueError(f"expected a flat gradient, got shape {grad.shape}")
    if grad.size == 0:
        raise ValueError("cannot compress an empty gradient")
    scale = float(np.abs(grad).mean())
    return CompressedGrad(indices=None,
                          values=np.signbit(grad),  # True where negative
                          scale=scale, size=grad.size, scheme="sign")


def sign_decompress(msg: CompressedGrad) -> np.ndarray:
    if msg.scheme != "sign":
        raise ValueError(f"not a sign message: {msg.scheme!r}")
    out = np.where(msg.values, -msg.scale, msg.scale)
    return out.astype(np.float32)


class ErrorFeedbackCompressor:
    """Residual-accumulating compressor (EF-SGD).

    ``compress`` receives the local gradient, adds the residual left over
    from previous rounds, compresses, and keeps what was NOT transmitted as
    the new residual. This turns biased compressors (top-k, sign) into
    convergent ones.
    """

    def __init__(self, scheme: str = "topk", k_fraction: float = 0.01
                 ) -> None:
        if scheme not in ("topk", "sign"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.k_fraction = require_real("k_fraction", k_fraction, "(0, 1]")
        self.residual: Optional[np.ndarray] = None
        self.bytes_sent = 0
        self.bytes_dense = 0

    def compress(self, grad: np.ndarray) -> CompressedGrad:
        if grad.ndim != 1:
            raise ValueError(
                f"expected a flat gradient, got shape {grad.shape}")
        if self.residual is None:
            self.residual = np.zeros_like(grad, dtype=np.float32)
        elif self.residual.size != grad.size:
            raise ValueError(
                f"gradient size changed: {grad.size} vs residual "
                f"{self.residual.size}")
        corrected = grad + self.residual
        if self.scheme == "topk":
            k = max(1, int(round(self.k_fraction * grad.size)))
            msg = topk_compress(corrected, k)
            transmitted = topk_decompress(msg)
        else:
            msg = sign_compress(corrected)
            transmitted = sign_decompress(msg)
        self.residual = (corrected - transmitted).astype(np.float32)
        self.bytes_sent += msg.nbytes
        self.bytes_dense += msg.dense_bytes
        return msg

    @property
    def bandwidth_saving(self) -> float:
        """Dense bytes / transmitted bytes over the compressor's lifetime."""
        return self.bytes_dense / max(self.bytes_sent, 1)


def compressed_allreduce(grads: List[np.ndarray],
                         compressors: List[ErrorFeedbackCompressor]
                         ) -> Tuple[np.ndarray, int]:
    """Mean-reduce rank gradients through per-rank compressors.

    Models the allgather-of-compressed-messages pattern: each rank
    compresses (with its own error feedback), all messages are gathered and
    the mean of the decompressed messages is returned, along with the total
    bytes on the wire (p * (p-1) message transfers for an allgather).
    """
    if len(grads) != len(compressors):
        raise ValueError("need exactly one compressor per rank")
    if not grads:
        raise ValueError("need at least one gradient")
    size = grads[0].size
    for g in grads:
        if g.size != size:
            raise ValueError("rank gradients must have equal size")
    total = np.zeros(size, dtype=np.float64)
    wire_bytes = 0
    p = len(grads)
    for g, comp in zip(grads, compressors):
        msg = comp.compress(g.astype(np.float32))
        dense = (topk_decompress(msg) if msg.scheme == "topk"
                 else sign_decompress(msg))
        total += dense
        wire_bytes += msg.nbytes * max(1, p - 1)
    return (total / p).astype(np.float32), wire_bytes
