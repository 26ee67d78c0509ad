"""LSTM layer (paper SIX portability claim).

"Our results are not limited to the specific applications mentioned in this
paper, but they extend to other kinds of models such as ResNets [50] and
LSTM [51], [52], although the optimal configuration between synchronous and
asynchronous is expected to be model dependent."

A single-layer LSTM over ``(N, T, D)`` sequences with full BPTT. Like every
layer in the framework it is explicit-backward and per-layer-FLOP-accounted,
so it slots into the same data-parallel / hybrid trainers and the same
performance models as the conv nets — which is exactly the portability
experiment the extension benchmark runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.initializers import xavier_uniform, zeros
from repro.core.module import Module, check_sizes
from repro.core.parameter import Parameter
from repro.nn.activations import sigmoid
from repro.utils.rng import SeedLike


class LSTM(Module):
    """Single-layer LSTM (Hochreiter & Schmidhuber [51], forget gates [52]).

    Gate layout in the fused weight matrices is ``[i, f, g, o]`` (input,
    forget, cell candidate, output). The forget-gate bias initializes to 1.0
    — the "learning to forget" fix of [52] that keeps early gradients
    flowing. With ``return_sequences=False`` (default) the layer emits the
    final hidden state ``(N, H)``, ready for a Dense head.
    """

    kind = "lstm"

    def __init__(self, input_dim: int, hidden_dim: int,
                 return_sequences: bool = False,
                 name: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__(name=name or "lstm")
        input_dim, hidden_dim = check_sizes(
            self.name, input_dim=input_dim, hidden_dim=hidden_dim)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.return_sequences = return_sequences
        h = hidden_dim
        self.w_x = Parameter(
            xavier_uniform((input_dim, 4 * h), input_dim + h, 4 * h, rng),
            name="w_x")
        self.w_h = Parameter(
            xavier_uniform((h, 4 * h), input_dim + h, 4 * h, rng),
            name="w_h")
        bias = zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget gate bias
        self.bias = Parameter(bias, name="bias")
        self._cache: Optional[Tuple] = None

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"{self.name}: expected (N, T, {self.input_dim}), "
                f"got {x.shape}")
        n, t_steps, _d = x.shape
        hdim = self.hidden_dim
        h = np.zeros((n, hdim), dtype=np.float32)
        c = np.zeros((n, hdim), dtype=np.float32)
        steps = []
        outputs = np.empty((n, t_steps, hdim), dtype=np.float32)
        for t in range(t_steps):
            x_t = x[:, t, :]
            z = x_t @ self.w_x.data + h @ self.w_h.data + self.bias.data
            i = sigmoid(z[:, :hdim])
            f = sigmoid(z[:, hdim:2 * hdim])
            g = np.tanh(z[:, 2 * hdim:3 * hdim])
            o = sigmoid(z[:, 3 * hdim:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((x_t, h, c, i, f, g, o, tanh_c))
            h, c = h_new, c_new
            outputs[:, t, :] = h
        self._cache = (steps, x.shape) if self.training else None
        return outputs if self.return_sequences else h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        steps, x_shape = self._cache
        n, t_steps, _d = x_shape
        hdim = self.hidden_dim
        if self.return_sequences:
            expected = (n, t_steps, hdim)
        else:
            expected = (n, hdim)
        if grad_out.shape != expected:
            raise ValueError(
                f"{self.name}: grad shape {grad_out.shape} != {expected}")
        grad_x = np.zeros(x_shape, dtype=np.float32)
        dh_next = np.zeros((n, hdim), dtype=np.float32)
        dc_next = np.zeros((n, hdim), dtype=np.float32)
        for t in reversed(range(t_steps)):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
            dh = dh_next.copy()
            if self.return_sequences:
                dh += grad_out[:, t, :]
            elif t == t_steps - 1:
                dh += grad_out
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            # Through the gate nonlinearities.
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ], axis=1)
            self.w_x.grad += x_t.T @ dz
            self.w_h.grad += h_prev.T @ dz
            self.bias.grad += dz.sum(axis=0)
            grad_x[:, t, :] = dz @ self.w_x.data.T
            dh_next = dz @ self.w_h.data.T
            dc_next = dc * f
        return grad_x

    # -- parameters / accounting -------------------------------------------
    def params(self) -> List[Parameter]:
        return [self.w_x, self.w_h, self.bias]

    def output_shape(self, input_shape):
        t_steps, d = input_shape
        if d != self.input_dim:
            raise ValueError(
                f"{self.name}: expected feature dim {self.input_dim}, got {d}")
        if self.return_sequences:
            return (t_steps, self.hidden_dim)
        return (self.hidden_dim,)

    def flops(self, batch: int, input_shape=None) -> int:
        """Per step: two GEMMs (x @ W_x, h @ W_h) + ~10 pointwise ops/unit."""
        if input_shape is None:
            raise ValueError(
                f"{self.name}: LSTM FLOPs depend on sequence length; pass "
                "input_shape or use repro.flops.count_net")
        t_steps, d = input_shape
        h = self.hidden_dim
        gemm = 2 * batch * (d + h) * 4 * h
        pointwise = 10 * batch * h
        return t_steps * (gemm + pointwise)
