"""Layer/module contract for the framework.

Modules are explicit-backward (Caffe-style) rather than autograd-based: each
layer implements ``forward`` and ``backward`` and caches whatever it needs in
between. This mirrors the paper's substrate and keeps the per-layer FLOP
accounting (Fig 5) and the per-layer parameter-server mapping straightforward.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.utils.checks import require_count


class Module:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; layers with
    weights override :meth:`params`. ``flops(batch)`` returns the FLOPs of one
    forward pass at the given batch size and is the basis of the SDE-style
    counter in :mod:`repro.flops`.
    """

    #: human-readable layer-type tag, overridden by subclasses
    kind: str = "module"
    #: input rows per output row when a layer is *band-local* (any band of
    #: whole output rows of its NCHW result depends only on the matching
    #: input rows, and an eval forward keeps no state), else 0
    band_rows: int = 0
    #: whether ``forward(x, then)`` also runs a run of band-local followers
    takes_followers: bool = False
    #: elementwise, non-decreasing and flat only where its gradient is 0:
    #: ``max(f(a), f(b)) == f(max(a, b))``, and so are the gradients
    commutes_with_max: bool = False
    #: every output element is the maximum of a window of the input
    window_max: bool = False
    #: whether ``backward(grad_out, input_grad=False)`` skips dL/d(input)
    skips_input_grad: bool = False

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.__class__.__name__.lower()
        self.training = True

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate weight grads and return dL/d(input).

        A layer with ``skips_input_grad`` also takes ``input_grad=False``
        (Caffe's ``propagate_down``): same weight grads, returns ``None``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameters --------------------------------------------------------
    def params(self) -> List["Parameter"]:
        """Trainable parameters of this module (empty for stateless layers)."""
        return []

    def buffers(self) -> dict:
        """Non-trainable state that must survive checkpointing (e.g. the
        running statistics of BatchNorm). Maps buffer name -> array; the
        arrays are the module's live state (mutate in place to restore)."""
        return {}

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()

    # -- children ----------------------------------------------------------
    def children(self) -> List["Module"]:
        """Direct child modules. Containers override this one hook and get
        train/eval propagation and the checkpoint buffer walk for free —
        hand-rolling those per container is how a child is silently left in
        training mode or dropped from a checkpoint."""
        return []

    # -- state I/O ---------------------------------------------------------
    def _buffer_items(self):
        """(name, array) pairs of every buffer, recursively, with
        globally-unique names.

        Own buffers are keyed ``<name>.buffer.<key>``; child items are
        prefixed with the child's name unless already so prefixed — the
        same scheme Sequential applies to parameter names — so same-named
        layers in sibling containers cannot collide."""
        for key, arr in self.buffers().items():
            yield f"{self.name}.buffer.{key}", arr
        for child in self.children():
            for key, arr in child._buffer_items():
                if not key.startswith(child.name + "."):
                    key = f"{child.name}.{key}"
                yield key, arr

    def _state_items(self):
        """(key, live array) of every parameter, then every buffer: the keys
        and order of :meth:`state_dict`, without its copies."""
        for p in self.params():
            yield p.name, p.data
        yield from self._buffer_items()

    def state_dict(self) -> dict:
        """Full serializable state: parameters plus non-trainable buffers
        (e.g. BatchNorm running statistics) — an eval-mode restore silently
        misbehaves without the latter."""
        return {name: arr.copy() for name, arr in self._state_items()}

    def load_state_dict(self, state: Mapping) -> None:
        """Strict restore of :meth:`state_dict` output (in-place).

        Strict both ways: missing entries raise, and so do surplus ones — a
        state dict with unknown keys almost always means the checkpoint came
        from a different architecture, and dropping weights silently is how
        serving ends up with a half-restored model.

        Each value is read once, copied in and dropped, so a lazy mapping
        (an open ``NpzFile``) holds one array at a time."""
        params = {p.name: p for p in self.params()}
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        known = set(params) | {name for name, _ in self._buffer_items()}
        unexpected = set(state) - known
        if unexpected:
            raise KeyError(
                f"state dict has unexpected keys: {sorted(unexpected)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs "
                    f"{param.data.shape}")
            param.data[...] = value
        for name, arr in self._buffer_items():
            if name not in state:
                raise KeyError(f"state dict missing buffer: {name!r}")
            value = np.asarray(state[name], dtype=arr.dtype)
            if value.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs "
                    f"{arr.shape}")
            arr[...] = value

    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def param_bytes(self) -> int:
        return sum(p.nbytes for p in self.params())

    # -- modes -------------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self.children():
            child.eval()
        return self

    # -- accounting --------------------------------------------------------
    def flops(self, batch: int) -> int:
        """FLOPs of one forward pass for ``batch`` samples. 0 by default."""
        return 0

    def output_shape(self, input_shape):
        """Shape of the output (excluding batch) given input shape (ex-batch)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


def run_layers(layers, x: np.ndarray) -> np.ndarray:
    """``x`` through ``layers``, one whole tensor at a time."""
    for layer in layers:
        x = layer.forward(x)
    return x


def check_grad_out(name: str, grad_out: np.ndarray, expected) -> None:
    """Reject, by layer name, a ``grad_out`` that is not the shape of the
    forward's output: NumPy would broadcast it, or reshape an equal-size
    one, into a gradient of the wrong images."""
    if grad_out.shape != tuple(expected):
        raise ValueError(f"{name}: expected grad_out of shape "
                         f"{tuple(expected)}, got {grad_out.shape}")


def check_sizes(name: str, **sizes) -> List[int]:
    """``sizes`` as Python ``int``s, refused by layer name and field unless
    each is an integer >= 1 (a ``pad``: >= 0), not at the first forward."""
    return [require_count(f"{name}: {field}", value,
                          least=0 if field == "pad" else 1)
            for field, value in sizes.items()]


from repro.core.parameter import Parameter  # noqa: E402  (cycle-free re-export)
