"""Model registry: versioned checkpoints -> immutable eval-mode replicas.

Training (:mod:`repro.train`) publishes snapshots; serving loads them. The
registry pairs a *builder* (architecture) with a directory of versioned
``.npz`` checkpoints (weights), so a replica is always reconstructed from
code + data rather than pickled — the same split the paper's IntelCaffe
deployment had between prototxt and caffemodel.

Loaded replicas are frozen: parameter and buffer arrays are marked
read-only, so a stray optimizer step or in-place edit on a serving replica
raises instead of silently skewing production traffic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.initializers import undrawn
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.utils.checks import require_real

_VERSION_RE = re.compile(r"^v(\d+)\.npz$")
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")  # fullmatch: one path component


@dataclass(frozen=True)
class ModelProfile:
    """One registered model as the serving *simulator* sees it.

    Pairs the model's identity with its :class:`~repro.sim.workload.
    Workload` (which sets its Fig 5 service curve — HEP and climate have
    very different ones), its latency target, and its admission ``weight``
    (higher weight = shed later under overload; see
    :meth:`~repro.serve.slo_sim.ServingSimulator.admission_limits`). ``slo=None`` lets the simulator
    derive the model's default target from its own batch service time.

    ``policy`` (optional) gives the model its *own*
    :class:`~repro.serve.batching.BatchingPolicy` — a slow scan model can
    cap ``max_batch`` low to bound the head-of-line block it inflicts on
    the shared replica, while a fast model fills deep batches. ``None``
    inherits the simulator-wide policy.

    ``weight`` must be strictly positive and finite: a zero weight would
    give the model an admission limit of zero — every request shed even
    at an empty queue — and an infinite one makes every weight ratio
    NaN, both misconfigurations, not policies, so they are rejected here.
    """

    name: str
    workload: object                    # repro.sim.workload.Workload
    slo: Optional[float] = None
    weight: float = 1.0
    policy: Optional[object] = None     # repro.serve.batching.BatchingPolicy

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a model profile needs a name")
        require_real("slo", self.slo, "(0, inf]", none_ok=True)
        object.__setattr__(self, "weight", float(
            require_real("weight", self.weight, "(0, inf)")))
        if self.policy is not None and not hasattr(self.policy, "max_batch"):
            raise ValueError(
                f"policy must be a BatchingPolicy, got {self.policy!r}")


def _state_spec(net) -> Dict[str, Tuple[int, ...]]:
    """{state-dict key: shape} without copying any array — same keys as
    ``net.state_dict()`` (parameters plus buffers)."""
    return {key: tuple(arr.shape) for key, arr in net._state_items()}


def _freeze(net) -> None:
    """Mark every parameter and buffer array read-only, in place."""
    for p in net.params():
        p.data.flags.writeable = False
    if hasattr(net, "_buffer_items"):
        for _, arr in net._buffer_items():
            arr.flags.writeable = False


class ServableModel:
    """An immutable, eval-mode replica of a registered model.

    ``forward``/``__call__`` validate the input signature (per-sample shape)
    and run the frozen net. Train-mode switches are refused — a replica is a
    snapshot, not a trainee.
    """

    def __init__(self, name: str, version: int, net,
                 input_shape: Tuple[int, ...]) -> None:
        self.name = name
        self.version = version
        self.input_shape = tuple(input_shape)
        net.eval()
        _freeze(net)
        self.net = net

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float32)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"{self.name}:v{self.version} expects per-sample shape "
                f"{self.input_shape}, got batch of {tuple(x.shape[1:])}")
        return self.net.forward(x)

    def __call__(self, x: np.ndarray):
        return self.forward(x)

    def train(self):  # pragma: no cover - guard rail
        raise RuntimeError(
            f"{self.name}:v{self.version} is a frozen serving replica; "
            "train on a fresh builder() net and publish a new version")

    @property
    def cache_scope(self) -> Tuple[str, int]:
        """Identity prefix for request-level result caching.

        :class:`~repro.serve.batching.BatchExecutor` prefixes cache keys
        with this, so one :class:`~repro.serve.cache.ResultCache` shared
        across models (or across versions during a rollout) can never
        return a prediction computed by a *different* frozen net for the
        same input bytes.
        """
        return (self.name, self.version)

    def param_bytes(self) -> int:
        return self.net.param_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServableModel({self.name}:v{self.version}, "
                f"input={self.input_shape})")


class ModelRegistry:
    """Builder + versioned checkpoint store under one root directory.

    Layout: ``root/<model-name>/v<NNNN>.npz``. ``publish`` writes the next
    version; ``load`` reconstructs an eval-mode :class:`ServableModel` from
    any stored version (latest by default).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._builders: Dict[str, Callable[[], object]] = {}
        self._input_shapes: Dict[str, Tuple[int, ...]] = {}
        #: name -> the validated simulator face of the model
        self._profiles: Dict[str, ModelProfile] = {}
        #: called with (name, new_version) after every successful publish —
        #: rollout machinery (e.g. result-cache invalidation) hangs off it
        self._publish_hooks: List[Callable[[str, int], None]] = []
        #: name -> expected state-dict spec {key: shape}, read once off an
        #: undrawn builder() net (shapes only: no weight is drawn or touched)
        self._specs: Dict[str, Dict[str, Tuple[int, ...]]] = {}

    # -- registration --------------------------------------------------------
    def register(self, name: str, builder: Callable[[], object],
                 input_shape: Tuple[int, ...],
                 workload: Optional[object] = None,
                 slo: Optional[float] = None,
                 weight: float = 1.0,
                 policy: Optional[object] = None) -> None:
        """Associate ``name`` with a zero-arg net factory and its per-sample
        input shape.

        ``workload``/``slo``/``weight``/``policy`` are the
        serving-simulator face of the model (see :class:`ModelProfile`):
        registering them here is
        what lets one registry describe the whole multi-model fleet —
        :meth:`profiles` hands the set straight to
        :class:`~repro.serve.slo_sim.ServingSimulator(models=...)`.
        """
        # The name becomes a directory under root: allow one plain path
        # component only (no separators, no '.'/'..' traversal).
        if not _NAME_RE.fullmatch(name) or name in (".", ".."):
            raise ValueError(f"invalid model name {name!r}")
        if name in self._builders:
            raise ValueError(f"model {name!r} already registered")
        # Validate everything (eagerly, even without a workload) BEFORE
        # touching any dict — a failed register must leave no trace, or
        # the corrected retry hits "already registered" forever.
        profile = ModelProfile(name, workload, slo=slo, weight=weight,
                               policy=policy)
        shape = tuple(input_shape)
        self._builders[name] = builder
        self._input_shapes[name] = shape
        self._profiles[name] = profile

    def names(self) -> List[str]:
        return sorted(self._builders)

    # -- the simulator-facing model set ---------------------------------------
    def profile(self, name: str) -> ModelProfile:
        """The :class:`ModelProfile` of one registered model (requires a
        ``workload`` to have been registered for it)."""
        self._require(name)
        if self._profiles[name].workload is None:
            raise ValueError(
                f"model {name!r} was registered without a workload; the "
                f"simulator needs one for its service-time curve")
        return self._profiles[name]

    def profiles(self,
                 names: Optional[List[str]] = None) -> List[ModelProfile]:
        """Simulator-ready profiles, registration order (or ``names``).

        Only models registered with a workload are included when ``names``
        is None — the registry may also hold real-path-only models.
        """
        if names is None:
            names = [n for n, p in self._profiles.items()
                     if p.workload is not None]
        return [self.profile(n) for n in names]

    def _require(self, name: str) -> None:
        if name not in self._builders:
            raise KeyError(
                f"unknown model {name!r}; registered: {self.names()}")

    # -- versions ------------------------------------------------------------
    def _version_files(self, name: str) -> Dict[int, Path]:
        """version -> checkpoint path, from whatever v<N>.npz files exist
        (zero-padded or not, so hand-placed checkpoints load too)."""
        model_dir = self.root / name
        out: Dict[int, Path] = {}
        if model_dir.is_dir():
            for f in sorted(model_dir.iterdir()):
                m = _VERSION_RE.match(f.name)
                if m:
                    version = int(m.group(1))
                    if version in out:
                        raise ValueError(
                            f"model {name!r} has two checkpoints for "
                            f"version {version}: {out[version].name} and "
                            f"{f.name}; remove one")
                    out[version] = f
        return out

    def versions(self, name: str) -> List[int]:
        """Published versions of ``name``, ascending (empty if none)."""
        self._require(name)
        return sorted(self._version_files(name))

    def latest(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise FileNotFoundError(
                f"model {name!r} has no published checkpoints under "
                f"{self.root / name}")
        return versions[-1]

    def _path(self, name: str, version: int) -> Path:
        return self.root / name / f"v{version:04d}.npz"

    # -- publish / load ------------------------------------------------------
    def _spec(self, name: str) -> Dict[str, Tuple[int, ...]]:
        if name not in self._specs:
            with undrawn():
                self._specs[name] = _state_spec(self._builders[name]())
        return self._specs[name]

    def publish(self, name: str, net) -> int:
        """Snapshot ``net`` as the next version of ``name``; returns it.

        The snapshot is validated against the registered builder's
        state-dict spec first (same keys, same shapes — the checks the
        strict loader applies at load time) — publishing an incompatible
        net would otherwise poison the model's latest version and break
        every subsequent ``load``. So would a diverged one: a non-finite
        parameter or buffer is refused by key, before any file is written.
        """
        self._require(name)
        spec = self._spec(name)
        # Shape-only view of the net: no array is copied, here or in
        # save_checkpoint, which writes the live ones.
        state = _state_spec(net)
        problems = []
        missing = set(spec) - set(state)
        unexpected = set(state) - set(spec)
        if missing:
            problems.append(f"missing keys {sorted(missing)}")
        if unexpected:
            problems.append(f"unexpected keys {sorted(unexpected)}")
        problems += [
            f"shape mismatch for {key!r}: {state[key]} vs {spec[key]}"
            for key in sorted(set(spec) & set(state))
            if state[key] != spec[key]]
        if problems:
            raise ValueError(
                f"net does not fit the builder registered for {name!r}: "
                + "; ".join(problems))
        diverged = [key for key, arr in net._state_items()
                    if not np.isfinite(arr).all()]
        if diverged:
            raise ValueError(
                f"net for {name!r} has non-finite values in {diverged}; "
                f"not published")
        versions = self.versions(name)
        version = (versions[-1] + 1) if versions else 1
        save_checkpoint(net, self._path(name, version))
        for hook in self._publish_hooks:
            hook(name, version)
        return version

    # -- rollout hooks --------------------------------------------------------
    def on_publish(self, hook: Callable[[str, int], None]) -> None:
        """Call ``hook(name, new_version)`` after every successful publish."""
        self._publish_hooks.append(hook)

    def attach_cache(self, cache) -> None:
        """Invalidate ``cache`` entries of superseded versions on publish.

        Result-cache keys are scoped by ``(name, version)``
        (:attr:`ServableModel.cache_scope`), so entries from an old
        version can never be *served* for a new one — but after a rollout
        they are dead weight squatting in a bounded cache. Attaching the
        cache here evicts every older version's entries the moment
        ``publish`` creates a new one.
        """
        def _invalidate(name: str, version: int) -> None:
            for v in self.versions(name):
                if v != version:
                    cache.invalidate_scope((name, v))
        self.on_publish(_invalidate)

    def load(self, name: str,
             version: Optional[int] = None) -> ServableModel:
        """Rebuild ``name`` at ``version`` (default: latest) for serving."""
        self._require(name)
        if version is None:
            version = self.latest(name)
        files = self._version_files(name)
        if version not in files:
            raise FileNotFoundError(
                f"model {name!r} has no version {version} "
                f"(have {sorted(files)})")
        # The strict loader overwrites every parameter and buffer (or
        # raises), so nothing an initializer would have drawn is ever read.
        with undrawn():
            net = self._builders[name]()
        load_checkpoint(net, files[version])
        return ServableModel(name, version, net, self._input_shapes[name])
