"""The six benchmark workloads.

Every workload is closed loop with one client: the users of all three
paths are callers that wait for a reply (``executor.run``,
``fit_classifier``, ``sim.run``), so the next operation starts when the
previous one returned. An *operation* (op) is one such call; an *item* is
one image, one training sample or one simulated request.

A workload object is built once per worker process (that is the set-up
being timed) and then asked for operations:

- ``op(kind, j, seed)`` is the timed call and nothing else;
- ``traced_op(kind, j, seed, tracer)`` is the same call under spans;
- ``record(kind, raw)`` reduces the call's result to a small JSON value
  the golden files store; ``check`` lists violated identities.

Inputs come from ``seed`` only. Warm-up operations always use
``GOLDEN_SEED`` inputs, so every run — whatever seed times it — compares
real outputs against ``bench/golden/``; timed operations use the run's
seed and are held to identities (finite, repeatable, conserving).

Sizes: an op is ~0.5-1 s on the 2-core reference box. ``smoke`` shrinks
everything so the whole suite finishes in well under a minute.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List

import numpy as np

from repro.cluster.failures import FailureEvent
from repro.data.hep.dataset import make_hep_dataset
from repro.distributed.hybrid import HybridTrainer
from repro.flops.counter import count_layer, count_net
from repro.flops.roofline import layer_bytes_moved
from repro.models import build_hep_net
from repro.models.climate import PAPER_DECODER, PAPER_ENCODER, ClimateNet
from repro.optim import SGD, Adam
from repro.serve import (
    MMPP,
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchExecutor,
    BatchingPolicy,
    ModelMix,
    ModelProfile,
    ModelRegistry,
    Profiler,
    ServingSimulator,
    ZipfPopularity,
    make_arrivals,
    make_contents,
    make_model_ids,
)
from repro.sim.workload import climate_workload, custom_workload, hep_workload
from repro.train import fit_classifier, hep_loss_fn
from repro.utils.rng import spawn_rngs
from repro.utils.timers import Timer

from tracing import Tracer, layer_hooks

#: seed of the committed goldens; every run's warm-up ops use its inputs
GOLDEN_SEED = 0


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _samples(arr: np.ndarray, n: int = 8) -> List[float]:
    """``n`` evenly spaced entries of ``arr`` — a golden-sized fingerprint
    of a tensor too large to store whole."""
    flat = np.asarray(arr).ravel()
    idx = np.linspace(0, flat.size - 1, min(n, flat.size)).astype(np.int64)
    return [float(v) for v in flat[idx]]


class Workload:
    """Interface the worker drives; see the module docstring."""

    name = ""
    kinds: tuple = ()
    item = "items"
    #: golden tolerance for floats (relative or absolute, whichever is
    #: looser); strings and integers always compare exactly
    tol = 0.0
    #: how strongly host interference slows this workload, relative to the
    #: pure-Python reference loop (``worker.reference_loop``): its time
    #: grows as ``reference time ** interference``. 1 is interpreter-bound
    #: code like the loop itself, less is memory-bound array code. Fitted
    #: on the reference box (log-log slope over ~300 ops per workload while
    #: the host flipped between its two speeds); see bench/README.md.
    interference = 0.6
    #: the per-layer metric that the RSS this workload's ops add on top of
    #: its set-up is reported as (``None``: not reported)
    memory_metric = "nn.workspace_mb"

    def items(self, kind: str) -> int:
        raise NotImplementedError

    def root(self, kind: str) -> str:
        """Name of the span whose duration is a traced op's time."""
        raise NotImplementedError

    def op(self, kind: str, j: int, seed: int):
        raise NotImplementedError

    def traced_op(self, kind: str, j: int, seed: int, tr: Tracer):
        raise NotImplementedError

    def record(self, kind: str, raw) -> dict:
        raise NotImplementedError

    def check(self, kind: str, seed: int, raw, rec: dict) -> List[str]:
        raise NotImplementedError

    def static(self) -> dict:
        """Computed (not measured) per-op quantities: FLOPs, bytes."""
        return {}


# -- real path: batched inference through the registry ----------------------

def _flop_records(net, input_shape, batch: int) -> list:
    """``LayerFlops`` of every leaf of ``net`` (``ClimateNet`` branches at
    the encoder output, exactly as ``climate_workload`` walks it)."""
    if isinstance(net, ClimateNet):
        enc = count_net(net.encoder, input_shape, batch).layers
        feat = enc[-1].output_shape
        heads = [count_layer(h, feat, batch)
                 for h in (net.conf_head, net.cls_head, net.box_head)]
        return enc + heads + count_net(net.decoder, feat, batch).layers
    return count_net(net, input_shape, batch).layers


def _computed(net, input_shape, batch: int, calls: int = 1) -> dict:
    """Forward FLOPs and streamed bytes per op of the conv and deconv
    layers — computed from shapes, never measured."""
    out: Dict[str, float] = {}
    for rec in _flop_records(net, input_shape, batch):
        if rec.kind in ("conv", "deconv"):
            for key, value in (("flops", rec.forward_flops),
                               ("bytes", layer_bytes_moved(rec, batch))):
                key = f"nn.{rec.kind}.{key}"
                out[key] = out.get(key, 0) + calls * value
    return out


class _Infer(Workload):
    """``BatchExecutor(registry.load(name)).run(2 images, max_batch=2)``."""

    kinds = ("infer",)
    item = "images"
    tol = 1e-4
    model = ""

    def build(self, smoke: bool):
        """``(zero-arg net builder, per-sample input shape)``."""
        raise NotImplementedError

    def __init__(self, seed: int, smoke: bool, stages: Timer,
                 workdir) -> None:
        builder, self.shape = self.build(smoke)
        with stages.section("models.build"):
            net = builder()
        with stages.section("serve.registry.load"):
            registry = ModelRegistry(workdir)
            registry.register(self.model, builder, self.shape)
            registry.publish(self.model, net)
            self.replica = registry.load(self.model)
        with stages.section("data.gen"):
            self.inputs = {
                s: list(np.random.default_rng(s).standard_normal(
                    (2,) + self.shape).astype(np.float32))
                for s in {GOLDEN_SEED, seed}}
        self.executor = BatchExecutor(self.replica)
        self.policy = BatchingPolicy(max_batch=2)
        self._first: Dict[int, dict] = {}

    def items(self, kind):
        return 2

    def root(self, kind):
        return "serve.batching"

    def op(self, kind, j, seed):
        return self.executor.run(self.inputs[seed], self.policy)

    def traced_op(self, kind, j, seed, tr):
        with tr.hooked(layer_hooks(self.replica.net)), \
                tr.span("serve.batching"):
            return self.op(kind, j, seed)

    def check(self, kind, seed, raw, rec):
        problems = []
        if not _finite(_leaves(rec)):
            problems.append("non-finite output")
        # the same two images every op: the outputs must repeat
        first = self._first.setdefault(seed, rec)
        problems += [f"differs from this run's first output: {d}"
                     for d in differences(rec, first, self.tol)]
        return problems

    def static(self):
        return _computed(self.replica.net, self.shape, batch=2)


class HepInfer(_Infer):
    """Paper-shape HEP classifier: Conv3x3 + ReLU + MaxPool, no deconv."""

    name = "hep_infer"
    model = "hep"

    def build(self, smoke):
        size, filters = (64, 32) if smoke else (224, 128)
        return (lambda: build_hep_net(filters=filters, rng=0),
                (3, size, size))

    def record(self, kind, raw):
        return {"logits": [[float(v) for v in out] for out in raw]}


class ClimateInfer(_Infer):
    """The paper's ClimateNet topology (9 strided/3x3 convs, three 1x1
    heads, 5 deconvs) at a quarter of its width: deconv/col2im dominate.

    Quarter width because the registry constructs the net three times per
    set-up (publish-spec, publish, load) and the full-width net costs ~4 s
    per construction — more than the whole measuring window.
    """

    name = "climate_infer"
    model = "climate"
    interference = 0.3      # col2im scatter: the most memory-bound

    def build(self, smoke):
        width, size = (1 / 32, 64) if smoke else (1 / 4, 256)
        enc = [(int(c * width), k, s) for c, k, s in PAPER_ENCODER]
        dec = [(int(c * width), k, s) for c, k, s in PAPER_DECODER]
        dec[-1] = (16,) + PAPER_DECODER[-1][1:]
        return (lambda: ClimateNet(16, 3, enc, dec, rng=0),
                (16, size, size))

    def record(self, kind, raw):
        return {key: [_samples(out[key]) for out in raw]
                for key in ("conf", "cls", "box", "recon")}


# -- training path ----------------------------------------------------------

def _hep_data(seed: int, n_events: int, size: int):
    data = make_hep_dataset(n_events, image_size=size, seed=seed)
    return data.images, data.labels


class HepTrain(Workload):
    """One ``fit_classifier`` iteration of the full 128-filter HEP net:
    train-mode forward, backward, Adam step."""

    name = "hep_train"
    kinds = ("step",)
    item = "samples"
    tol = 1e-3
    batch = 8

    def __init__(self, seed, smoke, stages, workdir):
        size, filters = (32, 16) if smoke else (64, 128)
        self.shape = (3, size, size)
        with stages.section("models.build"):
            self.net = build_hep_net(filters=filters, rng=0)
            self.optimizer = Adam(self.net.params(), lr=1e-3)
        with stages.section("data.gen"):
            self.data = {s: _hep_data(s, 96, size)
                         for s in {GOLDEN_SEED, seed}}

    def items(self, kind):
        return self.batch

    def root(self, kind):
        return "train.loop"

    def op(self, kind, j, seed, loss_fn=hep_loss_fn):
        x, y = self.data[seed]
        return fit_classifier(self.net, self.optimizer, x, y,
                              batch=self.batch, n_iterations=1,
                              loss_fn=loss_fn, seed=seed + j)

    def traced_op(self, kind, j, seed, tr):
        hooks = layer_hooks(self.net, backward=True)
        hooks.append((self.optimizer, "step", "optim.adam.step"))
        # the loss span's self time is the loss: the forward inside
        # hep_loss_fn is covered by the layers' own spans
        loss_fn = tr.wrap("nn.losses.loss", hep_loss_fn)
        with tr.hooked(hooks), tr.span("train.loop"):
            return self.op(kind, j, seed, loss_fn)

    def record(self, kind, raw):
        return {"losses": [float(v) for v in raw.losses]}

    def check(self, kind, seed, raw, rec):
        losses = rec["losses"]
        if len(losses) != 1 or not _finite(losses) \
                or not 0.0 < losses[0] < 10.0:
            return [f"implausible loss trajectory {losses}"]
        return []

    def static(self):
        return _computed(self.net, self.shape, self.batch)


class HybridTrain(Workload):
    """The paper's hybrid trainer on tiny nets: ``distributed.hybrid`` and
    the per-layer parameter servers, where per-call overhead — not array
    math — dominates. Deterministic virtual-time schedule, one thread."""

    name = "hybrid_train"
    kinds = ("round",)
    item = "samples"
    tol = 1e-3

    def __init__(self, seed, smoke, stages, workdir):
        (self.groups, filters, size, self.group_batch,
         self.iterations) = (2, 8, 16, 8, 2) if smoke else (4, 16, 32, 32, 4)
        self.shape = (3, size, size)
        with stages.section("models.build"):
            # The trainer's own seed only draws minibatch indices; the
            # run's seed picks the data they index.
            self.trainer = HybridTrainer(
                lambda: build_hep_net(filters=filters, rng=0),
                lambda params: SGD(params, lr=0.01, momentum=0.9),
                hep_loss_fn, n_groups=self.groups, seed=GOLDEN_SEED)
        with stages.section("data.gen"):
            self.data = {s: _hep_data(s, 256, size)
                         for s in {GOLDEN_SEED, seed}}
        self.n_layers = len(self.trainer.registry)
        self._updates = 0

    @property
    def steps(self) -> int:
        return self.groups * self.iterations

    def items(self, kind):
        return self.steps * self.group_batch

    def root(self, kind):
        return "distributed.hybrid"

    def op(self, kind, j, seed):
        x, y = self.data[seed]
        return self.trainer.run(x, y, group_batch=self.group_batch,
                                n_iterations=self.iterations,
                                drift=[1.0] * self.groups)

    def traced_op(self, kind, j, seed, tr):
        hooks = [h for net in self.trainer.nets
                 for h in layer_hooks(net, backward=True)]
        registry = self.trainer.registry
        hooks += [(registry, "push_from", "distributed.param_server"),
                  (registry, "pull_into", "distributed.param_server"),
                  (self.trainer, "loss_fn", "nn.losses.loss")]
        with tr.hooked(hooks), tr.span("distributed.hybrid"):
            result = self.op(kind, j, seed)
        tr.count("distributed.param_server.staleness_mean",
                 float(result.staleness.mean()))
        return result

    def record(self, kind, raw):
        return {"losses": [float(v) for t in raw.traces for v in t.losses],
                "n_updates": int(raw.staleness.size),
                "staleness_sum": int(raw.staleness.sum())}

    def check(self, kind, seed, raw, rec):
        problems = []
        losses = rec["losses"]
        if len(losses) != self.steps or not _finite(losses):
            problems.append(f"expected {self.steps} finite losses, "
                            f"got {losses}")
        # the PS log is cumulative: each op adds one update per layer
        # per group iteration
        self._updates += self.n_layers * self.steps
        if rec["n_updates"] != self._updates:
            problems.append(f"{rec['n_updates']} PS updates logged, "
                            f"expected {self._updates}")
        return problems

    def static(self):
        return _computed(self.trainer.nets[0], self.shape,
                         self.group_batch, calls=self.steps)


# -- virtual path: the serving simulator ------------------------------------

def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _climate_profile(smoke: bool):
    """The paper-size climate ``Workload`` (its construction builds the
    302 MiB net, ~4 s — part of the measured set-up). Smoke substitutes a
    wide HEP net: the simulator only needs a second, slower service
    curve."""
    if smoke:
        return custom_workload("climate", build_hep_net(filters=256, rng=0),
                               (3, 224, 224))
    return climate_workload()


class _Sim(Workload):
    """Shared record/check of the simulator workloads. ``self.cfg[kind]``
    is ``(simulator, n_requests, run kwargs)``."""

    item = "requests"
    engine = "event"
    memory_metric = None

    def items(self, kind):
        return self.cfg[kind][1]

    def op(self, kind, j, seed):
        sim, n, kwargs = self.cfg[kind]
        return sim.run(n_requests=n, seed=seed + j, **kwargs)

    def record(self, kind, raw):
        # Exact: the simulator is deterministic per seed, so a digest of
        # every latency and batch size is the check, not a summary.
        return {"latencies_sha256": _sha256(raw.latencies),
                "batch_sizes_sha256": _sha256(raw.batch_sizes),
                "n_offered": raw.n_offered,
                "n_completed": raw.n_completed,
                "n_dropped": raw.n_dropped,
                "n_failed": raw.n_failed,
                "n_cache_hits": raw.n_cache_hits,
                "horizon": float(raw.horizon).hex()}

    def check(self, kind, seed, raw, rec):
        problems = []
        sim, n, _ = self.cfg[kind]
        if raw.n_offered != n:
            problems.append(f"offered {raw.n_offered} != requested {n}")
        if raw.n_completed + raw.n_dropped + raw.n_failed != raw.n_offered:
            problems.append(
                f"completed {raw.n_completed} + dropped {raw.n_dropped} + "
                f"failed {raw.n_failed} != offered {raw.n_offered}")
        on_replicas = raw.n_completed - raw.n_cache_hits - raw.n_coalesced
        if int(raw.batch_sizes.sum()) != on_replicas:
            problems.append(f"batch sizes sum to {raw.batch_sizes.sum()}, "
                            f"{on_replicas} requests ran on replicas")
        if sim.last_run_engine != self.engine:
            problems.append(f"ran on the {sim.last_run_engine!r} engine, "
                            f"expected {self.engine!r}")
        return problems

    def count_simulated(self, tr: Tracer, kind: str, raw) -> None:
        """Simulated (virtual-time) results: exact per seed, so any change
        is a behaviour change, never noise."""
        sim = self.cfg[kind][0]
        tr.count("serve.router.shed_share", raw.drop_rate)
        tr.count("serve.batching.mean_batch", raw.mean_batch_size)
        tr.count("serve.metrics.p99_ms", raw.p99 * 1e3)
        tr.count("serve.metrics.attainment",
                 raw.attainment(sim.default_slo()))


def _two_models(hep, climate):
    return dict(models=[ModelProfile("hep", hep, weight=4.0),
                        ModelProfile("climate", climate, weight=1.0)],
                model_mix=ModelMix((0.9, 0.1)))


class SimArray(_Sim):
    """The three ``fast_core`` drive loops at 10^6 requests: host time of
    the array engine, arrival generation and ``collect``."""

    name = "sim_array"
    kinds = ("plain", "cached", "multi")
    engine = "array"
    interference = 0.95     # flat Python loops over lists
    memory_metric = "serve.fast_core.peak_mb"
    #: the fast_core drive loop each kind lands on
    loop = {"plain": "flat", "cached": "cached", "multi": "multi"}

    def __init__(self, seed, smoke, stages, workdir):
        n, replicas = (20_000, 8) if smoke else (1_000_000, 64)
        with stages.section("models.build"):
            hep, climate = hep_workload(), _climate_profile(smoke)
        fleet = dict(n_replicas=replicas, policy=BatchingPolicy(max_batch=32),
                     max_queue=128, engine="array")
        plain = ServingSimulator(hep, **fleet)
        cached = ServingSimulator(hep, cache_size=128, **fleet)
        multi = ServingSimulator(**_two_models(hep, climate), **fleet)
        self.cfg = {
            "plain": (plain, n, dict(
                rate=1.05 * plain.saturation_rate(), process="poisson")),
            "cached": (cached, n, dict(
                rate=2.0 * cached.saturation_rate(), process="poisson",
                popularity=ZipfPopularity(alpha=1.1, n_keys=4096))),
            "multi": (multi, n, dict(
                rate=1.05 * multi.saturation_rate(), process="poisson")),
        }

    def root(self, kind):
        return f"serve.fast_core.{self.loop[kind]}.run"

    def traced_op(self, kind, j, seed, tr):
        # A profiler would force the event-loop fallback, so the array
        # engine's stage split is run time minus arrival generation, the
        # latter timed by calling the generators with the run's arguments.
        with tr.span(self.root(kind)):
            raw = self.op(kind, j, seed)
        sim, n, kwargs = self.cfg[kind]
        with tr.span(f"serve.arrivals.gen.{kind}"):
            make_arrivals(kwargs["process"], kwargs["rate"], n,
                          seed=seed + j)
            if "popularity" in kwargs:
                make_contents(kwargs["popularity"], n,
                              seed=spawn_rngs(seed + j, 2)[1])
            if sim.models is not None:
                make_model_ids(sim.model_mix, n,
                               seed=spawn_rngs(seed + j, 3)[2])
        if kind == "plain":
            self.count_simulated(tr, kind, raw)
        elif kind == "cached":
            tr.count("serve.cache.hit_rate", raw.hit_rate)
        return raw


class SimEvent(_Sim):
    """Control-heavy configurations ``unsupported_reason()`` keeps on the
    event loop: ``slo_sim._drive``, ``router`` and ``autoscale`` do all
    the work and ``fast_core`` none."""

    name = "sim_event"
    kinds = ("edf", "autoscale")
    interference = 0.75

    def __init__(self, seed, smoke, stages, workdir):
        n_edf, n_auto, replicas = ((5_000, 2_000, 4) if smoke
                                   else (60_000, 24_000, 16))
        with stages.section("models.build"):
            hep, climate = hep_workload(), _climate_profile(smoke)
        edf = ServingSimulator(
            **_two_models(hep, climate), n_replicas=replicas,
            policy=BatchingPolicy(max_batch=32), max_queue=1024,
            order="edf", cost_aware=True)
        policy = BatchingPolicy(max_batch=32, max_wait=0.010)
        one = ServingSimulator(hep, n_replicas=1, policy=policy)
        slo = one.default_slo()
        # quarter-SLO control epochs: the controller's per-epoch scan of
        # the admitted set is what makes this the costliest loop per
        # request in the repo
        auto = AutoscalingSimulator(
            hep, policy=policy,
            autoscale=AutoscalePolicy(max_replicas=8, epoch=0.25 * slo,
                                      cooldown_epochs=0, step_out=2),
            failure_events=[FailureEvent(1.0, 0, "fail")])
        self.cfg = {
            "edf": (edf, n_edf, dict(
                rate=0.9 * edf.saturation_rate(), process="poisson")),
            "autoscale": (auto, n_auto, dict(
                rate=3.0 * one.saturation_rate(), process=MMPP(burst=8.0),
                slo=slo)),
        }

    def root(self, kind):
        return {"edf": "serve.slo_sim.edf.run",
                "autoscale": "serve.autoscale.run"}[kind]

    def traced_op(self, kind, j, seed, tr):
        sim, n, kwargs = self.cfg[kind]
        if kind == "autoscale":
            with tr.span("serve.autoscale.run"):
                raw = self.op(kind, j, seed)
            tr.count("serve.autoscale.scale_events", len(raw.scale_events))
            tr.count("serve.autoscale.epochs", len(raw.epochs))
            return raw
        # The event engine has an opt-in profiler of its own: its stage
        # totals become child spans, laid end to end in stage order.
        profiler = Profiler()
        with tr.span("serve.slo_sim.edf.run") as root:
            raw = sim.run(n_requests=n, seed=seed + j, profiler=profiler,
                          **kwargs)
        totals = profiler.totals()
        at = tr.spans[root][1]
        for stage in ("arrivals", "drive", "drain", "collect"):
            spent = totals.get("run." + stage, 0.0)
            tr.add("serve.slo_sim.edf." + stage, at, at + spent, root)
            at += spent
        # inclusive totals (submit contains sync), so counts, not spans
        tr.count("serve.router.submit_s", totals.get("router.submit", 0.0))
        tr.count("serve.router.sync_s", totals.get("router.sync", 0.0))
        self.count_simulated(tr, kind, raw)
        return raw


WORKLOADS = {cls.name: cls for cls in (HepInfer, ClimateInfer, HepTrain,
                                       HybridTrain, SimArray, SimEvent)}


# -- golden comparison ------------------------------------------------------

def _leaves(value) -> list:
    if isinstance(value, dict):
        return [x for v in value.values() for x in _leaves(v)]
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    return [value]


def differences(got, want, tol: float, path: str = "") -> List[str]:
    """Where ``got`` departs from ``want``: floats within ``tol``
    (relative or absolute), everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path or 'record'}: keys {sorted(got)} != "
                    f"{sorted(want)}"]
        return [d for key in want
                for d in differences(got[key], want[key], tol,
                                     f"{path}.{key}" if path else key)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} values, expected {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, tol, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=tol, abs_tol=tol):
            return []
        return [f"{path}: {got!r} expected {want!r} (tolerance {tol:g})"]
    if got != want:
        return [f"{path}: {got!r} expected {want!r}"]
    return []
