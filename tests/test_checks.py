"""Every numeric parameter is checked where it is built, by one module.

A generated walk covers every class and function in the ``__all__`` of the
``repro`` packages: each parameter with a numeric default, or an
``Optional[int]`` / ``Optional[float]`` one that defaults to ``None``, gets
NaN, the string ``"1"``, +inf and -inf (and 2.5 for an integer), every other
argument comes from ``FIXTURES``, and each call must raise ``ValueError``
naming the parameter, or be on ``ALLOWED``: an infinity that means "none".

The hand-written rows cover what the walk cannot reach: required
parameters, methods, values inside a container, and finite values outside
an interval. A row builds its object with a valid value, then each bad
value must raise ``ValueError`` naming the parameter. A hole says what its
bad values did when nothing refused them: built an object that drew the
wrong thing, hung, or crashed far from the cause.
"""

from __future__ import annotations

import importlib
import inspect
import math
import numbers
import os
import pkgutil
import re

import numpy as np
import pytest

import repro
from repro.cluster.events import EventQueue
from repro.cluster.failures import FailureModel, StragglerModel
from repro.cluster.knl import KNLNodeModel
from repro.cluster.machine import cori
from repro.cluster.mcdram import MCDRAMConfig
from repro.cluster.topology import DragonflyTopology
from repro.comm import AlphaBetaModel, ThreadWorld
from repro.core.parameter import Parameter
from repro.core.sequential import Sequential
from repro.data.hep import EventGenerator
from repro.distributed import (ElasticHybridTrainer, HybridTrainer,
                               SyncDataParallel)
from repro.models.bbox import Box
from repro.nn import Conv2D, Deconv2D, Dense
from repro.optim import SGD, ConstantLR
from repro.optim.quantize import quantization_step
from repro.serve import (
    AutoscalePolicy, AutoscalingSimulator, BatchingPolicy, LatencyStats,
    MetricsRegistry, ModelMix, ModelRegistry, ReplicaBatchQueue, Router,
    ServingSimulator, Tracer, sweep_cache_sizes)
from repro.serve.fast_core import FastRun
from repro.sim.headline import checkpoint_time
from repro.sim.sampling import expected_max_std_normal, sample_max_std_normal
from repro.sim.workload import hep_workload
from repro.train.loop import hep_loss_fn
from repro.utils.checks import require_count, require_real

INF = math.inf
NAN = math.nan
#: bad values of a row: a real refusing +inf (R), one taking +inf as
#: "none" (R_NONE), one that must be finite (R_FINITE), a count (C)
R, R_NONE, R_FINITE = (NAN, "1", INF), (NAN, "1", -INF), (NAN, "1", INF, -INF)
C = R + (2.5,)


class FakeService:
    """Duck-typed ServiceTimeModel stand-in: affine batch time, fast."""

    def batch_time(self, b):
        return 0.004 + 0.001 * b

    def request_rtt(self):
        return 1e-4

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)


def _router(**kw):
    svc = FakeService().batch_time
    kw = {"n_replicas": 2, **kw}
    return Router(None, kw.pop("n_replicas"), [BatchingPolicy()] * 2,
                  [svc, svc], **kw)


def _traced():
    """A tracer holding a two-request, one-batch run."""
    tr = Tracer()
    tr.add_record(FastRun(
        complete_t=np.array([0.2, 0.2]), shed=np.zeros(2, dtype=bool),
        bstart=np.array([0.1]), bcomp=np.array([0.2]),
        bsize=np.array([2]), brep=np.array([0]),
        members=np.array([0, 1]), bfirst=np.array([0])), np.zeros(2))
    return tr


def _tiny_net():
    return Sequential([Dense(4, 2, name="fc", rng=0)])


def _sgd(params):
    return SGD(params, lr=0.1)


_X, _Y = np.ones((4, 4), dtype=np.float32), np.array([0, 1, 0, 1])


def _trainer(cls=HybridTrainer, **kw):
    return cls(_tiny_net, _sgd, hep_loss_fn, **{"n_groups": 2, **kw})


def _train(trainer=None, **kw):
    return (trainer or _trainer()).run(
        _X, _Y, **{"group_batch": 2, "n_iterations": 1, **kw})


def _rank0():
    return ThreadWorld(1).comm(0)


# -- the generated walk ------------------------------------------------------

def _exported():
    """``{qualified name: callable}`` for every class (not an exception)
    and function in the ``__all__`` of a ``repro`` package."""
    out = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(info.name)
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or (
                    inspect.isclass(obj) and not issubclass(obj, Exception)):
                out.setdefault(obj.__qualname__, obj)
    return out


#: a ``seed`` is any ``SeedLike`` and an ``axis`` is NumPy's to refuse
NOT_NUMBERS = ("seed", "axis")

#: records the program fills from checked inputs: the walk builds no
#: record, so their numeric fields are not inputs to refuse
NOT_WALKED = {
    "Batch": "a launched batch the event engine records per launch",
    "EpochRecord": "one autoscaler observation, filled by the simulator",
    "ScaleReason": "why the autoscaler acted, filled by the autoscaler",
    "SyncTrainResult": "a trainer's output record",
    "TraceEvent": "one traced observation, filled by the tracer",
}

#: ``"Callable.param"`` -> argument; a factory is called per use, and
#: ``TMP`` stands for a directory the walk shares
TMP = object()
_boxes = [Box(0.5, 0.5, 0.1, 0.1), Box(0.4, 0.5, 0.1, 0.1)]
FIXTURES = {
    "params": lambda: [Parameter(np.zeros(2), "w")], "lr": 0.1,
    "workload": hep_workload, "machine": lambda: cori(seed=0),
    "service_models": lambda: [FakeService()], "name": "m",
    "ShardedStore.root": TMP, "n_events": 8, "image_size": 8,
    "warmup_iters": 2,
    "images": lambda: np.ones((2, 1, 4, 4), np.float32),
    "labels": np.array([1, 0]), "scores": np.array([0.9, 0.2]),
    "in_channels": 2, "out_channels": 2, "kernel_size": 3, "channels": 2,
    "batch": 2, "oh": 4, "ow": 4, "height": 16, "width": 16, "size": 32,
    "n_channels": 2, "n_images": 2, "n_requests": 8, "preset": "small",
    "cy": 8.0, "cx": 8.0, "radius": 3, "length": 12.0,
    "x": 0.5, "y": 0.5, "w": 0.1, "h": 0.1, "boxes": _boxes,
    "time": 1.0, "node_id": 0, "kind": "fail", "step_size": 2,
    "base": lambda: ConstantLR(0.1), "net": lambda: Conv2D(1, 1, 3, rng=0),
    "n_nodes": 4, "n_workers": 4, "n_groups": 2, "n_ps": 1, "local_batch": 8,
    "n_iterations": 10, "node_counts": (4,), "sizes": [0],
    "latencies": lambda: np.array([0.1]), "n_offered": 1, "slo": 0.1,
    "weight": 1.0, "policies": lambda: [BatchingPolicy()],
    "service_times": lambda: [FakeService().batch_time],
    "arrivals": lambda: np.array([0.0, 0.1]), "policy": BatchingPolicy,
    "service_time": lambda: FakeService().batch_time,
    "buffers": lambda: [np.zeros(2), np.zeros(2)],
    "node": KNLNodeModel, "config": MCDRAMConfig, "working_set": 1e9,
    "events": lambda: EventGenerator(seed=0).generate(4),
    "conf_prob": lambda: np.full((1, 1, 2, 2), 0.9),
    "class_prob": lambda: np.full((1, 3, 2, 2), 1 / 3),
    "box_pred": lambda: np.zeros((1, 4, 2, 2)),
    "decode_predictions.stride": 8,
    "predictions": [[]], "ground_truth": [[]],
    "space": {"x": (0.0, 1.0, "linear")}, "n_trials": 6,
    "objective": lambda: lambda cfg: cfg["x"],
    "bayes_search.n_candidates": 8, "bayes_search.n_init": 2,
    "headline_run.checkpoint_every": 5, "rate": 10.0, "process": "uniform",
    "mix": (0.5, 0.5), "popularity": "zipf", "capacity": 4, "bound": 1.0,
    "net_factory": lambda: _tiny_net, "opt_factory": lambda: _sgd,
    "loss_fn": lambda: hep_loss_fn, "sync_run_with_failure.x": _X,
    "sync_run_with_failure.y": _Y, "iteration_time": 1.0, "failure_time": 5.0,
    "solver_time": 1.0, "solver_time_saving.p": 4, "ThreadWorld.size": 2,
    "comm": _rank0, "in_features": 4, "out_features": 4, "image_height": 4,
    "nbytes": 100, "model": AlphaBetaModel, "allreduce_time.p": 4,
    "decay": 0.5, "decay_steps": 10, "image_width": 32, "format_bytes.n": 10.0,
    "TropicalCyclone.radius": 3.0, "Autoscaler.policy": AutoscalePolicy,
    "to_chrome.tracer": _traced, "to_chrome.path": os.devnull,
    "phi_shift.shift": 1,
}

#: required parameters the walk tries too, from their value in FIXTURES
REQUIRED = {
    "Conv2D.in_channels", "Conv2D.out_channels", "Conv2D.kernel_size",
    "make_arrivals.rate", "make_arrivals.n_requests", "ResultCache.capacity",
    "make_model_ids.n_requests", "make_contents.n_requests", "Box.x", "Box.y",
    "PerModelStats.slo", "FailureEvent.time", "FailureEvent.node_id",
    "HybridTrainer.n_groups", "SSPTrainer.bound",
    "sync_run_with_failure.batch",
    "sync_run_with_failure.n_iterations", "sync_run_with_failure.failure_time",
    "sync_run_with_failure.iteration_time", "solver_time_saving.p",
    "solver_time_saving.solver_time", "ThreadWorld.size", "allreduce_time.p",
    "ColumnParallelDense.in_features", "ColumnParallelDense.out_features",
    "RowParallelDense.in_features", "RowParallelDense.out_features",
    "SpatialParallelConv2D.image_height", "HybridSimConfig.n_workers",
    "HybridSimConfig.n_groups", "HybridSimConfig.n_ps", "Box.w", "Box.h",
    "HybridSimConfig.local_batch", "SyncIterationModel.n_nodes",
    "SyncIterationModel.local_batch", "SingleNodePerf.batch", "ConstantLR.lr",
    "ExponentialDecayLR.lr", "ExponentialDecayLR.decay", "StepLR.step_size",
    "ExponentialDecayLR.decay_steps", "implicit_async_momentum.n_groups",
    "BatchNorm2D.channels", "Dense.in_features", "make_hep_dataset.n_events",
    "TropicalCyclone.radius", "augmentation_factor.image_width", "StepLR.lr",
    "format_bytes.n", "make_climate_dataset.n_images", "phi_shift.shift",
}

#: ``"Callable.param=value"`` a call keeps, with why: an infinity that
#: means "none". Entries the walk cannot reach carry their own build.
ALLOWED = {
    "BatchingPolicy.max_wait=inf": ("no hold: a lane waits to fill", None),
    "FailureModel.mtbf_node_hours=inf": ("a node that never fails", None),
    "solve_single_step_momentum.p=inf": ("zero gradient variance", None),
    "ModelProfile.slo=inf": ("no latency target", None),
    "sweep_cache_sizes.slo=inf": ("no latency target", None),
    "compare_batching_modes.slo=inf": ("no latency target", None),
    "Router.limits=inf": ("no limit", lambda: _router(limits=[INF, 10])),
    "FailureModel.survival_probability.duration_s=inf": (
        "a run that never ends",
        lambda: FailureModel().survival_probability(4, INF)),
    "Histogram.observe.lat=-inf": (
        "a histogram counts any sample",
        lambda: MetricsRegistry().histogram("lat").observe(-INF)),
    "SSPTrainer.bound=inf": ("no staleness bound: fully asynchronous", None),
    "PerModelStats.slo=inf": ("no latency target", None),
    "ElasticHybridTrainer.failures=inf": (
        "a failure that never comes",
        lambda: _trainer(ElasticHybridTrainer, failures={0: INF})),
    "sync_run_with_failure.failure_time=inf": ("no failure", None),
}

#: finite values outside a walked parameter's interval, tried as well
OUTSIDE = {
    "AlphaBetaModel.alpha": -1.0, "AlphaBetaModel.bandwidth": 0.0,
    "AlphaBetaModel.gamma": -1.0, "AlphaBetaModel.endpoint_factor": 0.0,
    "AriesNetwork.jitter_sigma0": -1.0, "AriesNetwork.jitter_scale": -1.0,
    "MCDRAMConfig.ddr_bandwidth": 0.0, "make_hep_dataset.signal_fraction": 1.5,
    "EventGenerator.bkg_njet_mean": -1.0, "EventGenerator.sig_njet_mean": 2.0,
    "EventGenerator.sig_prong_dr": -1.0, "DetectorModel.angular_sigma": -1.0,
    "DetectorModel.stochastic_term": -1.0, "EventImager.noise_level": -1.0,
    "DetectorModel.constant_term": -1.0,
    "make_climate_dataset.labeled_fraction": 1.5,
}

#: walk cases that close a hole: "Callable.param" -> "n: what it did"
WALK_HOLES = {
    "HotKeyPopularity.mean_streak": "1: a NaN streak drew only hot keys",
    "ModelMix.mean_run": "2: an infinite run sent every draw to one model",
    "StragglerModel.sigma_node": "3: node_factors() returned all NaN",
    "AlphaBetaModel.alpha": "16: every collective time came out NaN",
    "AlphaBetaModel.bandwidth": "17: an infinite bandwidth made bytes free",
    "AriesNetwork.jitter_sigma0": "21: every collective's jitter was NaN",
    "HybridSimConfig.n_iterations": "23: 2.5 or NaN iterations ran",
    "EventImager.pt_scale": "24: a one-jet image had 512 NaN pixels",
    "EventImager.noise_level": "25: a NaN noise level drew no noise",
    "EventImager.jet_radius": "26: 'cannot convert float NaN to integer'",
    "EventGenerator.sig_prong_dr": "27: second prongs' offsets were NaN",
    "EventGenerator.pt_min": "28: a NaN pt_min failed inside rng.poisson",
    "DetectorModel.stochastic_term": "29: a jet was kept with pt = nan",
    "DetectorModel.pt_threshold": "30: a NaN threshold was accepted",
    "make_hep_dataset.image_size": "31: a TypeError deep inside",
    "CoriMachine.n_nodes": "36: a machine of 2.5 nodes",
    "make_climate_dataset.size": "37: size=32.5 raised NumPy's TypeError",
    "SGD.weight_decay": "39: SGD(p, lr=0.1, weight_decay=nan) was accepted",
    "Adam.eps": "40: Adam(p, eps=nan) was accepted",
    "BatchNorm2D.eps": "41: BatchNorm2D(4, eps=nan) was accepted",
    "SmoothL1Loss.beta": "42: SmoothL1Loss(nan) was accepted",
    "SyncIterationModel.placement_penalty": "43: a NaN penalty was accepted",
    "MCDRAMConfig.mcdram_bandwidth": "44: a NaN bandwidth was accepted",
    "ShardedStore.shard_size": "45: a NaN shard size was accepted",
    "make_model_ids.n_requests": "8: NumPy's TypeError",
    "make_contents.n_requests": "8: via make_contents",
    "HybridTrainer.n_groups": "9: range() raised TypeError",
    "SSPTrainer.bound": "12: a NaN bound passed the < 0 check",
    "ThreadWorld.size": "18: list multiplication's TypeError",
    "ColumnParallelDense.in_features": "19: xavier_uniform's TypeError",
    "RowParallelDense.out_features": "19: via RowParallelDense",
    "SpatialParallelConv2D.image_height": "20: a strip of rows 0.0 to 3.0",
    "HybridSimConfig.n_workers": "22: simulate_hybrid failed far from here",
    "HybridSimConfig.n_groups": "22: via n_groups",
    "HybridSimConfig.n_ps": "22: via n_ps",
    "HybridSimConfig.local_batch": "22: via local_batch",
    "make_hep_dataset.n_events": "31: a TypeError deep inside",
    "ConstantLR.lr": "34: ConstantLR(nan)(3) was NaN",
    "StepLR.lr": "34: via StepLR",
    "StepLR.step_size": "35: step_size=nan gave a NaN rate; 2.5 was taken",
    "make_climate_dataset.n_images": "37: via n_images",
    "Box.w": "38: Box(0.5, 0.5, nan, 0.1) was accepted",
    "Box.h": "38: via h",
    "allreduce_time.p": "46: allreduce_time(100, 2.5) priced 2.5 nodes",
    "SyncIterationModel.n_nodes": "47: (wl, m, 2.5, 8) was accepted",
    "SyncIterationModel.local_batch": "47: via local_batch",
    "SingleNodePerf.batch": "48: a batch of 2.5 images was priced",
    "ExponentialDecayLR.lr": "52: (nan, 0.5, 10) was accepted",
    "ExponentialDecayLR.decay_steps": "52: via decay_steps",
    "implicit_async_momentum.n_groups": "54: (2.5) was 0.6, (nan) NaN",
    "BatchNorm2D.channels": "55: NumPy's TypeError",
    "Dense.in_features": "55: via Dense",
    "TropicalCyclone.radius": "56: (10., 10., nan, 1.0) was accepted",
    "augmentation_factor.image_width": "57: (nan) was NaN",
    "format_bytes.n": "58: format_bytes(nan) was 'nan PiB'",
    "YellowFin.lr_max": "53: YellowFin(p, lr_max=nan) was accepted",
    "Autoscaler.initial": "59: initial=2.5 started 2.5 replicas; '1' a "
    "TypeError",
    "AutoscalingSimulator.n_replicas": "59: NaN was an 'initial fleet'",
    "QuantizedGradSGD.scale": "60: a NaN or infinite clip range was taken",
    "LatencyStats.mean_replicas": "61: a NaN mean fleet was accepted",
    "phi_shift.shift": "63: NaN raised NumPy's 'cannot convert float NaN to "
    "integer'; 2.5 shifted by 2",
}


def _fixture(fn, p):
    return FIXTURES.get(f"{fn.__qualname__}.{p.name}",
                        FIXTURES.get(p.name, p.default))


def _args(fn, tmp_path, **given):
    kw = {}
    for p in inspect.signature(fn).parameters.values():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        v = given[p.name] if p.name in given else _fixture(fn, p)
        kw[p.name] = (tmp_path if v is TMP else
                      v() if callable(v) and p.name not in given else v)
    return kw


#: annotations of a number that ``None`` leaves to the program
OPTIONAL = ("Optional[int]", "Optional[float]")


def _walk():
    for qualname, fn in sorted(_exported().items()):
        if qualname in NOT_WALKED:
            continue
        for p in inspect.signature(fn).parameters.values():
            case = f"{qualname}.{p.name}"
            optional = p.default is None and p.annotation in OPTIONAL
            if case in REQUIRED or optional or (
                    isinstance(p.default, numbers.Real)
                    and not isinstance(p.default, bool)
                    and p.name not in NOT_NUMBERS):
                count = (isinstance(_fixture(fn, p), int)
                         or p.annotation == "Optional[int]")
                bads = ((NAN, "1", INF, -INF) + ((2.5,) if count else ())
                        + ((OUTSIDE[case],) if case in OUTSIDE else ()))
                hole = " (hole)" if case in WALK_HOLES else ""
                for bad in bads:
                    yield pytest.param(fn, p.name, bad,
                                       id=f"{case}={bad!r}{hole}")


_BUILT = set()


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("walk")


@pytest.mark.parametrize("fn, name, bad", _walk())
def test_the_walk_refuses_a_bad_number_by_name(fn, name, bad, walk_dir):
    if fn not in _BUILT:        # it builds from its fixtures and defaults
        fn(**_args(fn, walk_dir))
        _BUILT.add(fn)
    kw = _args(fn, walk_dir, **{name: bad})
    if f"{fn.__qualname__}.{name}={bad!r}" in ALLOWED:
        fn(**kw)
        return
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        fn(**kw)


@pytest.mark.parametrize("key", [k for k, (_, build) in ALLOWED.items()
                                 if build is not None])
def test_an_infinity_that_means_none_is_kept(key):
    ALLOWED[key][1]()


def test_the_walk_lists_stay_short():
    walked = {c.id.split("=")[0] for c in _walk()}
    assert len(ALLOWED) <= 25 and len(NOT_WALKED) <= 20
    assert all(reason for reason, _ in ALLOWED.values())
    assert set(WALK_HOLES) | set(OUTSIDE) | REQUIRED <= walked
    assert NOT_WALKED.keys() <= _exported().keys()


# -- rows: what the walk cannot reach ----------------------------------------

#: ("where: the parameter as the message names it", a valid value, the bad
#: values, the hole it closes or "", build(value, tmp_path))
ROWS = [
    ("quantization_step: bits", 8, C, "",
     lambda v, _: quantization_step(1.0, v)),
    ("quantization_step: scale", 1.0, R, "",
     lambda v, _: quantization_step(v, 8)),
    ("ModelMix: weights", 1.0, R, "", lambda v, _: ModelMix((1.0, v))),
    ("ReplicaBatchQueue: slos", 0.1, R_NONE, "", lambda v, _:
     ReplicaBatchQueue([BatchingPolicy()], [FakeService().batch_time],
                       slos=[v])),
    ("ReplicaBatchQueue.degrade: slow_factor", 2.0, R,
     "7: the next batch completed at t = inf", lambda v, _: ReplicaBatchQueue(
         [BatchingPolicy()], [FakeService().batch_time]).degrade(v)),
    ("Router.degrade_replica: slow_factor", 2.0, R, "7: through the router",
     lambda v, _: _router().degrade_replica(0.0, 0, v)),
    ("ModelRegistry.register: slo", 0.1, R_NONE, "",
     lambda v, tmp: ModelRegistry(tmp).register("m", lambda: None, (1,),
                                                slo=v)),
    ("ModelRegistry.register: weight", 2.0, R, "",
     lambda v, tmp: ModelRegistry(tmp).register("m", lambda: None, (1,),
                                                weight=v)),
    ("Router: n_replicas", 2, C, "", lambda v, _: _router(n_replicas=v)),
    ("Router: model_costs", 2e-3, R,
     "6: 0 * inf published NaN loads; the first submit crashed",
     lambda v, _: _router(model_costs=[1e-3, v])),
    ("Router: limits", 10, R_NONE, "", lambda v, _: _router(limits=[10, v])),
    ("AutoscalingSimulator.run: slo", 0.1, R_NONE, "", lambda v, _:
     AutoscalingSimulator(None, service_models=[FakeService()]).run(
         10.0, n_requests=8, slo=v)),
    ("ServingSimulator.sweep: slo", 0.1, R_NONE, "", lambda v, _:
     ServingSimulator(None, service_models=[FakeService()]).sweep(
         rates=[10.0], n_requests=4, slo=v)),
    ("sweep_cache_sizes: cache_size", 4, C, "",
     lambda v, _: sweep_cache_sizes(hep_workload(), [v], rate=10.0,
                                    n_requests=4)),
    ("LatencyStats.attainment: slo", 0.2, R_NONE, "",
     lambda v, _: LatencyStats(latencies=np.array([0.1]),
                               n_offered=1).attainment(v)),
    ("Counter.inc: amount", 2, C, "",
     lambda v, _: MetricsRegistry().counter("reqs").inc(v)),
    ("Histogram.observe: lat", 1.0, (NAN, "1"), "",
     lambda v, _: MetricsRegistry().histogram("lat").observe(v)),
    ("StragglerModel.node_factors: n_nodes", 4, C, "",
     lambda v, _: StragglerModel(seed=0).node_factors(v)),
    ("StragglerModel.iteration_factors: n_nodes", 4, C, "",
     lambda v, _: StragglerModel(seed=0).iteration_factors(v)),
    ("FailureModel.rate_per_second: n_nodes", 4, C, "",
     lambda v, _: FailureModel(seed=0).rate_per_second(v)),
    ("FailureModel.sample_events: n_nodes", 4, C, "",
     lambda v, _: FailureModel(seed=0).sample_events(v, 60.0)),
    ("FailureModel.sample_events: duration_s", 60.0, R,
     "4: the draw loop never ended", lambda v, _: FailureModel(
         mtbf_node_hours=1.0, seed=0).sample_events(4, v)),
    ("FailureModel.survival_probability: n_nodes", 4, C, "",
     lambda v, _: FailureModel().survival_probability(v, 60.0)),
    ("FailureModel.survival_probability: duration_s", 60.0, R_NONE,
     "5: NaN survival odds",
     lambda v, _: FailureModel().survival_probability(4, v)),
    ("HybridTrainer.run: group_batch", 2, C, "",
     lambda v, _: _train(group_batch=v)),
    ("HybridTrainer.run: n_iterations", 1, C,
     "15: an infinite count never ended; NaN ran no iteration",
     lambda v, _: _train(n_iterations=v)),
    ("HybridTrainer.run: drift", 1.0, R + (-1.0,),
     "10: the group's virtual clock went NaN, negative or infinite",
     lambda v, _: _train(drift=[v, 1.0])),
    ("HybridTrainer.run: iteration_time_fn", 1.0, R,
     "11: every group's clock went NaN",
     lambda v, _: _train(_trainer(iteration_time_fn=lambda g: v))),
    ("ElasticHybridTrainer: failures", 1, C,
     "13: a fractional group was accepted and never failed",
     lambda v, _: _trainer(ElasticHybridTrainer, n_groups=3,
                           failures={v: 1.0})),
    ("ElasticHybridTrainer: failures", 1.0, R_NONE,
     "14: a NaN time passed the < 0 check",
     lambda v, _: _trainer(ElasticHybridTrainer, failures={0: v})),
    ("SyncDataParallel.run: n_iterations", 1, C, "", lambda v, _:
     SyncDataParallel(ThreadWorld(2), _tiny_net, lambda net: _sgd(
         net.params()), hep_loss_fn).run(_X, _Y, n_iterations=v)),
    ("Workload.report: batch", 8, C, "48: via hep_workload().report",
     lambda v, _: hep_workload().report(v)),
    ("checkpoint_time: model_bytes", 4096, C, "49: checkpoint_time(nan) was "
     "NaN", lambda v, _: checkpoint_time(v)),
    ("expected_max_std_normal: p", 4, C,
     "50: (nan) was NaN, (2.5) was 0.878",
     lambda v, _: expected_max_std_normal(v)),
    ("sample_max_std_normal: p", 4, C, "",
     lambda v, _: sample_max_std_normal(v, np.random.default_rng(0))),
    ("DragonflyTopology.place: n_workers", 4, C,
     "51: place(nan, 1) raised a slicing TypeError",
     lambda v, _: DragonflyTopology().place(v, 1)),
    ("EventQueue.schedule: delay", 1.0, R_NONE,
     "32: events at 1.0, NaN, 2.0: run() returned 1.0, two left unrun",
     lambda v, _: EventQueue().schedule(v, lambda: None)),
    ("EventQueue.schedule_at: time", 1.0, R_NONE,
     "33: a NaN event scheduled first: nothing ran",
     lambda v, _: EventQueue().schedule_at(v, lambda: None)),
    ("Deconv2D: kernel_size - stride", 3, (8, 4),
     "62: stride=8 was refused for 'pad ... got -3', a pad never passed",
     lambda v, _: Deconv2D(3, 2, 3, stride=v)),
]


def _cases():
    for row, valid, bads, hole, build in ROWS:
        for bad in bads:
            yield pytest.param(row.split(": ")[1], build, valid, bad,
                               id=f"{row}={bad!r}{' (hole)' if hole else ''}")


@pytest.mark.parametrize("name, build, valid, bad", _cases())
def test_a_bad_number_is_refused_by_name(name, build, valid, bad, tmp_path):
    build(valid, tmp_path)
    with pytest.raises(ValueError, match=re.escape(name)):
        build(bad, tmp_path)


def test_every_hole_has_a_row():
    holes = {hole.split(":")[0] for hole in
             [row[3] for row in ROWS] + list(WALK_HOLES.values()) if hole}
    assert holes == {str(i) for i in range(1, 64)}


def test_an_explicit_deconv_pad_takes_any_stride():
    assert Deconv2D(3, 2, 3, stride=8, pad=0, rng=0).pad == 0


def test_a_model_that_never_fails_survives_any_run():
    assert FailureModel(mtbf_node_hours=INF).survival_probability(
        4, INF) == 1.0
    assert FailureModel(degrade_fraction=1.0).survival_probability(
        4, INF) == 1.0


class TestHelpers:
    def test_interval_ends(self):
        assert require_real("x", INF, "(0, inf]") == INF
        assert require_real("x", 0, "[0, 1)") == 0
        for bad, interval in ((INF, "(0, inf)"), (0.0, "(0, inf]"),
                              (1.0, "[0, 1)"), (-INF, "(-inf, inf)"),
                              (math.nan, "[-inf, inf]")):
            with pytest.raises(ValueError):
                require_real("x", bad, interval)

    def test_a_refusal_names_the_interval(self):
        with pytest.raises(ValueError, match=re.escape(
                "rate must be positive and finite, got nan; "
                "allowed: (0, inf)")):
            require_real("rate", math.nan, "(0, inf)")
        with pytest.raises(ValueError, match=re.escape(
                "f must be >= 0 and < 1, got 1.0; allowed: [0, 1)")):
            require_real("f", 1.0, "[0, 1)")
        with pytest.raises(ValueError, match=re.escape(
                "slo must be positive, got 'x'; allowed: (0, inf] or None")):
            require_real("slo", "x", "(0, inf]", none_ok=True)

    def test_numpy_scalars_and_none(self):
        assert require_real("x", np.float32(0.5), "(0, 1)") == 0.5
        assert require_real("x", None, none_ok=True) is None
        n = require_count("n", np.int64(3))
        assert n == 3 and type(n) is int
        assert require_count("n", None, none_ok=True) is None
