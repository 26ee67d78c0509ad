"""Every numeric parameter is checked where it is built, by one module.

One row per parameter: the row builds its object with a valid value, then
NaN, the infinity outside the parameter's interval and a string must each
raise ``ValueError`` naming the parameter (a count also refuses a
fraction). A row's hole says what its bad values did when nothing refused
them: built an object that drew the wrong thing, hung, or crashed far
from the cause.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.cluster.events import EventQueue
from repro.cluster.failures import FailureEvent, FailureModel, StragglerModel
from repro.cluster.machine import CoriMachine, cori
from repro.cluster.network import AriesNetwork
from repro.comm import (
    AlphaBetaModel,
    ColumnParallelDense,
    RowParallelDense,
    SpatialParallelConv2D,
    ThreadWorld,
)
from repro.core.parameter import Parameter
from repro.data.hep import (
    DetectorModel,
    EventGenerator,
    EventImager,
    make_hep_dataset,
)
from repro.core.sequential import Sequential
from repro.data.climate import make_climate_dataset
from repro.distributed import (
    ElasticHybridTrainer,
    HybridTrainer,
    SSPTrainer,
    SyncDataParallel,
    sync_run_with_failure,
)
from repro.distributed.sharded_solver import solver_time_saving
from repro.nn import Conv2D, Deconv2D, Dense, MaxPool2D
from repro.optim import SGD, ConstantLR, StepLR
from repro.optim.quantize import (
    QuantizedGradSGD,
    compile_quantized,
    quantization_step,
)
from repro.serve import (
    MMPP,
    AutoscalePolicy,
    AutoscalingSimulator,
    BatchingPolicy,
    HotKeyPopularity,
    LatencyStats,
    MetricsRegistry,
    ModelMix,
    ModelProfile,
    ModelRegistry,
    ReplicaBatchQueue,
    ResultCache,
    Router,
    ServiceTimeModel,
    ServingSimulator,
    Tracer,
    UniformPopularity,
    ZipfPopularity,
    make_arrivals,
    make_contents,
    make_model_ids,
    sweep_cache_sizes,
    to_chrome,
)
from repro.serve.fast_core import FastRun
from repro.serve.metrics import PerModelStats
from repro.models.bbox import Box
from repro.sim.hybrid_sim import HybridSimConfig
from repro.sim.workload import hep_workload
from repro.train.loop import hep_loss_fn
from repro.utils.checks import require_count, require_real

INF = math.inf


class FakeService:
    """Duck-typed ServiceTimeModel stand-in: affine batch time, fast."""

    def batch_time(self, b):
        return 0.004 + 0.001 * b

    def request_rtt(self):
        return 1e-4

    def peak_throughput(self, max_batch):
        return max_batch / self.batch_time(max_batch)


def _queue():
    return ReplicaBatchQueue([BatchingPolicy()], [FakeService().batch_time])


def _router(**kw):
    svc = FakeService().batch_time
    kw = {"n_replicas": 2, **kw}
    return Router(None, kw.pop("n_replicas"), [BatchingPolicy()] * 2,
                  [svc, svc], **kw)


def _chrome(v, tmp_path):
    """A two-request, one-batch trace exported with ``max_requests=v``."""
    tr = Tracer()
    tr.add_record(FastRun(
        complete_t=np.array([0.2, 0.2]), shed=np.zeros(2, dtype=bool),
        bstart=np.array([0.1]), bcomp=np.array([0.2]),
        bsize=np.array([2]), brep=np.array([0]),
        members=np.array([0, 1]), bfirst=np.array([0])), np.zeros(2))
    return to_chrome(tr, tmp_path / "t.json", max_requests=v)


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


def _sync_failure(**kw):
    kw = {"batch": 2, "n_iterations": 2, "iteration_time": 1.0,
          "failure_time": 5.0, **kw}
    return sync_run_with_failure(_tiny_net, _sgd, hep_loss_fn, _X, _Y, **kw)


def _hybrid_sim(**kw):
    kw = {"n_workers": 4, "n_groups": 2, "n_ps": 1, "local_batch": 8,
          "n_iterations": 8, **kw}
    return HybridSimConfig(workload=hep_workload(), machine=cori(seed=0),
                           **kw)


def _rank0():
    return ThreadWorld(1).comm(0)


#: ("where: the parameter as the message names it", a valid value, the
#: infinity outside its interval (None when both are in it; a tuple adds
#: finite values outside it), whether it is a count, the hole it closes or
#: "", build(value, tmp_path))
ROWS = [
    # core.module.check_sizes
    ("Conv2D: in_channels", 3, INF, True, "", lambda v, _: Conv2D(v, 2, 3)),
    ("Conv2D: out_channels", 2, INF, True, "",
     lambda v, _: Conv2D(3, v, 3)),
    ("Conv2D: kernel_size", 3, INF, True, "", lambda v, _: Conv2D(3, 2, v)),
    ("Conv2D: stride", 1, INF, True, "",
     lambda v, _: Conv2D(3, 2, 3, stride=v)),
    ("Conv2D: pad", 0, INF, True, "", lambda v, _: Conv2D(3, 2, 3, pad=v)),
    ("Deconv2D: stride", 2, INF, True, "",
     lambda v, _: Deconv2D(3, 2, 4, stride=v)),
    ("Deconv2D: pad", 1, INF, True, "",
     lambda v, _: Deconv2D(3, 2, 4, pad=v)),
    ("MaxPool2D: kernel_size", 2, INF, True, "", lambda v, _: MaxPool2D(v)),
    ("MaxPool2D: stride", 2, INF, True, "",
     lambda v, _: MaxPool2D(2, stride=v)),
    # optim.quantize
    ("quantization_step: bits", 8, INF, True, "",
     lambda v, _: quantization_step(1.0, v)),
    ("quantization_step: scale", 1.0, INF, False, "",
     lambda v, _: quantization_step(v, 8)),
    ("compile_quantized: bits", 8, INF, True, "",
     lambda v, _: compile_quantized(Conv2D(1, 1, 3, rng=0), bits=v)),
    ("QuantizedGradSGD: bits", 8, INF, True, "",
     lambda v, _: QuantizedGradSGD([Parameter(np.zeros(1), "w")], lr=0.1,
                                   bits=v)),
    ("QuantizedGradSGD: momentum", 0.9, INF, False, "",
     lambda v, _: QuantizedGradSGD([Parameter(np.zeros(1), "w")], lr=0.1,
                                   momentum=v)),
    # serve.arrivals
    ("make_arrivals: rate", 10.0, INF, False, "",
     lambda v, _: make_arrivals("uniform", v, 4)),
    ("make_arrivals: n_requests", 4, INF, True, "",
     lambda v, _: make_arrivals("uniform", 10.0, v)),
    ("MMPP: burst", 8.0, INF, False, "", lambda v, _: MMPP(burst=v)),
    ("MMPP: burst_fraction", 0.1, INF, False, "",
     lambda v, _: MMPP(burst_fraction=v)),
    ("MMPP: cycle_requests", 64.0, INF, False, "",
     lambda v, _: MMPP(cycle_requests=v)),
    ("UniformPopularity: n_keys", 8, INF, True, "",
     lambda v, _: UniformPopularity(n_keys=v)),
    ("ZipfPopularity: alpha", 1.1, INF, False, "",
     lambda v, _: ZipfPopularity(alpha=v)),
    ("ZipfPopularity: n_keys", 8, INF, True, "",
     lambda v, _: ZipfPopularity(n_keys=v)),
    ("HotKeyPopularity: n_keys", 256, INF, True, "",
     lambda v, _: HotKeyPopularity(n_keys=v)),
    ("HotKeyPopularity: hot_keys", 4, INF, True, "",
     lambda v, _: HotKeyPopularity(hot_keys=v)),
    ("HotKeyPopularity: hot_fraction", 0.9, INF, False, "",
     lambda v, _: HotKeyPopularity(hot_fraction=v)),
    ("HotKeyPopularity: mean_streak", 32.0, INF, False,
     "1: a NaN or infinite streak drew only hot keys",
     lambda v, _: HotKeyPopularity(mean_streak=v)),
    ("ModelMix: weights", 1.0, INF, False, "",
     lambda v, _: ModelMix((1.0, v))),
    ("ModelMix: mean_run", 4.0, INF, False,
     "2: an infinite run sent every draw to one model",
     lambda v, _: ModelMix((0.5, 0.5), mean_run=v)),
    ("make_model_ids: n_requests", 4, INF, True, "8: NumPy's TypeError",
     lambda v, _: make_model_ids((0.5, 0.5), v)),
    ("make_contents: n_requests", 4, INF, True, "8: NumPy's TypeError",
     lambda v, _: make_contents("zipf", v)),
    # serve.batching
    ("BatchingPolicy: max_batch", 8, INF, True, "",
     lambda v, _: BatchingPolicy(max_batch=v)),
    ("BatchingPolicy: max_wait", 0.01, -INF, False, "",
     lambda v, _: BatchingPolicy(max_wait=v)),
    ("ReplicaBatchQueue: slos", 0.1, -INF, False, "",
     lambda v, _: ReplicaBatchQueue([BatchingPolicy()],
                                    [FakeService().batch_time], slos=[v])),
    ("ReplicaBatchQueue.degrade: slow_factor", 2.0, INF, False,
     "7: the next batch completed at t = inf",
     lambda v, _: _queue().degrade(v)),
    ("Router.degrade_replica: slow_factor", 2.0, INF, False,
     "7: through the router",
     lambda v, _: _router().degrade_replica(0.0, 0, v)),
    # serve.cache
    ("ResultCache: capacity", 4, INF, True, "", lambda v, _: ResultCache(v)),
    # serve.latency
    ("ServiceTimeModel: dispatch_overhead", 5e-4, INF, False, "",
     lambda v, _: ServiceTimeModel(hep_workload(), dispatch_overhead=v)),
    ("ServiceTimeModel: response_bytes", 4096, INF, True, "",
     lambda v, _: ServiceTimeModel(hep_workload(), response_bytes=v)),
    # serve.registry
    ("ModelProfile: slo", 0.1, -INF, False, "",
     lambda v, _: ModelProfile("m", None, slo=v)),
    ("ModelProfile: weight", 2.0, INF, False, "",
     lambda v, _: ModelProfile("m", None, weight=v)),
    ("ModelRegistry.register: slo", 0.1, -INF, False, "",
     lambda v, tmp: ModelRegistry(tmp).register("m", lambda: None, (1,),
                                                slo=v)),
    ("ModelRegistry.register: weight", 2.0, INF, False, "",
     lambda v, tmp: ModelRegistry(tmp).register("m", lambda: None, (1,),
                                                weight=v)),
    # serve.router
    ("Router: n_replicas", 2, INF, True, "",
     lambda v, _: _router(n_replicas=v)),
    ("Router: model_costs", 2e-3, INF, False,
     "6: 0 * inf published NaN loads; the first submit crashed",
     lambda v, _: _router(model_costs=[1e-3, v])),
    ("Router: admission limits", 10, -INF, False, "",
     lambda v, _: _router(limits=[10, v])),
    # serve.autoscale
    ("AutoscalePolicy: min_replicas", 1, INF, True, "",
     lambda v, _: AutoscalePolicy(min_replicas=v)),
    ("AutoscalePolicy: max_replicas", 8, INF, True, "",
     lambda v, _: AutoscalePolicy(max_replicas=v)),
    ("AutoscalePolicy: target_attainment", 0.99, INF, False, "",
     lambda v, _: AutoscalePolicy(target_attainment=v)),
    ("AutoscalePolicy: scale_in_occupancy", 0.25, INF, False, "",
     lambda v, _: AutoscalePolicy(scale_in_occupancy=v)),
    ("AutoscalePolicy: epoch", 0.5, INF, False, "",
     lambda v, _: AutoscalePolicy(epoch=v)),
    ("AutoscalePolicy: cooldown_epochs", 1, INF, True, "",
     lambda v, _: AutoscalePolicy(cooldown_epochs=v)),
    ("AutoscalePolicy: idle_epochs", 3, INF, True, "",
     lambda v, _: AutoscalePolicy(idle_epochs=v)),
    ("AutoscalePolicy: step_out", 1, INF, True, "",
     lambda v, _: AutoscalePolicy(step_out=v)),
    ("AutoscalePolicy: step_in", 1, INF, True, "",
     lambda v, _: AutoscalePolicy(step_in=v)),
    ("AutoscalingSimulator.run: slo", 0.1, -INF, False, "",
     lambda v, _: AutoscalingSimulator(
         None, service_models=[FakeService()]).run(10.0, n_requests=8,
                                                   slo=v)),
    # serve.slo_sim
    ("ServingSimulator: cache_size", 4, INF, True, "",
     lambda v, _: ServingSimulator(None, service_models=[FakeService()],
                                   cache_size=v)),
    ("ServingSimulator: n_replicas", 2, INF, True, "",
     lambda v, _: ServingSimulator(None, service_models=[FakeService()],
                                   n_replicas=v)),
    ("ServingSimulator: max_queue", 16, INF, True, "",
     lambda v, _: ServingSimulator(None, service_models=[FakeService()],
                                   max_queue=v)),
    ("ServingSimulator.sweep: slo", 0.1, -INF, False, "",
     lambda v, _: ServingSimulator(
         None, service_models=[FakeService()]).sweep(
             rates=[10.0], n_requests=4, slo=v)),
    ("sweep_cache_sizes: cache_size", 4, INF, True, "",
     lambda v, _: sweep_cache_sizes(hep_workload(), [v], rate=10.0,
                                    n_requests=4)),
    ("sweep_cache_sizes: slo", 0.1, -INF, False, "",
     lambda v, _: sweep_cache_sizes(hep_workload(), [0], rate=10.0,
                                    n_requests=4, slo=v)),
    # serve.metrics and serve.obs
    ("LatencyStats.attainment: slo", 0.2, -INF, False, "",
     lambda v, _: LatencyStats(latencies=np.array([0.1]),
                               n_offered=1).attainment(v)),
    ("PerModelStats: slo", 0.2, -INF, False, "",
     lambda v, _: PerModelStats("m", slo=v, weight=1.0,
                                latencies=np.array([0.1]), n_offered=1)),
    ("to_chrome: max_requests", 1, INF, True, "", _chrome),
    ("Counter.inc: amount", 2, INF, True, "",
     lambda v, _: MetricsRegistry().counter("reqs").inc(v)),
    ("Histogram.observe: lat", 1.0, None, False, "",
     lambda v, _: MetricsRegistry().histogram("lat").observe(v)),
    # cluster.failures
    ("FailureEvent: time", 1.0, INF, False, "",
     lambda v, _: FailureEvent(v, 0, "fail")),
    ("FailureEvent: node_id", 3, INF, True, "",
     lambda v, _: FailureEvent(1.0, v, "fail")),
    ("FailureEvent: slow_factor", 2.0, INF, False, "",
     lambda v, _: FailureEvent(1.0, 0, "degrade", v)),
    ("StragglerModel: sigma_node", 0.03, (-INF, INF), False,
     "3: node_factors() returned all NaN; inf: [inf, inf, inf, 0.]",
     lambda v, _: StragglerModel(sigma_node=v)),
    ("StragglerModel: sigma_iter", 0.05, (-INF, INF), False, "",
     lambda v, _: StragglerModel(sigma_iter=v)),
    ("StragglerModel.node_factors: n_nodes", 4, INF, True, "",
     lambda v, _: StragglerModel(seed=0).node_factors(v)),
    ("StragglerModel.iteration_factors: n_nodes", 4, INF, True, "",
     lambda v, _: StragglerModel(seed=0).iteration_factors(v)),
    ("FailureModel: mtbf_node_hours", 5e4, -INF, False, "",
     lambda v, _: FailureModel(mtbf_node_hours=v)),
    ("FailureModel: degrade_fraction", 0.7, INF, False, "",
     lambda v, _: FailureModel(degrade_fraction=v)),
    ("FailureModel: degrade_slow_factor", 2.5, INF, False, "",
     lambda v, _: FailureModel(degrade_slow_factor=v)),
    ("FailureModel.rate_per_second: n_nodes", 4, INF, True, "",
     lambda v, _: FailureModel(seed=0).rate_per_second(v)),
    ("FailureModel.sample_events: n_nodes", 4, INF, True, "",
     lambda v, _: FailureModel(seed=0).sample_events(v, 60.0)),
    ("FailureModel.sample_events: duration_s", 60.0, INF, False,
     "4: the draw loop never ended",
     lambda v, _: FailureModel(mtbf_node_hours=1.0,
                               seed=0).sample_events(4, v)),
    ("FailureModel.survival_probability: n_nodes", 4, INF, True, "",
     lambda v, _: FailureModel().survival_probability(v, 60.0)),
    ("FailureModel.survival_probability: duration_s", 60.0, -INF, False,
     "5: NaN survival odds",
     lambda v, _: FailureModel().survival_probability(4, v)),
    # distributed
    ("HybridTrainer: n_groups", 2, INF, True, "9: range() raised TypeError",
     lambda v, _: _trainer(n_groups=v)),
    ("HybridTrainer.run: group_batch", 2, INF, True, "",
     lambda v, _: _train(group_batch=v)),
    ("HybridTrainer.run: n_iterations", 1, INF, True,
     "15: an infinite count never ended; NaN ran no iteration",
     lambda v, _: _train(n_iterations=v)),
    ("HybridTrainer.run: drift", 1.0, (INF, -1.0), False,
     "10: the group's virtual clock went NaN, negative or infinite",
     lambda v, _: _train(drift=[v, 1.0])),
    ("HybridTrainer.run: iteration_time_fn", 1.0, INF, False,
     "11: every group's clock went NaN",
     lambda v, _: _train(_trainer(iteration_time_fn=lambda g: v))),
    ("SSPTrainer: staleness bound", 1, -INF, False,
     "12: a NaN bound passed the < 0 check",
     lambda v, _: _trainer(SSPTrainer, bound=v)),
    ("ElasticHybridTrainer: failure group", 1, INF, True,
     "13: a fractional group was accepted and never failed",
     lambda v, _: _trainer(ElasticHybridTrainer, n_groups=3,
                           failures={v: 1.0})),
    ("ElasticHybridTrainer: failure time", 1.0, -INF, False,
     "14: a NaN time passed the < 0 check",
     lambda v, _: _trainer(ElasticHybridTrainer, failures={0: v})),
    ("sync_run_with_failure: batch", 2, INF, True, "",
     lambda v, _: _sync_failure(batch=v)),
    ("sync_run_with_failure: n_iterations", 2, INF, True, "",
     lambda v, _: _sync_failure(n_iterations=v)),
    ("sync_run_with_failure: iteration_time", 1.0, INF, False, "",
     lambda v, _: _sync_failure(iteration_time=v)),
    ("sync_run_with_failure: failure_time", 5.0, -INF, False, "",
     lambda v, _: _sync_failure(failure_time=v)),
    ("SyncDataParallel.run: n_iterations", 1, INF, True, "",
     lambda v, _: SyncDataParallel(
         ThreadWorld(2), _tiny_net, lambda net: _sgd(net.params()),
         hep_loss_fn).run(_X, _Y, n_iterations=v)),
    ("solver_time_saving: solver_time", 1.0, INF, False, "",
     lambda v, _: solver_time_saving(v, 4)),
    ("solver_time_saving: p", 4, INF, True, "",
     lambda v, _: solver_time_saving(1.0, v)),
    # comm
    ("AlphaBetaModel: alpha", 1.3e-6, (INF, -1.0), False,
     "16: every collective time came out NaN",
     lambda v, _: AlphaBetaModel(alpha=v)),
    ("AlphaBetaModel: bandwidth", 8e9, (INF, 0.0), False,
     "17: an infinite bandwidth made every byte free",
     lambda v, _: AlphaBetaModel(bandwidth=v)),
    ("AlphaBetaModel: gamma", 2.5e-11, (INF, -1.0), False, "16: via gamma",
     lambda v, _: AlphaBetaModel(gamma=v)),
    ("AlphaBetaModel: endpoint_factor", 1.0, (INF, 0.0), False,
     "16: via the endpoint factor",
     lambda v, _: AlphaBetaModel(endpoint_factor=v)),
    ("ThreadWorld: size", 2, INF, True,
     "18: list multiplication's TypeError", lambda v, _: ThreadWorld(v)),
    ("ColumnParallelDense: in_features", 4, INF, True,
     "19: xavier_uniform's TypeError or OverflowError",
     lambda v, _: ColumnParallelDense(_rank0(), v, 4)),
    ("ColumnParallelDense: out_features", 4, INF, True, "",
     lambda v, _: ColumnParallelDense(_rank0(), 4, v)),
    ("RowParallelDense: in_features", 4, INF, True, "",
     lambda v, _: RowParallelDense(_rank0(), v, 4)),
    ("RowParallelDense: out_features", 4, INF, True,
     "19: xavier_uniform's TypeError or OverflowError",
     lambda v, _: RowParallelDense(_rank0(), 4, v)),
    ("SpatialParallelConv2D: image_height", 4, INF, True,
     "20: the rank's strip was rows 0.0 to 3.0, or NaN to NaN",
     lambda v, _: SpatialParallelConv2D(_rank0(), 1, 1, 3, image_height=v)),
    # cluster.network
    ("AriesNetwork: jitter_sigma0", 0.04, (INF, -1.0), False,
     "21: every collective's jitter was NaN",
     lambda v, _: AriesNetwork(jitter_sigma0=v)),
    ("AriesNetwork: jitter_scale", 0.018, (INF, -1.0), False, "",
     lambda v, _: AriesNetwork(jitter_scale=v)),
    # sim.hybrid_sim
    ("HybridSimConfig: n_workers", 4, INF, True,
     "22: simulate_hybrid raised a TypeError or ValueError far from here",
     lambda v, _: _hybrid_sim(n_workers=v)),
    ("HybridSimConfig: n_groups", 2, INF, True, "22: via n_groups",
     lambda v, _: _hybrid_sim(n_groups=v)),
    ("HybridSimConfig: n_ps", 1, INF, True, "22: via n_ps",
     lambda v, _: _hybrid_sim(n_ps=v)),
    ("HybridSimConfig: local_batch", 8, INF, True, "22: via local_batch",
     lambda v, _: _hybrid_sim(local_batch=v)),
    ("HybridSimConfig: n_iterations", 8, INF, True,
     "23: 2.5 or NaN iterations ran and reported a makespan",
     lambda v, _: _hybrid_sim(n_iterations=v)),
    # data.hep
    ("make_hep_dataset: n_events", 40, INF, True,
     "31: a fractional count raised a TypeError deep inside",
     lambda v, _: make_hep_dataset(v, image_size=8)),
    ("make_hep_dataset: image_size", 8, INF, True, "31: via image_size",
     lambda v, _: make_hep_dataset(40, image_size=v)),
    ("make_hep_dataset: signal_fraction", 0.5, (INF, 1.5), False, "",
     lambda v, _: make_hep_dataset(40, image_size=8, signal_fraction=v)),
    ("EventGenerator: bkg_njet_mean", 1.8, (INF, -1.0), False, "",
     lambda v, _: EventGenerator(bkg_njet_mean=v)),
    ("EventGenerator: sig_njet_mean", 11.0, (INF, 2.0), False, "",
     lambda v, _: EventGenerator(sig_njet_mean=v)),
    ("EventGenerator: bkg_pt_scale", 55.0, INF, False, "",
     lambda v, _: EventGenerator(bkg_pt_scale=v)),
    ("EventGenerator: pt_min", 40.0, INF, False,
     "28: a NaN pt_min failed inside rng.poisson",
     lambda v, _: EventGenerator(pt_min=v)),
    ("EventGenerator: sig_resonance_mass", 850.0, INF, False, "",
     lambda v, _: EventGenerator(sig_resonance_mass=v)),
    ("EventGenerator: sig_mass_sigma", 0.25, INF, False, "",
     lambda v, _: EventGenerator(sig_mass_sigma=v)),
    ("EventGenerator: sig_prong_dr", 0.35, (INF, -1.0), False,
     "27: every second prong's offsets were NaN",
     lambda v, _: EventGenerator(sig_prong_dr=v)),
    ("DetectorModel: stochastic_term", 0.8, (INF, -1.0), False,
     "29: a 50 GeV jet was kept with pt = nan",
     lambda v, _: DetectorModel(stochastic_term=v)),
    ("DetectorModel: constant_term", 0.03, (INF, -1.0), False,
     "29: via the constant term",
     lambda v, _: DetectorModel(constant_term=v)),
    ("DetectorModel: angular_sigma", 0.02, (INF, -1.0), False, "",
     lambda v, _: DetectorModel(angular_sigma=v)),
    ("DetectorModel: pt_threshold", 25.0, INF, False,
     "30: a NaN threshold was accepted",
     lambda v, _: DetectorModel(pt_threshold=v)),
    ("EventImager: size", 16, INF, True, "",
     lambda v, _: EventImager(size=v)),
    ("EventImager: jet_radius", 0.12, INF, False,
     "26: the stamp size raised 'cannot convert float NaN to integer'",
     lambda v, _: EventImager(size=16, jet_radius=v)),
    ("EventImager: noise_level", 0.3, (INF, -1.0), False,
     "25: a NaN or negative noise level silently drew no noise",
     lambda v, _: EventImager(size=16, noise_level=v)),
    ("EventImager: pt_scale", 100.0, INF, False,
     "24: a one-jet 16x16 image had 512 NaN pixels",
     lambda v, _: EventImager(size=16, pt_scale=v)),
    # cluster.events
    ("EventQueue.schedule: delay", 1.0, -INF, False,
     "32: events at 1.0, NaN, 2.0: run() returned 1.0, two left unrun",
     lambda v, _: EventQueue().schedule(v, lambda: None)),
    ("EventQueue.schedule_at: time", 1.0, -INF, False,
     "33: a NaN event scheduled first: nothing ran",
     lambda v, _: EventQueue().schedule_at(v, lambda: None)),
    # optim.schedules
    ("ConstantLR: lr", 0.1, INF, False, "34: ConstantLR(nan)(3) was NaN",
     lambda v, _: ConstantLR(v)),
    ("StepLR: lr", 0.1, INF, False, "34: via StepLR",
     lambda v, _: StepLR(v, 2)),
    ("StepLR: step_size", 2, INF, True,
     "35: step_size=nan gave a NaN rate; 2.5 was taken",
     lambda v, _: StepLR(0.1, v)),
    ("StepLR: gamma", 0.5, INF, False, "", lambda v, _: StepLR(0.1, 2, v)),
    # cluster.machine
    ("CoriMachine: n_nodes", 4, INF, True,
     "36: CoriMachine(n_nodes=2.5) built a machine of 2.5 nodes",
     lambda v, _: CoriMachine(n_nodes=v)),
    # data.climate
    ("make_climate_dataset: size", 32, INF, True,
     "37: size=32.5 raised a TypeError from inside NumPy",
     lambda v, _: make_climate_dataset(2, size=v, n_channels=2)),
    ("make_climate_dataset: n_images", 2, INF, True, "37: via n_images",
     lambda v, _: make_climate_dataset(v, size=32, n_channels=2)),
    ("make_climate_dataset: n_channels", 2, INF, True,
     "37: via n_channels",
     lambda v, _: make_climate_dataset(2, size=32, n_channels=v)),
    ("make_climate_dataset: max_events", 3, INF, True, "",
     lambda v, _: make_climate_dataset(2, size=32, n_channels=2,
                                       max_events=v)),
    ("make_climate_dataset: labeled_fraction", 0.5, (INF, 1.5), False, "",
     lambda v, _: make_climate_dataset(2, size=32, n_channels=2,
                                       labeled_fraction=v)),
    # models.bbox
    ("Box: w", 0.5, INF, False,
     "38: Box(0.5, 0.5, nan, 0.1) was accepted",
     lambda v, _: Box(0.5, 0.5, v, 0.1)),
    ("Box: h", 0.5, INF, False, "38: via h",
     lambda v, _: Box(0.5, 0.5, 0.1, v)),
    ("Box: x", 0.5, (INF, -INF), False, "",
     lambda v, _: Box(v, 0.5, 0.1, 0.1)),
    ("Box: y", 0.5, (INF, -INF), False, "",
     lambda v, _: Box(0.5, v, 0.1, 0.1)),
]


def _cases():
    for row, valid, outside, count, hole, build in ROWS:
        if not isinstance(outside, tuple):
            outside = () if outside is None else (outside,)
        bads = [math.nan, "1", *outside]
        if count:
            bads.append(2.5)
        for bad in bads:
            yield pytest.param(row.split(": ")[1], build, valid, bad,
                               id=f"{row}={bad!r}{' (hole)' if hole else ''}")


@pytest.mark.parametrize("name, build, valid, bad", _cases())
def test_a_bad_number_is_refused_by_name(name, build, valid, bad, tmp_path):
    build(valid, tmp_path)
    with pytest.raises(ValueError, match=re.escape(name)):
        build(bad, tmp_path)


def test_every_hole_has_a_row():
    holes = {row[4].split(":")[0] for row in ROWS if row[4]}
    assert holes == {str(i) for i in range(1, 39)}


@pytest.mark.parametrize("build", [
    lambda: BatchingPolicy(max_wait=INF),
    lambda: ModelProfile("m", None, slo=INF),
    lambda: _router(limits=[INF, 10]),
    lambda: FailureModel(mtbf_node_hours=INF),
    lambda: FailureModel().survival_probability(4, INF),
    lambda: AutoscalePolicy(epoch=None),
    lambda: MetricsRegistry().histogram("lat").observe(-INF),
])
def test_an_infinity_that_means_none_is_kept(build):
    build()


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
