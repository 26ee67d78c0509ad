"""repro.serve: batched inference serving on the Cori machine model.

The training side of the reproduction produces checkpoints; this package
turns them into a servable system with explicit throughput/latency
accounting:

- :mod:`repro.serve.registry` — versioned checkpoint store; loads snapshots
  into immutable eval-mode replicas (:class:`ServableModel`); exposes the
  registered model set to the simulator as :class:`ModelProfile` entries
  (workload, SLO, admission weight) and invalidates attached caches on
  publish;
- :mod:`repro.serve.batching` — dynamic micro-batching (windowed
  max-batch/max-wait and vLLM-style continuous modes) for both simulated
  queues and real coalesced forwards; per-model batch lanes on shared
  replicas (batches never mix models): :class:`ReplicaBatchQueue` takes
  per-model ``policies`` and ``service_times`` lists (one model is the
  one-entry case) and launches earliest deadline first exactly when it
  is given per-model ``slos``;
- :mod:`repro.serve.arrivals` — open-loop arrival processes: uniform,
  Poisson, and bursty :class:`MMPP` streams with analytic moments; plus
  request-content popularity samplers (uniform / Zipf / bursty hot-key)
  that make cache hit rates meaningful, and :class:`ModelMix` — which
  registered model each arrival asks for (weighted shares, optionally in
  correlated streaks);
- :mod:`repro.serve.cache` — request-level LRU result cache (content
  hashed): hot requests skip the replica fleet entirely, in simulation and
  in real batched inference;
- :mod:`repro.serve.router` — replica placement on
  :class:`repro.cluster.machine.CoriMachine` nodes, least-loaded routing,
  admission control; :class:`Router` takes the same per-model lists plus
  per-model ``limits``, ``model_slos`` and ``model_costs``;
- :mod:`repro.serve.latency` — per-batch service times from the Fig 5
  single-node model (forward-only) + alpha-beta request transport;
- :mod:`repro.serve.metrics` — latency percentiles, throughput, SLO
  attainment;
- :mod:`repro.serve.slo_sim` — request-rate sweeps producing p50/p99 and
  SLO-attainment curves for capacity planning; multi-model shared pools
  (``models=[ModelProfile(...), ...]``) with per-model SLOs, weighted
  admission, and in-flight request coalescing;
- :mod:`repro.serve.fast_core` — the flat struct-of-arrays drive loop
  every ``ServingSimulator`` run takes when its configuration is in the
  supported class: bit-identical to the event loop there, about 2.7x
  faster at 10^6 plain requests on a two-core Xeon VM;
- :mod:`repro.serve.autoscale` — burst-aware replica autoscaling: a
  discrete-time controller that scales out on broken SLO attainment and in
  on sustained idle occupancy, contending with node failures from
  :class:`repro.cluster.failures.FailureModel`;
- :mod:`repro.serve.obs` — opt-in observability: a :class:`Tracer` of
  typed per-request and fleet events in virtual time, a labeled
  :class:`MetricsRegistry` reconciled against the run's stats, a
  wall-clock :class:`Profiler` of the simulator hot path, and exporters
  (JSON-lines, Chrome trace-event / Perfetto, text ``explain``).

Quickstart::

    from repro.serve import (BatchingPolicy, ModelRegistry, ServingSimulator)
    from repro.models import build_hep_net
    from repro.sim.workload import hep_workload

    registry = ModelRegistry("checkpoints")
    registry.register("hep", lambda: build_hep_net(rng=0), (3, 224, 224))
    registry.publish("hep", trained_net)
    replica = registry.load("hep")            # frozen, eval-mode
    logits = replica(batch)                   # real batched inference

    sim = ServingSimulator(hep_workload(), n_replicas=4,
                           policy=BatchingPolicy(max_batch=32))
    print(sim.sweep().table())                # p50/p99/SLO vs offered rate

    # windowed vs continuous batching, bursty (MMPP) arrivals
    cmp = compare_batching_modes(hep_workload(), n_replicas=4,
                                 process=MMPP(burst=8.0))
    print(cmp.table())                        # per-rate p50/p99 win
"""

from repro.serve.autoscale import (  # noqa: F401
    Autoscaler,
    AutoscalePolicy,
    AutoscalingSimulator,
    ScaleDecision,
)
from repro.serve.arrivals import (  # noqa: F401
    ARRIVAL_PROCESSES,
    MMPP,
    POPULARITY_KINDS,
    HotKeyPopularity,
    ModelMix,
    UniformPopularity,
    ZipfPopularity,
    make_arrivals,
    make_contents,
    make_model_ids,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serve.cache import ResultCache, content_key  # noqa: F401
from repro.serve.batching import (  # noqa: F401
    BATCHING_MODES,
    LAUNCH_ORDERS,
    Batch,
    BatchExecutor,
    BatchingPolicy,
    ReplicaBatchQueue,
    plan_batches,
)
from repro.serve.latency import (  # noqa: F401
    PerModelServiceTime,
    ServiceTimeModel,
)
from repro.serve.metrics import (  # noqa: F401
    CacheSizeSweep,
    EpochRecord,
    LatencyStats,
    PerModelStats,
    PolicyComparison,
    RatePoint,
    ScaleEvent,
    ScaleReason,
    SweepReport,
)
from repro.serve.obs import (  # noqa: F401
    MetricsRegistry,
    Profiler,
    ReconciliationError,
    TraceEvent,
    Tracer,
    explain,
    reconcile,
    registry_from_trace,
    to_chrome,
    to_jsonl,
)
from repro.serve.registry import (  # noqa: F401
    ModelProfile,
    ModelRegistry,
    ServableModel,
)
from repro.serve.fast_core import FastRun  # noqa: F401
from repro.serve.router import ReplicaHandle, Router  # noqa: F401
from repro.serve.slo_sim import (  # noqa: F401
    ServingSimulator,
    compare_batching_modes,
    sweep_cache_sizes,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "BATCHING_MODES",
    "LAUNCH_ORDERS",
    "POPULARITY_KINDS",
    "Autoscaler",
    "AutoscalePolicy",
    "AutoscalingSimulator",
    "Batch",
    "BatchExecutor",
    "BatchingPolicy",
    "CacheSizeSweep",
    "EpochRecord",
    "HotKeyPopularity",
    "LatencyStats",
    "MMPP",
    "MetricsRegistry",
    "ModelMix",
    "ModelProfile",
    "ModelRegistry",
    "PerModelServiceTime",
    "PerModelStats",
    "PolicyComparison",
    "Profiler",
    "RatePoint",
    "ReconciliationError",
    "ReplicaBatchQueue",
    "ReplicaHandle",
    "ResultCache",
    "Router",
    "ScaleDecision",
    "ScaleEvent",
    "ScaleReason",
    "ServableModel",
    "ServiceTimeModel",
    "ServingSimulator",
    "SweepReport",
    "TraceEvent",
    "Tracer",
    "UniformPopularity",
    "ZipfPopularity",
    "compare_batching_modes",
    "content_key",
    "explain",
    "make_arrivals",
    "make_contents",
    "make_model_ids",
    "plan_batches",
    "poisson_arrivals",
    "reconcile",
    "registry_from_trace",
    "sweep_cache_sizes",
    "to_chrome",
    "to_jsonl",
    "uniform_arrivals",
]
