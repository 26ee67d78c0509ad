"""Serving simulator: request-rate sweeps -> throughput / tail latency / SLO.

The serving analogue of :mod:`repro.sim`: a discrete-event simulation of N
replicas on the Cori machine model, fed an open-loop arrival stream. Each
request is routed (:mod:`repro.serve.router`), coalesced into micro-batches
(:mod:`repro.serve.batching`), served at the Fig 5 forward-pass rate
(:mod:`repro.serve.latency`), and shipped back over the alpha-beta network.
The output curves — p50/p99 latency and SLO attainment versus offered rate —
are what capacity planning for "heavy traffic" actually consumes.

Arrival streams come from :mod:`repro.serve.arrivals`: deterministic
``uniform`` spacing, ``poisson``, or bursty ``mmpp`` (pass an
:class:`~repro.serve.arrivals.MMPP` instance for a custom burst shape).
:func:`compare_batching_modes` runs the same sweep under the windowed and
continuous batching policies and reports the latency win side by side.

With ``cache_size > 0`` a request-level :class:`~repro.serve.cache.
ResultCache` sits in front of the router: each request carries a content id
(drawn by a popularity sampler — ``popularity="zipf"`` etc., see
:func:`~repro.serve.arrivals.make_contents`), a repeat whose result is
already cached completes at ``request_rtt()`` without consuming replica
capacity, and the cache fills as batches *complete* (a result cannot be
served before any replica has produced it). Hits never reach the router, so
every load signal downstream — admission, routing, the autoscaler's epoch
records — sees post-cache (miss) traffic, which is what lets the controller
provision for misses instead of offered rate.
:func:`sweep_cache_sizes` maps the resulting hit-rate vs p99/attainment
trade across cache capacities at a fixed offered rate.

Multi-model serving shares one replica pool between several registered
models (``models=[ModelProfile(...), ...]`` — e.g. the paper's HEP
classifier and climate segmenter): a :class:`~repro.serve.arrivals.
ModelMix` assigns each arrival a model, replicas batch per model on one
timeline, admission is weighted by profile, and the stats carry per-model
slices judged against per-model SLOs. See the class docstring: a
single-model simulator is the one-entry case of the same per-model lists.
"""

from __future__ import annotations

import heapq
import math
from contextlib import nullcontext
from functools import partial
from itertools import chain, repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.machine import CoriMachine, cori
from repro.serve.arrivals import (
    MixLike,
    ModelMix,
    PopularityLike,
    ProcessLike,
    make_arrivals,
    make_contents,
    make_model_ids,
)
from repro.serve.batching import LAUNCH_ORDERS, Batch, BatchingPolicy
from repro.serve.cache import ResultCache, require_count
from repro.serve.latency import PerModelServiceTime, ServiceTimeModel
from repro.serve.metrics import (
    CacheSizeSweep,
    LatencyStats,
    PolicyComparison,
    SweepReport,
)
from repro.serve.registry import ModelProfile
from repro.serve.router import Router
from repro.serve import fast_core
from repro.sim.workload import Workload
from repro.utils.rng import SeedLike, spawn_rngs

#: default sweep points as fractions of the saturation rate
DEFAULT_LOAD_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: shared no-op context for unprofiled runs (contextlib.nullcontext is
#: reusable and reentrant, so one instance serves every span site)
_NULL_SPAN = nullcontext()


def _require_slo(slo) -> float:
    """A sweep's ``slo`` as a float, refused unless positive (NaN is not)
    before any run."""
    if not slo > 0:
        raise ValueError(f"slo must be positive, got {slo}")
    return float(slo)


class _CacheRun:
    """Per-run cache state: the cache itself, each request's content id,
    the fill events (batch completions waiting to become cache entries),
    which requests were served from cache (id -> arrival time), plus the
    request-coalescing ledger — in-flight leaders by key and the
    followers riding each one (id -> leader id)."""

    __slots__ = ("cache", "contents", "fills", "hits", "inflight",
                 "coalesced")

    def __init__(self, cache: ResultCache, contents: np.ndarray) -> None:
        self.cache = cache
        self.contents = contents.tolist()   # plain ints: hot-path lookups
        self.fills: list = []               # heap of (completion, ids)
        self.hits: dict = {}                # request_id -> arrival time
        self.inflight: dict = {}            # content key -> leader id
        self.coalesced: dict = {}           # follower id -> leader id

    def on_commit(self, index: int, batch: Batch) -> None:
        heapq.heappush(self.fills, (batch.completion, batch.request_ids))


class ServingSimulator:
    """Simulate serving one workload with N replicas under a batching policy.

    ``cache_size`` > 0 puts an LRU result cache in front of the router; a
    fresh cache is built per run (a rate sweep must not warm one point
    with another point's traffic). ``cache_size=0`` is bit-identical to
    the pre-cache simulator.

    **Multi-model serving**: pass ``models`` (a list of
    :class:`~repro.serve.registry.ModelProfile` — e.g. the HEP classifier
    and the climate segmenter) instead of ``workload``, plus a
    ``model_mix`` saying which model each arrival asks for. The one
    replica pool is shared: every replica keeps per-model batch lanes
    (batches never mix models, each model has its own Fig 5 service
    curve), admission is weighted by each profile's ``weight`` (overload
    sheds low-weight traffic first), and the returned stats carry one
    :class:`~repro.serve.metrics.PerModelStats` per profile judged
    against that model's own SLO.

    **One model is a one-entry model list.** ``workload=`` /
    ``service_model=`` become the one entry of the per-model lists
    ``models=`` fills (``services``, profiles, mix shares, policies), and
    every method reads only those: a single-model simulator runs the code
    of ``models=[one profile]``, bit for bit. ``models is None`` decides
    only the output's shape (no per-model slices); ``service`` is a
    read-only view of the one entry.

    ``coalesce=True`` additionally deduplicates in-flight misses: a
    request whose content key is already being forwarded waits for that
    forward instead of consuming another replica slot, completing at the
    leader's finish plus transport (``n_coalesced`` in the stats).

    **Deadline-aware scheduling** (both knobs default off — the exact
    count-based scheduler, bit for bit):

    - ``order`` (:data:`~repro.serve.batching.LAUNCH_ORDERS`) sets the
      cross-lane launch ordering on every replica: ``"edf"`` launches the
      lane whose oldest request has the earliest deadline (arrival + its
      model's SLO);
    - ``cost_aware=True`` switches routing and admission from request
      counts to *estimated service seconds* (each model's amortized
      full-batch time per request): least-loaded becomes
      shortest-expected-work, and ``max_queue`` requests become the
      equivalent mix-weighted seconds budget, so one queued climate scan
      counts for what it costs (~140x an HEP event) instead of 1.

    :meth:`admission_limits` turns ``max_queue``, the profiles' weights
    and (cost-aware) the mix into each model's limit in the router's load
    unit, once; both engines read that value.

    The configuration alone decides the drive loop: every configuration
    the flat struct-of-arrays core (:mod:`repro.serve.fast_core`)
    supports — fixed fleet, count admission, fifo launch order — runs on
    it, and :func:`~repro.serve.fast_core.unsupported_reason` sends the
    rest (coalescing, cost-aware, edf) to the object event loop above.
    That class is *one* loop over ``M`` per-model lanes per replica with
    an optional result cache in front: a single-model run is its
    one-lane case, per-model policies and the cache are parameters of
    it. A tracer and a profiler keep a run on its engine: both engines
    end in the same record, and the trace's request and batch events are
    expanded from it after the run. ``last_run_engine`` records which one
    ran. The two engines are bit-identical, pinned by the engine
    differential suite (hand-picked families and generated
    configurations) and the full-lattice support test.

    ``engine`` is deprecated and does nothing: ``"array"`` is its only
    accepted value, and any other raises ``ValueError``.

    A profile's ``policy`` gives that model its own per-model
    ``max_batch``/``max_wait`` on the shared replicas (capacity,
    default SLOs, and cost estimates all follow it).
    """

    def __init__(self, workload: Optional[Workload] = None,
                 machine: Optional[CoriMachine] = None,
                 n_replicas: int = 1,
                 policy: Optional[BatchingPolicy] = None,
                 max_queue: Optional[int] = 256,
                 service_model: Optional[ServiceTimeModel] = None,
                 cache_size: int = 0,
                 models: Optional[Sequence[ModelProfile]] = None,
                 model_mix: MixLike = None,
                 service_models: Optional[Sequence] = None,
                 coalesce: bool = False,
                 order: str = "fifo",
                 cost_aware: bool = False,
                 engine: str = "array") -> None:
        cache_size = require_count("cache_size", cache_size, least=0)
        if order not in LAUNCH_ORDERS:
            raise ValueError(f"unknown launch order {order!r}; "
                             f"have {LAUNCH_ORDERS}")
        if engine != "array":
            raise ValueError(f"engine is deprecated and only accepts "
                             f"'array', got {engine!r}")
        n_replicas = require_count("n_replicas", n_replicas)
        max_queue = require_count("max_queue", max_queue, none_ok=True)
        self.machine = machine or cori(seed=0, jitter=False)
        self.n_replicas = n_replicas
        self.policy = policy or BatchingPolicy()
        self.order = order
        self.cost_aware = bool(cost_aware)
        self.max_queue = max_queue
        #: the registered profiles; ``None`` on a single-model simulator,
        #: which is what keeps its stats free of per-model slices
        self.models: Optional[List[ModelProfile]] = None
        self.model_mix: Optional[ModelMix] = None
        self.coalesce = coalesce
        if models is not None:
            if workload is not None:
                raise ValueError(
                    "pass either workload (single-model) or models "
                    "(multi-model), not both")
            if service_model is not None:
                raise ValueError(
                    "service_model is single-model; pass service_models "
                    "(one per profile) with models")
            self.models = list(models)
            if not self.models:
                raise ValueError("models must name at least one profile")
            names = [p.name for p in self.models]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate model names: {names}")
            if model_mix is None:
                model_mix = ModelMix((1.0,) * len(self.models))
            elif not isinstance(model_mix, ModelMix):
                model_mix = ModelMix(tuple(float(w) for w in model_mix))
            if model_mix.n_models != len(self.models):
                raise ValueError(
                    f"model_mix has {model_mix.n_models} weights for "
                    f"{len(self.models)} models")
            if service_models is not None and \
                    len(service_models) != len(self.models):
                raise ValueError(
                    f"{len(service_models)} service models for "
                    f"{len(self.models)} profiles")
            self.model_mix = model_mix
            self.workload = None
            profiles, shares = self.models, model_mix.shares
        else:
            if model_mix is not None or service_models is not None:
                raise ValueError(
                    "model_mix/service_models require models=...")
            if workload is None and service_model is None:
                raise ValueError(
                    "pass a workload (single-model), models=[...] "
                    "(multi-model), or an explicit service_model")
            self.workload = workload
            profiles = [ModelProfile(
                getattr(workload, "name", None) or "model0", workload)]
            shares = (1.0,)
            if service_model is not None:
                service_models = [service_model]
        # Everything below reads these per-model lists: a single-model
        # simulator is their one-entry case, not a second code path.
        self._profiles: List[ModelProfile] = profiles
        self._shares = [float(s) for s in shares]
        self.services = (
            PerModelServiceTime(service_models) if service_models
            else PerModelServiceTime.for_workloads(
                [p.workload for p in profiles], node=self.machine.node,
                cost=self.machine.network.cost))
        self._policies = [p.policy or self.policy for p in profiles]
        self.cache_size = cache_size
        self._cstate: Optional[_CacheRun] = None
        # Per-run model ids: the drive loops read the list, the collector
        # the array (both None with one model).
        self._mids: Optional[list] = None
        self._mids_np: Optional[np.ndarray] = None
        # Per-run observability handles (set by run(), cleared after): the
        # structured event tracer and the wall-clock profiler. Both are
        # None by default — the untraced path is the exact pre-obs
        # instruction stream, pinned bit-identical by the obs tests.
        self._tracer = None
        self._prof = None
        # The run record: the array core's _drive parks its FastRun here,
        # the event engine's _collect the one _record builds after the
        # drain; run() hands it to the tracer. Which loop actually drove
        # the last run() is recorded for callers (and the differential
        # tests).
        self._fast: Optional[fast_core.FastRun] = None
        self.last_run_engine: Optional[str] = None

    @property
    def service(self) -> Optional[ServiceTimeModel]:
        """The service-time model of a one-model simulator (read-only; a
        view of ``services[0]``), ``None`` when several models share the
        fleet."""
        return self.services[0] if len(self.services) == 1 else None

    # -- capacity ------------------------------------------------------------
    def model_policies(self) -> Optional[List[BatchingPolicy]]:
        """Per-model batching policies, or ``None`` when every model runs
        the shared one."""
        if all(p.policy is None for p in self._profiles):
            return None
        return list(self._policies)

    def saturation_rate(self) -> float:
        """Offered rate (req/s) at which full-batch replicas are 100% busy.

        The mix-weighted capacity: rate ``r`` lands ``r * share_m`` on
        model ``m``, each request of which costs ``1 / peak_m``
        replica-seconds, so the fleet saturates at ``R / sum_m(share_m /
        peak_m)`` (``R`` times one model's peak throughput with one
        model, up to rounding). Each model runs at its own policy's
        ``max_batch``.
        """
        denom = sum(
            s / self.services.peak_throughput(m, self._policies[m].max_batch)
            for m, s in enumerate(self._shares))
        return self.n_replicas / denom

    def model_costs(self) -> List[float]:
        """Per-model estimated service seconds one queued request
        represents (amortized full-batch time at the model's own
        ``max_batch``) — the cost-aware router's backlog unit."""
        return self.services.est_request_costs(
            [p.max_batch for p in self._policies])

    def admission_limits(self) -> List[float]:
        """Each model's admission limit in the router's load unit — the
        one rule both engines read.

        Count mode: ``ceil(max_queue * w_m / max(w))`` requests, so the
        highest-weight model keeps the whole queue and lower-weight ones
        are shed progressively earlier as backlog builds; floored at one,
        so even a tiny weight admits at an empty replica.
        Cost-aware: the seconds equivalent, ``max_queue`` times the
        mix-weighted mean cost of one request, split the same way. That
        limit is judged against a replica's *total* cost-weighted backlog,
        so on a mix of two or more models each is raised to one max batch
        of the model's own work (``cost_m x max_batch_m``): a tiny-share
        expensive model's weighted slice can be below the cost of one of
        its requests, and cheap traffic would keep the backlog above it
        forever. ``max_queue=None``: no limit (``inf``)."""
        if self.max_queue is None:
            return [math.inf] * len(self._profiles)
        weights = [p.weight for p in self._profiles]
        w_max = max(weights)
        if not self.cost_aware:
            return [max(1, int(math.ceil(self.max_queue * w / w_max)))
                    for w in weights]
        costs = self.model_costs()
        # a plain loop: sum() compensates from Python 3.12
        mean = 0.0
        for share, c in zip(self._shares, costs):
            mean += share * c
        limits = [self.max_queue * mean * w / w_max for w in weights]
        if len(costs) > 1:
            floors = [c * p.max_batch for p, c in zip(self._policies, costs)]
            limits = [b if b > f else f for b, f in zip(limits, floors)]
        return limits

    def model_slos(self) -> List[float]:
        """Each model's latency target: its profile ``slo`` or, by
        default, a few full-batch service times on its own service curve
        plus its policy's hold budget and transport. (Continuous mode
        never holds, so its budget term is zero.)"""
        out = []
        for p, svc, pol in zip(self._profiles, self.services,
                               self._policies):
            if p.slo is not None:
                out.append(float(p.slo))
            else:
                out.append(3.0 * svc.batch_time(pol.max_batch)
                           + pol.launch_wait + svc.request_rtt())
        return out

    def default_slo(self) -> float:
        """A latency target that healthy, sub-saturation serving meets:
        the loosest per-model target of :meth:`model_slos` — the aggregate
        yardstick; per-model judging always uses :meth:`model_slos`."""
        return max(self.model_slos())

    # -- one run -------------------------------------------------------------
    def _arrivals(self, rate: float, n_requests: int, process: ProcessLike,
                  seed: SeedLike) -> np.ndarray:
        return make_arrivals(process, rate, n_requests, seed=seed)

    def _make_router(self, on_commit=None) -> Router:
        """Router factory — the reference (pre-PR) simulator overrides this
        to route with the O(R) linear scans for the differential tests.
        Knobs that are off stay at the router's own defaults: a fifo,
        count-based simulator constructs the plain router."""
        fns = self.services.batch_time_fns()
        return Router(self.machine, self.n_replicas, self.policy, fns[0],
                      limits=self.admission_limits(), on_commit=on_commit,
                      service_times=fns, tracer=self._tracer,
                      policies=self._policies, order=self.order,
                      model_slos=(None if self.order == "fifo"
                                  else self.model_slos()),
                      model_costs=(self.model_costs() if self.cost_aware
                                   else None))

    def _make_cache_run(self, n_requests: int, popularity: PopularityLike,
                        seed: SeedLike) -> Optional[_CacheRun]:
        if self.cache_size == 0 and not self.coalesce:
            return None
        # Content ids draw from an independent child stream of the run
        # seed: the seed itself feeds make_arrivals, and sharing one
        # generator state would couple *when* requests arrive with *what*
        # they ask for (burst phases and hot-key streaks consuming the
        # same uniforms), biasing every hit-rate-vs-tail curve.
        rng = spawn_rngs(seed if seed is not None else 0, 2)[1]
        contents = make_contents(popularity, n_requests, seed=rng)
        # cache_size=0 with coalesce=True: an inert (never-storing) cache
        # still carries the in-flight ledger — pure request deduplication.
        return _CacheRun(ResultCache(self.cache_size), contents)

    def _make_model_ids(self, n_requests: int,
                        seed: SeedLike) -> Optional[np.ndarray]:
        """Which model each request asks for; None when there is one model
        (every request is model 0, and a list of 10^6 zeros is not free).

        Drawn from a third independent child stream (arrivals consume the
        seed itself, content ids child 1) so adding a mix never perturbs
        *when* requests arrive or *what* content they carry.
        """
        if len(self._profiles) == 1:
            return None
        rng = spawn_rngs(seed if seed is not None else 0, 3)[2]
        # the smallest integer type that holds every index (one byte up to
        # 256 models): the run keeps this array beside the drive loops' list
        return make_model_ids(self.model_mix, n_requests, seed=rng).astype(
            np.min_scalar_type(len(self._profiles) - 1))

    def _content_key(self, request_id: int):
        """Cache key of one request: the content id, scoped by the model
        index on multi-model runs (two models' id spaces are distinct
        request populations — model 0's content 7 is not model 1's)."""
        content = self._cstate.contents[request_id]
        if self._mids is None:
            return content
        return (self._mids[request_id], content)

    def _run_meta(self, rate: float, n_requests: int,
                  process: ProcessLike, seed: SeedLike) -> dict:
        """Run configuration published to the tracer (`run_start` payload
        and ``Tracer.meta``): what exporters need to label tracks and
        judge latencies without a backref to the simulator."""
        return {"rate": float(rate), "n_requests": int(n_requests),
                "process": (process if isinstance(process, str)
                            else type(process).__name__),
                "seed": repr(seed),
                "n_replicas": self.n_replicas,
                "max_batch": self.policy.max_batch,
                "batching_mode": self.policy.mode,
                "order": self.order,
                "cost_aware": self.cost_aware,
                "model_max_batch": [p.max_batch for p in self._policies],
                "cache_size": self.cache_size,
                "coalesce": self.coalesce,
                "models": [p.name for p in self._profiles],
                "slos": self.model_slos(),
                "rtts": self._request_rtts()}

    def run(self, rate: float, n_requests: int = 512,
            process: ProcessLike = "uniform",
            seed: SeedLike = None,
            popularity: PopularityLike = None,
            tracer=None, profiler=None) -> LatencyStats:
        """Serve ``n_requests`` offered at ``rate`` req/s; returns stats.

        ``process='uniform'`` (default) gives a deterministic evenly-spaced
        stream — reproducible curves; ``'poisson'`` adds arrival burstiness
        and ``'mmpp'`` (or an :class:`~repro.serve.arrivals.MMPP` instance)
        adds correlated bursts on top. ``popularity`` draws each request's
        content id (default: all distinct — no request repeats, so a cache
        never hits); it only matters when ``cache_size > 0``.

        ``tracer`` (a :class:`repro.serve.obs.Tracer`) records the typed
        per-request/fleet event stream: request and batch events as a view
        of the run record, handed over after the run, and fleet changes as
        they happen. ``profiler`` (a :class:`repro.serve.obs.Profiler`)
        accumulates wall-clock span times of the hot path. Both are
        opt-in, and neither ever changes virtual-time results.
        """
        self._tracer = tracer
        self._prof = prof = profiler
        span = (prof.span if prof is not None
                else (lambda name: _NULL_SPAN))
        hooked: list = []   # (object, method name) the profiler wrapped
        try:
            with span("run.arrivals"):
                arrivals = self._arrivals(rate, n_requests, process, seed)
            self._cstate = self._make_cache_run(n_requests, popularity,
                                                seed)
            mids = self._mids_np = self._make_model_ids(n_requests, seed)
            self._mids = None if mids is None else mids.tolist()
            if tracer is not None:
                meta = self._run_meta(rate, n_requests, process, seed)
                tracer.meta.update(meta)
                tracer.emit("run_start", float(arrivals[0]), data=meta)
            router = self._make_router(
                on_commit=None if self._cstate is None
                else self._cstate.on_commit)
            if prof is not None:
                # Hook the hot-path bound methods per instance: an
                # unprofiled run never even pays for the check. Spans are
                # inclusive — submit contains sync (event catch-up:
                # batch planning and launch commits) which it calls.
                hooked = [(router, "_sync", "router.sync"),
                          (router, "submit", "router.submit")]
                if self._cstate is not None:
                    cache = self._cstate.cache
                    hooked += [(cache, "get", "cache.get"),
                               (cache, "put", "cache.put")]
                for obj, name, label in hooked:
                    setattr(obj, name, prof.wrap(label, getattr(obj, name)))
            with span("run.drive"):
                self._drive(arrivals, router)
            with span("run.drain"):
                router.drain()
            with span("run.collect"):
                stats = self._collect(arrivals, router)
            if tracer is not None:
                # one columnar block; the tracer expands it lazily
                tracer.add_record(
                    self._fast, arrivals, mids,
                    None if self.order == "fifo" else self.model_slos())
                tracer.emit("run_end", float(arrivals[0]) + stats.horizon,
                            data={"n_events": len(tracer) + 1})
            return stats
        finally:
            # A wrapper holds its object's own bound method: left on the
            # instance it would make the router and cache a reference
            # cycle that outlives the run.
            for obj, name, _ in hooked:
                delattr(obj, name)
            self._cstate = None
            self._mids = self._mids_np = None
            self._tracer = None
            self._prof = None
            self._fast = None

    def _offer(self, router: Router, t: float, request_id: int,
               model: int) -> bool:
        """Serve one arrival of a run with a result cache: the cache
        first, then the router. Returns whether the router admitted it
        (``False`` for a hit, a coalesced follower or a shed request).

        The cache fills from batch *completions* (the fill heap the
        router's commit hook feeds): a result exists only once some replica
        has produced it, so a burst of one new key misses until the first
        answer lands, then hits. Requests lost to a node death never fill
        the cache — their batch aborted, no result was produced.

        With ``coalesce``, a miss whose key is already being forwarded
        becomes a *follower*: it occupies no queue slot and completes at
        its leader's finish plus transport. The in-flight ledger clears
        when the leader's fill event lands. Followers already riding a
        forward when its replica dies are stranded as failures — their
        result was never produced — but a duplicate arriving *after* the
        death (which is causally known by then) re-leads with a fresh
        forward instead of following a corpse.
        """
        cstate = self._cstate
        if self.coalesce:
            # Commits normally fire inside submit's event catch-up, but a
            # coalesced (or hit) arrival never submits — sync explicitly,
            # or a run of duplicates would ride a leader whose batch long
            # since completed (stale ledger, fills never draining,
            # negative "latencies").
            router.sync(t)
        fills, cache = cstate.fills, cstate.cache
        while fills and fills[0][0] <= t:
            _, rids = heapq.heappop(fills)
            for rid in rids:
                key = self._content_key(rid)
                if rid not in router.failed_ids:
                    cache.put(key, rid)
                if cstate.inflight.get(key) == rid:
                    # Only the entry's own leader clears it: a dead
                    # leader's stale fill must not evict the ledger entry
                    # of a duplicate that re-led the key.
                    del cstate.inflight[key]
        key = self._content_key(request_id)
        hit, _ = cache.get(key)
        if hit:
            cstate.hits[request_id] = t
            return False
        if self.coalesce:
            leader = cstate.inflight.get(key)
            if leader is not None and leader not in router.failed_ids:
                cstate.coalesced[request_id] = leader
                return False
        admitted = router.submit(t, request_id, model)
        if admitted and self.coalesce:
            cstate.inflight[key] = request_id
        return admitted

    def _feed(self, router: Router, arrivals: np.ndarray):
        """The arrival times as native floats, the event loops' ``(t,
        request_id, model)`` stream over them and what serves one: the
        router's ``submit``, or :meth:`_offer` with a cache — bound after
        :meth:`run` hooks the profiler, so a profiled run times the
        ``submit`` it calls."""
        ts = arrivals.astype(np.float64).tolist()
        models = self._mids if self._mids is not None else repeat(0)
        serve = (router.submit if self._cstate is None
                 else partial(self._offer, router))
        return ts, zip(ts, range(len(ts)), models), serve

    def _drive(self, arrivals: np.ndarray, router: Router) -> None:
        """Serve the arrival stream (overridable).

        A configuration the flat struct-of-arrays core supports runs
        there (the router never sees a request; ``_collect`` reads the
        :class:`~repro.serve.fast_core.FastRun` it parks); any other runs
        on :meth:`_drive_events`, bit-identically.
        :class:`~repro.serve.autoscale.AutoscalingSimulator` overrides this
        to interleave control epochs and failure events with the same
        submissions — the control path is a superset of the event loop,
        not a fork, which is what makes the pinned-fleet differential test
        meaningful.
        """
        if fast_core.unsupported_reason(self) is not None:
            self._drive_events(arrivals, router)
            return
        self.last_run_engine = "array"
        self._fast = fast_core.drive(self, arrivals)

    def _drive_events(self, arrivals: np.ndarray, router: Router) -> None:
        """The object event loop: each arrival is one call (see
        :meth:`_feed`), the router's ``submit`` or :meth:`_offer` when a
        cache sits in front. It keeps no per-arrival ledger of its own:
        after the drain :meth:`_record` reads the router's and the cache
        run's. The differential tests pin a simulator to it by binding
        ``_drive`` to this method in a subclass."""
        self.last_run_engine = "event"
        _, stream, serve = self._feed(router, arrivals)
        for t, i, model in stream:
            serve(t, i, model)

    def _request_rtts(self) -> List[float]:
        """Per-model request transport times."""
        return [svc.request_rtt() for svc in self.services]

    def _collect(self, arrivals: np.ndarray,
                 router: Router) -> LatencyStats:
        """Turn a finished run into :class:`LatencyStats`: the array
        core's parked record or the event engine's (:meth:`_record`),
        through the one collector, :func:`~repro.serve.fast_core.collect`.

        Requests lost to a replica failure have no completion and are
        excluded from the latency sample (tallied in ``n_failed``, and
        counted against attainment via ``n_offered``). Cache hits complete
        at ``request_rtt()`` — pure transport, no queueing, no service —
        and coalesced followers at their leader's completion plus
        transport (a follower whose leader died is a failure: no result
        was ever produced for it). Multi-model runs additionally slice
        everything per model (:class:`~repro.serve.metrics.PerModelStats`),
        each judged with its own transport cost and against its own SLO.
        """
        if self._fast is None:
            self._fast = self._record(router, arrivals)
        return fast_core.collect(self, self._fast, arrivals)

    def _record(self, router: Router,
                arrivals: np.ndarray) -> fast_core.FastRun:
        """The event engine's finished run as the array core's record,
        read off the state the run already keeps: the batch lists (live
        replicas, then retired; the aborted ones last), whose kept batches
        give each member its completion, the router's shed, failed and
        re-routed ids, and the cache run's hit and follower ledgers.

        A follower completes with its leader; one whose leader died is
        stranded, a failure."""
        n = arrivals.size
        handles = router.replicas + router.retired
        batches = [(h.index, b) for h in handles for b in h.queue.batches]
        n_kept = len(batches)
        batches += [(h.index, b) for h in handles for b in h.queue.aborted]
        nb = len(batches)
        bsize = np.fromiter((b.size for _, b in batches), np.int64, nb)
        bcomp = np.fromiter((b.completion for _, b in batches), np.float64,
                            nb)
        members = np.fromiter(
            chain.from_iterable(b.request_ids for _, b in batches),
            np.int64, int(bsize.sum()))
        complete_t = np.full(n, np.nan)
        kept = bsize[:n_kept]
        complete_t[members[:int(kept.sum())]] = np.repeat(bcomp[:n_kept],
                                                          kept)
        shed = np.zeros(n, dtype=bool)
        shed[router.shed_ids] = True
        failed = np.zeros(n, dtype=bool)
        failed[list(router.failed_ids)] = True
        hit = leader = enqueue_t = None
        cstate = self._cstate
        if cstate is not None:
            hit = np.zeros(n, dtype=bool)
            hits = cstate.hits
            if hits:
                ids = np.fromiter(hits, np.intp, len(hits))
                complete_t[ids] = np.fromiter(hits.values(), np.float64,
                                              len(hits))
                hit[ids] = True
            riding = cstate.coalesced
            if riding:
                ids = np.fromiter(riding, np.intp, len(riding))
                leaders = np.fromiter(riding.values(), np.intp, len(riding))
                leader = np.full(n, -1, dtype=np.intp)
                leader[ids] = leaders
                dead = failed[leaders]
                live = ~dead
                complete_t[ids[live]] = complete_t[leaders[live]]
                failed[ids[dead]] = True
        if router.requeued:
            moved = router.requeued
            enqueue_t = arrivals.astype(np.float64)
            enqueue_t[np.fromiter(moved, np.intp, len(moved))] = np.fromiter(
                moved.values(), np.float64, len(moved))
        return fast_core.FastRun(
            complete_t=complete_t, shed=shed,
            bstart=np.fromiter((b.start for _, b in batches), np.float64,
                               nb),
            bcomp=bcomp, bsize=bsize,
            brep=np.fromiter((r for r, _ in batches), np.int64, nb),
            bfirst=np.cumsum(bsize) - bsize, members=members,
            hit=hit, failed=failed, leader=leader, enqueue_t=enqueue_t,
            aborted=np.arange(nb) >= n_kept if nb > n_kept else None)

    # -- sweeps --------------------------------------------------------------
    def sweep(self, rates: Optional[Sequence[float]] = None,
              n_requests: int = 512, slo: Optional[float] = None,
              process: ProcessLike = "uniform",
              seed: SeedLike = None,
              popularity: PopularityLike = None) -> SweepReport:
        """Run a request-rate sweep; default rates bracket saturation.

        With the deterministic ``uniform`` process and ``max_wait`` at or
        below the full-batch service time (true of the default policy on
        both paper workloads), the p99 curve is monotone nondecreasing and
        attainment monotone nonincreasing. When ``max_wait`` *exceeds* the
        batch service time, low-load latency is wait-dominated and rising
        load can genuinely shrink the tail for a while (batches fill before
        the deadline) — a real property of max-wait batching, not noise, so
        don't assert monotonicity for such configs. Stochastic processes
        (``poisson``, ``mmpp``) break strict monotonicity too: a lucky lull
        at one rate can beat an unlucky burst at a lower one, so assert
        only coarse trends (finite curves, degradation past saturation).
        """
        if rates is None:
            sat = self.saturation_rate()
            rates = [f * sat for f in DEFAULT_LOAD_FRACTIONS]
        rates = sorted(float(r) for r in rates)
        slo = self.default_slo() if slo is None else _require_slo(slo)
        report = SweepReport(slo=slo)
        for rate in rates:
            stats = self._run_point(rate, n_requests, process, seed,
                                    slo, popularity)
            report.add(rate, stats)
        return report

    def _run_point(self, rate: float, n_requests: int, process: ProcessLike,
                   seed: SeedLike, slo: float,
                   popularity: PopularityLike = None) -> LatencyStats:
        """One sweep point. The base simulator has no use for the sweep's
        SLO at run time; the autoscaler judges per-epoch attainment against
        it, so :class:`AutoscalingSimulator` overrides this to pass it
        through."""
        return self.run(rate, n_requests=n_requests, process=process,
                        seed=seed, popularity=popularity)


def compare_batching_modes(workload: Workload,
                           machine: Optional[CoriMachine] = None,
                           n_replicas: int = 1,
                           policy: Optional[BatchingPolicy] = None,
                           rates: Optional[Sequence[float]] = None,
                           n_requests: int = 512,
                           slo: Optional[float] = None,
                           process: ProcessLike = "uniform",
                           seed: SeedLike = None,
                           max_queue: Optional[int] = 256
                           ) -> PolicyComparison:
    """Sweep the same serving setup under windowed and continuous batching.

    Both sweeps share the machine, the memoized service-time model, the
    rate grid, the SLO (the windowed policy's default, so attainment is
    judged on identical terms), and the arrival stream seed — the only
    difference is the launch rule. The returned
    :class:`~repro.serve.metrics.PolicyComparison` quantifies the low-load
    p50/p99 win of continuous batching, the core claim of the vLLM-style
    scheduling literature, on this workload.
    """
    policy = policy or BatchingPolicy()
    machine = machine or cori(seed=0, jitter=False)
    service = ServiceTimeModel(workload, node=machine.node,
                               cost=machine.network.cost)
    sims = {
        mode: ServingSimulator(workload, machine=machine,
                               n_replicas=n_replicas,
                               policy=policy.with_mode(mode),
                               max_queue=max_queue, service_model=service)
        for mode in ("windowed", "continuous")}
    if rates is None:
        sat = sims["windowed"].saturation_rate()
        rates = [f * sat for f in DEFAULT_LOAD_FRACTIONS]
    if slo is None:
        slo = sims["windowed"].default_slo()
    reports = {mode: sim.sweep(rates=rates, n_requests=n_requests, slo=slo,
                               process=process, seed=seed)
               for mode, sim in sims.items()}
    return PolicyComparison(windowed=reports["windowed"],
                            continuous=reports["continuous"])


def sweep_cache_sizes(workload: Workload,
                      sizes: Sequence[int],
                      rate: Optional[float] = None,
                      machine: Optional[CoriMachine] = None,
                      n_replicas: int = 1,
                      policy: Optional[BatchingPolicy] = None,
                      n_requests: int = 2048,
                      slo: Optional[float] = None,
                      process: ProcessLike = "uniform",
                      popularity: PopularityLike = "zipf",
                      seed: SeedLike = None,
                      max_queue: Optional[int] = 256) -> CacheSizeSweep:
    """The hit-rate vs p99/attainment trade across cache capacities.

    Runs the identical trace — same arrivals, same content-id stream, same
    fleet, one shared service-time model — once per cache size (0 = the
    uncached baseline) at one fixed offered rate (default: 1.25x the
    fleet's saturation rate, the regime where deflected load is the
    difference between meeting the SLO and shedding). The returned
    :class:`~repro.serve.metrics.CacheSizeSweep` holds the hit-rate, p99,
    attainment, and deflected-load curves against capacity.
    """
    machine = machine or cori(seed=0, jitter=False)
    policy = policy or BatchingPolicy()
    service = ServiceTimeModel(workload, node=machine.node,
                               cost=machine.network.cost)
    sizes = [require_count("cache_size", s, least=0) for s in sizes]
    if slo is not None:
        slo = _require_slo(slo)
    base = ServingSimulator(workload, machine=machine,
                            n_replicas=n_replicas, policy=policy,
                            max_queue=max_queue, service_model=service)
    if rate is None:
        rate = 1.25 * base.saturation_rate()
    if slo is None:
        slo = base.default_slo()
    points: List[LatencyStats] = []
    for size in sizes:
        sim = ServingSimulator(workload, machine=machine,
                               n_replicas=n_replicas, policy=policy,
                               max_queue=max_queue, service_model=service,
                               cache_size=size)
        points.append(sim.run(rate, n_requests=n_requests, process=process,
                              seed=seed, popularity=popularity))
    return CacheSizeSweep(slo=float(slo), rate=float(rate), sizes=sizes,
                          points=points)
