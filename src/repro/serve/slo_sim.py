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
slices judged against per-model SLOs. See the class docstring; with one
profile everything reduces bit-identically to the classic simulator.
"""

from __future__ import annotations

import heapq
import math
from contextlib import nullcontext
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
    PerModelStats,
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

#: drive-loop implementations: the object event loop and the flat
#: struct-of-arrays core (bit-identical; see repro.serve.fast_core)
ENGINES = ("event", "array")

#: shared no-op context for unprofiled runs (contextlib.nullcontext is
#: reusable and reentrant, so one instance serves every span site)
_NULL_SPAN = nullcontext()


class _CacheRun:
    """Per-run cache state: the cache itself, each request's content id,
    the fill events (batch completions waiting to become cache entries),
    which requests were served from cache (id -> arrival time), plus the
    request-coalescing ledger — in-flight leaders by key and the
    followers riding each one (id -> (arrival time, leader id))."""

    __slots__ = ("cache", "contents", "fills", "hits", "inflight",
                 "coalesced")

    def __init__(self, cache: ResultCache, contents: np.ndarray) -> None:
        self.cache = cache
        self.contents = contents.tolist()   # plain ints: hot-path lookups
        self.fills: list = []               # heap of (completion, ids)
        self.hits: dict = {}                # request_id -> arrival time
        self.inflight: dict = {}            # content key -> leader id
        self.coalesced: dict = {}           # follower id -> (arrival, leader)

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
    against that model's own SLO. With exactly one profile every code
    path collapses to the classic single-model simulator bit for bit —
    pinned by the differential tests.

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

    On multi-model cost-aware runs the derived per-model seconds budget
    is floored at each model's single max-batch cost
    (``cost_m x max_batch_m``): a skewed mix would otherwise hand a
    tiny-share expensive model a budget smaller than one of its own
    requests, shedding it forever while the replicas idle.

    ``engine`` selects the drive loop: ``"event"`` (default) is the
    object event loop above; ``"array"`` swaps in the flat
    struct-of-arrays core (:mod:`repro.serve.fast_core`) when the config
    is in its supported class — fixed fleet, count admission, fifo launch
    order. That class is *one* loop over ``M`` per-model lanes per replica
    with an optional result cache in front: a single-model run is its
    ``M == 1`` case, per-model policies and the cache are parameters of
    it. The genuinely event-only features (tracing/profiling, coalescing,
    cost-aware, edf) transparently fall back to the event loop.
    ``last_run_engine`` records which one ran. The two engines are
    bit-identical, pinned by the engine differential suite (hand-picked
    families and generated configurations) and the full-lattice support
    test.

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
                 engine: str = "event") -> None:
        cache_size = require_count("cache_size", cache_size, least=0)
        if order not in LAUNCH_ORDERS:
            raise ValueError(f"unknown launch order {order!r}; "
                             f"have {LAUNCH_ORDERS}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
        n_replicas = require_count("n_replicas", n_replicas)
        max_queue = require_count("max_queue", max_queue, none_ok=True)
        self.machine = machine or cori(seed=0, jitter=False)
        self.n_replicas = n_replicas
        self.policy = policy or BatchingPolicy()
        self.order = order
        self.cost_aware = bool(cost_aware)
        self.engine = engine
        self.max_queue = max_queue
        self.models: Optional[List[ModelProfile]] = None
        self.model_mix: Optional[ModelMix] = None
        self.coalesce = coalesce
        if models is not None:
            # -- the multi-model path ------------------------------------
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
            self.model_mix = model_mix
            self.workload = None
            if service_models is not None:
                if len(service_models) != len(self.models):
                    raise ValueError(
                        f"{len(service_models)} service models for "
                        f"{len(self.models)} profiles")
                self.services = PerModelServiceTime(service_models)
            else:
                self.services = PerModelServiceTime.for_workloads(
                    [p.workload for p in self.models],
                    node=self.machine.node,
                    cost=self.machine.network.cost)
            # ``self.service`` stays the single-model attribute only.
            self.service = None
        else:
            if model_mix is not None or service_models is not None:
                raise ValueError(
                    "model_mix/service_models require models=...")
            if workload is None and service_model is None:
                raise ValueError(
                    "pass a workload (single-model), models=[...] "
                    "(multi-model), or an explicit service_model")
            self.workload = workload
            self.service = service_model or ServiceTimeModel(
                workload, node=self.machine.node,
                cost=self.machine.network.cost)
            self.services = None
        self.cache_size = cache_size
        self._cstate: Optional[_CacheRun] = None
        self._mids: Optional[list] = None
        # Per-run observability handles (set by run(), cleared after): the
        # structured event tracer and the wall-clock profiler. Both are
        # None by default — the untraced path is the exact pre-obs
        # instruction stream, pinned bit-identical by the obs tests.
        self._tracer = None
        self._prof = None
        # Array-core handoff: _drive parks the FastRun here for _collect
        # when the native path ran; which loop actually drove the last
        # run() is recorded for callers (and the differential tests).
        self._fast: Optional[fast_core.FastRun] = None
        self.last_run_engine: Optional[str] = None

    # -- capacity ------------------------------------------------------------
    def model_policies(self) -> Optional[List[BatchingPolicy]]:
        """Per-model batching policies, or ``None`` when every profile
        inherits the shared one (the pre-refactor wiring, untouched)."""
        if self.models is None or all(p.policy is None
                                      for p in self.models):
            return None
        return [p.policy if p.policy is not None else self.policy
                for p in self.models]

    def _policy_of(self, m: int) -> BatchingPolicy:
        """Model ``m``'s effective batching policy."""
        if self.models is not None and self.models[m].policy is not None:
            return self.models[m].policy
        return self.policy

    def saturation_rate(self) -> float:
        """Offered rate (req/s) at which full-batch replicas are 100% busy.

        Multi-model: the mix-weighted capacity — rate ``r`` lands
        ``r * share_m`` on model ``m``, each request of which costs
        ``1 / peak_m`` replica-seconds, so the fleet saturates at
        ``R / sum_m(share_m / peak_m)`` (one model's reciprocal throughput
        with one profile). Each model runs at its own policy's
        ``max_batch`` when per-model policies are set.
        """
        if self.models is None:
            return self.n_replicas * self.service.peak_throughput(
                self.policy.max_batch)
        shares = self.model_mix.shares
        denom = sum(
            float(s) / self.services.peak_throughput(
                m, self._policy_of(m).max_batch)
            for m, s in enumerate(shares))
        return self.n_replicas / denom

    def model_costs(self) -> List[float]:
        """Per-model estimated service seconds one queued request
        represents (amortized full-batch time at the model's own
        ``max_batch``) — the cost-aware router's backlog unit."""
        if self.models is None:
            return [self.service.est_request_cost(self.policy.max_batch)]
        return self.services.est_request_costs(
            [self._policy_of(m).max_batch
             for m in range(len(self.models))])

    def model_slos(self) -> List[float]:
        """Each model's latency target: its profile ``slo`` or, by
        default, the single-model formula on its own service curve (and
        its own batching policy, when it has one)."""
        if self.models is None:
            return [self.default_slo()]
        out = []
        for m, p in enumerate(self.models):
            if p.slo is not None:
                out.append(float(p.slo))
            else:
                svc = self.services[m]
                pol = self._policy_of(m)
                out.append(3.0 * svc.batch_time(pol.max_batch)
                           + pol.launch_wait + svc.request_rtt())
        return out

    def default_slo(self) -> float:
        """A latency target that healthy, sub-saturation serving meets:
        a few full-batch service times plus hold budget and transport.
        (Continuous mode never holds, so its budget term is zero.)
        Multi-model: the loosest per-model target — the aggregate
        yardstick; per-model judging always uses :meth:`model_slos`."""
        if self.models is None:
            return (3.0 * self.service.batch_time(self.policy.max_batch)
                    + self.policy.launch_wait + self.service.request_rtt())
        return max(self.model_slos())

    # -- one run -------------------------------------------------------------
    def _arrivals(self, rate: float, n_requests: int, process: ProcessLike,
                  seed: SeedLike) -> np.ndarray:
        return make_arrivals(process, rate, n_requests, seed=seed)

    def _scheduling_kwargs(self) -> dict:
        """Deadline/cost scheduling knobs for the router — every value
        defaults to the router's own default when the knob is off, so a
        fifo, count-based simulator constructs the exact legacy router."""
        kw = {"policies": self.model_policies(), "order": self.order,
              "model_slos": None, "model_costs": None,
              "max_queue_seconds": None, "admission_floor_seconds": None}
        if self.order != "fifo":
            kw["model_slos"] = self.model_slos()
        if self.cost_aware:
            costs = self.model_costs()
            kw["model_costs"] = costs
            if self.max_queue is not None:
                # the seconds equivalent of `max_queue` queued requests:
                # the mix-weighted mean cost of one — same expected queue
                # bound, now denominated in work
                if self.models is None:
                    mean_cost = costs[0]
                else:
                    mean_cost = sum(
                        float(s) * c
                        for s, c in zip(self.model_mix.shares, costs))
                    # Floor each model's share of the derived budget at
                    # one of its own max batches: a skewed mix hands a
                    # tiny-share expensive model a weighted budget below
                    # a single request's cost, and because the seconds
                    # limit is judged against a replica's *total*
                    # cost-weighted backlog, cheap traffic keeps it
                    # pinned above that sliver forever — 100% shed.
                    kw["admission_floor_seconds"] = [
                        c * self._policy_of(m).max_batch
                        for m, c in enumerate(costs)]
                kw["max_queue_seconds"] = self.max_queue * mean_cost
        return kw

    def _make_router(self, on_commit=None) -> Router:
        """Router factory — the reference (pre-PR) simulator overrides this
        to route with the O(R) linear scans for the differential tests."""
        if self.models is not None:
            fns = self.services.batch_time_fns()
            return Router(self.machine, self.n_replicas, self.policy,
                          fns[0],
                          max_queue=self.max_queue, on_commit=on_commit,
                          service_times=fns,
                          model_weights=[p.weight for p in self.models],
                          tracer=self._tracer,
                          **self._scheduling_kwargs())
        return Router(self.machine, self.n_replicas, self.policy,
                      self.service.batch_time, max_queue=self.max_queue,
                      on_commit=on_commit, tracer=self._tracer,
                      **self._scheduling_kwargs())

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
        return _CacheRun(ResultCache(self.cache_size, tracer=self._tracer),
                         contents)

    def _make_model_ids(self, n_requests: int,
                        seed: SeedLike) -> Optional[list]:
        """Which model each request asks for; None on single-model runs.

        Drawn from a third independent child stream (arrivals consume the
        seed itself, content ids child 1) so adding a mix never perturbs
        *when* requests arrive or *what* content they carry. A one-model
        mix draws nothing — the single-model differential's guarantee.
        """
        if self.models is None:
            return None
        rng = spawn_rngs(seed if seed is not None else 0, 3)[2]
        return make_model_ids(self.model_mix, n_requests,
                              seed=rng).tolist()

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
        if self.models is None:
            names = [getattr(self.workload, "name", None) or "model0"]
        else:
            names = [p.name for p in self.models]
        return {"rate": float(rate), "n_requests": int(n_requests),
                "process": (process if isinstance(process, str)
                            else type(process).__name__),
                "seed": repr(seed),
                "n_replicas": self.n_replicas,
                "max_batch": self.policy.max_batch,
                "batching_mode": self.policy.mode,
                "order": self.order,
                "cost_aware": self.cost_aware,
                "model_max_batch": [self._policy_of(m).max_batch
                                    for m in range(
                                        1 if self.models is None
                                        else len(self.models))],
                "cache_size": self.cache_size,
                "coalesce": self.coalesce,
                "models": names,
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
        per-request/fleet event stream; ``profiler`` (a
        :class:`repro.serve.obs.Profiler`) accumulates wall-clock span
        times of the hot path. Both are opt-in: left ``None`` (the
        default) the run executes the exact pre-obs instruction stream,
        bit for bit; neither ever changes virtual-time results.
        """
        self._tracer = tracer
        self._prof = prof = profiler
        span = (prof.span if prof is not None
                else (lambda name: _NULL_SPAN))
        try:
            with span("run.arrivals"):
                arrivals = self._arrivals(rate, n_requests, process, seed)
            self._cstate = self._make_cache_run(n_requests, popularity,
                                                seed)
            self._mids = self._make_model_ids(n_requests, seed)
            if tracer is not None:
                meta = self._run_meta(rate, n_requests, process, seed)
                tracer.meta.update(meta)
                tracer.emit("run_start", float(arrivals[0]), data=meta)
                # the whole arrival stream is known up front — hand the
                # arrays over as one columnar block (O(1)); the tracer
                # expands them lazily at materialization
                tracer.bulk_arrivals(arrivals, self._mids)
            router = self._make_router(
                on_commit=None if self._cstate is None
                else self._cstate.on_commit)
            if prof is not None:
                # Hook the hot-path bound methods per instance: an
                # unprofiled run never even pays for the check. Spans are
                # inclusive — submit contains sync (event catch-up:
                # batch planning and launch commits) which it calls.
                router._sync = prof.wrap("router.sync", router._sync)
                router.submit = prof.wrap("router.submit", router.submit)
                if self._cstate is not None:
                    cache = self._cstate.cache
                    cache.get = prof.wrap("cache.get", cache.get)
                    cache.put = prof.wrap("cache.put", cache.put)
            admitted: dict = {}
            with span("run.drive"):
                self._drive(arrivals, router, admitted)
            with span("run.drain"):
                router.drain()
            with span("run.collect"):
                stats = self._collect(arrivals, router, admitted)
            if tracer is not None:
                if self._cstate is not None:
                    # hand the run's hit ledger over as one columnar
                    # block — the hottest branch under Zipf traffic
                    # pays nothing per event
                    tracer.bulk_cache_hits(self._cstate.hits, self._mids)
                # no counts() here: tallying is O(events) and would land
                # inside the overhead budget; readers call counts()
                tracer.emit("run_end", float(arrivals[0]) + stats.horizon,
                            data={"n_events": len(tracer) + 1})
            return stats
        finally:
            self._cstate = None
            self._mids = None
            self._tracer = None
            self._prof = None
            self._fast = None

    def _offer(self, router: Router, admitted: dict, t: float,
               request_id: int) -> None:
        """Serve one arrival: result cache first, then the router.

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
        tracer = self._tracer   # arrivals were bulk-emitted by run()
        mids = self._mids
        cstate = self._cstate
        if cstate is not None:
            if self.coalesce:
                # Commits normally fire inside submit's event catch-up,
                # but a coalesced (or hit) arrival never submits — sync
                # explicitly, or a run of duplicates would ride a leader
                # whose batch long since completed (stale ledger, fills
                # never draining, negative "latencies").
                router.sync(t)
            fills, cache = cstate.fills, cstate.cache
            while fills and fills[0][0] <= t:
                t_fill, rids = heapq.heappop(fills)
                if tracer is not None:
                    # The cache has no clock; stamp its insert/evict
                    # events at the fill's (batch completion) time.
                    cache.now = t_fill
                for rid in rids:
                    key = self._content_key(rid)
                    if rid not in router.failed_ids:
                        cache.put(key, rid)
                    if cstate.inflight.get(key) == rid:
                        # Only the entry's own leader clears it: a dead
                        # leader's stale fill must not evict the ledger
                        # entry of a duplicate that re-led the key.
                        del cstate.inflight[key]
            key = self._content_key(request_id)
            hit, _ = cache.get(key)
            if hit:
                # no trace emission here: hits are bulk-emitted by run()
                # from this ledger after the drive loop
                cstate.hits[request_id] = t
                return
            if self.coalesce:
                leader = cstate.inflight.get(key)
                if leader is not None and \
                        leader not in router.failed_ids:
                    cstate.coalesced[request_id] = (t, leader)
                    if tracer is not None:
                        tracer.emit_raw(
                            (t, "coalesce", request_id, None,
                             0 if mids is None else mids[request_id],
                             {"leader": leader}))
                    return
        model = 0 if mids is None else mids[request_id]
        if router.submit(t, request_id, model):
            admitted[request_id] = t
            if cstate is not None and self.coalesce:
                cstate.inflight[key] = request_id

    def _drive(self, arrivals: np.ndarray, router: Router,
               admitted: dict) -> None:
        """Feed the arrival stream through the router (overridable).

        :class:`~repro.serve.autoscale.AutoscalingSimulator` overrides this
        to interleave control epochs and failure events with the same
        submissions — the control path is a superset of this one, not a
        fork, which is what makes the pinned-fleet differential test
        meaningful. The one-shot ``tolist`` converts the whole stream to
        native floats up front — per-arrival ``float(np_scalar)`` was a
        measurable slice of the pre-PR hot path.

        ``engine="array"`` hands supported configs to the flat
        struct-of-arrays core instead (the router never sees a request;
        ``_collect`` reads the parked :class:`~repro.serve.fast_core.\
FastRun`), falling back to this loop — bit-identically — otherwise.
        """
        if self.engine == "array" \
                and fast_core.unsupported_reason(self) is None:
            self.last_run_engine = "array"
            self._fast = fast_core.drive(self, arrivals)
            return
        self.last_run_engine = "event"
        offer = self._offer
        for i, t in enumerate(arrivals.astype(np.float64).tolist()):
            offer(router, admitted, t, i)

    def _request_rtts(self) -> List[float]:
        """Per-model request transport times (one entry single-model)."""
        if self.models is None:
            return [self.service.request_rtt()]
        return [self.services.request_rtt(m)
                for m in range(len(self.models))]

    def _collect(self, arrivals: np.ndarray, router: Router,
                 admitted: dict) -> LatencyStats:
        """Turn a finished router run into :class:`LatencyStats`.

        Requests admitted but lost to a replica failure have no completion
        and are excluded from the latency sample (they are tallied in
        ``n_failed`` and count against attainment via ``n_offered``). Only
        those: any *other* admitted request missing a completion is a
        scheduler bug and raises KeyError here rather than silently
        shrinking the sample. Cache hits complete at ``request_rtt()`` —
        pure transport, no queueing, no service — and coalesced followers
        at their leader's completion plus transport (a follower whose
        leader died is a failure: no result was ever produced for it).

        Multi-model runs additionally slice everything per model
        (:class:`PerModelStats`), each judged with its own transport cost
        and against its own SLO; conservation holds per model and in
        aggregate.

        When the array core drove the run, the parked
        :class:`~repro.serve.fast_core.FastRun` is assembled instead —
        same fields, same floats (``fast_core.collect`` documents the
        bit-identity).
        """
        if self._fast is not None:
            run, self._fast = self._fast, None
            return fast_core.collect(self, run, arrivals)
        cstate = self._cstate
        hits = cstate.hits if cstate is not None else {}
        coalesced = cstate.coalesced if cstate is not None else {}
        completions = router.completions()
        mids, rtts = self._mids, self._request_rtts()
        rtt = rtts[0]

        def rtt_of(i: int) -> float:
            return rtt if mids is None else rtts[mids[i]]

        tracer = self._tracer
        lat: List[float] = []
        which: List[int] = []      # request id per latency entry
        n_coalesced = coal_failed = 0
        for i in sorted(admitted.keys() | hits.keys() | coalesced.keys()):
            if i in router.failed_ids:
                continue
            if i in hits:
                lat.append(rtt_of(i))
            elif i in coalesced:
                t_arr, leader = coalesced[i]
                m = 0 if mids is None else mids[i]
                if leader in router.failed_ids:
                    # Stranded follower: its leader's forward died, so no
                    # result was ever produced for it.
                    coal_failed += 1
                    if tracer is not None:
                        tracer.emit("fail", t_arr, request_id=i, model=m,
                                    data={"leader": leader,
                                          "stranded": True})
                    continue
                lat.append(completions[leader] - t_arr + rtt_of(i))
                n_coalesced += 1
                if tracer is not None:
                    tracer.emit("complete", completions[leader],
                                request_id=i, model=m,
                                data={"via": "coalesced",
                                      "leader": leader})
            else:
                lat.append(completions[i] - admitted[i] + rtt_of(i))
            which.append(i)
        latencies = np.array(lat)
        last = -math.inf
        if completions:
            last = max(completions.values())
        if hits:
            last = max(last, max(hits.values()))
        horizon = 0.0
        if last > -math.inf:
            # Final transport leg: the one rtt single-model; the largest
            # per-model rtt on a mixed run (conservative by at most the
            # rtt spread — the last event's own model is not tracked).
            horizon = (last + (rtt if mids is None else max(rtts))
                       - float(arrivals[0]))
        batch_sizes = np.array([b.size for b in router.batches()], dtype=int)
        stats = LatencyStats(
            latencies=latencies,
            n_offered=router.n_offered + len(hits) + len(coalesced),
            n_dropped=router.n_dropped, horizon=horizon,
            batch_sizes=batch_sizes,
            n_failed=router.n_failed + coal_failed,
            n_cache_hits=len(hits), n_coalesced=n_coalesced)
        if self.models is not None:
            stats.models = self._per_model_stats(
                router, admitted, hits, coalesced, latencies, which, rtts)
        return stats

    def _per_model_stats(self, router: Router, admitted: dict, hits: dict,
                         coalesced: dict, latencies: np.ndarray,
                         which: List[int],
                         rtts: List[float]) -> List[PerModelStats]:
        """Slice one finished run per model (multi-model runs only)."""
        mids, slos = self._mids, self.model_slos()
        M = len(self.models)
        lat_by_m: List[List[float]] = [[] for _ in range(M)]
        for pos, i in enumerate(which):
            lat_by_m[mids[i]].append(float(latencies[pos]))
        hits_by_m = [0] * M
        for i in hits:
            hits_by_m[mids[i]] += 1
        coal_by_m = [0] * M
        coal_failed_by_m = [0] * M
        for i, (_, leader) in coalesced.items():
            if leader in router.failed_ids:
                coal_failed_by_m[mids[i]] += 1
            else:
                coal_by_m[mids[i]] += 1
        failed_by_m = [0] * M
        for i in router.failed_ids:
            failed_by_m[mids[i]] += 1
        out = []
        for m, profile in enumerate(self.models):
            offered = (router.offered_by_model.get(m, 0)
                       + hits_by_m[m] + coal_by_m[m] + coal_failed_by_m[m])
            out.append(PerModelStats(
                name=profile.name, slo=slos[m], weight=profile.weight,
                latencies=np.array(lat_by_m[m]),
                n_offered=offered,
                n_dropped=router.dropped_by_model.get(m, 0),
                n_failed=failed_by_m[m] + coal_failed_by_m[m],
                n_cache_hits=hits_by_m[m],
                n_coalesced=coal_by_m[m]))
        return out

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
        if slo is None:
            slo = self.default_slo()
        elif slo <= 0:
            raise ValueError(f"slo must be positive, got {slo}")
        report = SweepReport(slo=float(slo))
        for rate in rates:
            stats = self._run_point(rate, n_requests, process, seed,
                                    float(slo), popularity)
            # Surface which drive loop produced each point: with
            # engine="array" every supported point runs on the array core
            # and benchmarks can assert no silent fallback occurred.
            report.add(rate, stats, engine=self.last_run_engine)
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
                      max_queue: Optional[int] = 256,
                      engine: str = "event") -> CacheSizeSweep:
    """The hit-rate vs p99/attainment trade across cache capacities.

    Runs the identical trace — same arrivals, same content-id stream, same
    fleet, one shared service-time model — once per cache size (0 = the
    uncached baseline) at one fixed offered rate (default: 1.25x the
    fleet's saturation rate, the regime where deflected load is the
    difference between meeting the SLO and shedding). The returned
    :class:`~repro.serve.metrics.CacheSizeSweep` holds the hit-rate, p99,
    attainment, and deflected-load curves against capacity.

    ``engine="array"`` routes every point through the flat array core
    (cached runs are natively supported there); the per-point engines that
    actually ran are surfaced on the returned sweep so callers can assert
    nothing silently fell back.
    """
    machine = machine or cori(seed=0, jitter=False)
    policy = policy or BatchingPolicy()
    service = ServiceTimeModel(workload, node=machine.node,
                               cost=machine.network.cost)
    sizes = [require_count("cache_size", s, least=0) for s in sizes]
    base = ServingSimulator(workload, machine=machine,
                            n_replicas=n_replicas, policy=policy,
                            max_queue=max_queue, service_model=service)
    if rate is None:
        rate = 1.25 * base.saturation_rate()
    if slo is None:
        slo = base.default_slo()
    points: List[LatencyStats] = []
    engines: List[str] = []
    for size in sizes:
        sim = ServingSimulator(workload, machine=machine,
                               n_replicas=n_replicas, policy=policy,
                               max_queue=max_queue, service_model=service,
                               cache_size=size, engine=engine)
        points.append(sim.run(rate, n_requests=n_requests, process=process,
                              seed=seed, popularity=popularity))
        engines.append(sim.last_run_engine)
    return CacheSizeSweep(slo=float(slo), rate=float(rate), sizes=sizes,
                          points=points, engines=engines)
