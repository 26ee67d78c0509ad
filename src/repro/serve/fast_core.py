"""Flat struct-of-arrays serving core: the ten-million-request drive loop.

The object event loop (:class:`~repro.serve.slo_sim.ServingSimulator` +
:class:`~repro.serve.router.Router` + per-replica
:class:`~repro.serve.batching.ReplicaBatchQueue` lanes) is the *semantic*
definition of the simulator, but at 10^6-10^7 requests its per-arrival
costs — three method calls (``Router.submit``, its admit body
``_route``, ``ReplicaBatchQueue.push``), tuple churn on the load heap, a
dict lookup per counter — dominate wall clock (it calls ``_sync`` and
``advance`` only when an event is due or a lane is full: this loop's
``nle`` / ``nce`` and ``nfull`` rules).
This module is the same discrete-event computation restructured as one
fused loop over preallocated arrays and compact C-typed buffers:

- per-request state is two preallocated arrays (completion time, shed
  flag) plus append-only per-lane ``array('q')`` buffers of member ids
  with head pointers, compacted as they are consumed (a "lane" is a
  window into an append-only buffer, and a drained prefix is reclaimed
  once it crosses a threshold — at 10^7 requests Python-list lanes and
  batch records would otherwise dominate memory);
- the load heap holds *int-encoded* keys ``backlog << shift | replica``
  (one machine int instead of a tuple), replaced in place on admit (one
  ``heapreplace``); a completion's stale key costs one int compare;
- launch/completion heaps are consulted through cached "next event time"
  scalars, so the common no-event-due arrival costs two float compares;
- every per-request column (arrival times, model ids, cache keys) is the
  run's NumPy array, read in place through a ``memoryview``, which yields
  Python floats and ints without a boxed copy of the column; a lane
  member's arrival time is read back by its id;
- per-request completion times are written once at the end with a single
  ``np.repeat`` fancy assignment from the per-batch record.

**One record, one collector.** A drive ends in a :class:`FastRun`:
per-request completion times and outcome masks plus the batch columns.
The event engine ends in the same record (``ServingSimulator._record``
fills it after the drain from the router's ledgers), so :func:`collect`
is the only code that turns a run into
:class:`~repro.serve.metrics.LatencyStats` — about fifteen vectorized
calls, no per-request Python loop on either engine. :func:`drive` and
:func:`collect` read the simulator's per-run value (arrival times, model
and content ids, transport times) and its public configuration, nothing
the simulator keeps privately.

**Equivalence, not approximation.** Every float produced here is computed
by the same IEEE-754 operations in the same order as the event loop:
launch instants as two-way ``max`` of the same operands, completions as
``launch + service[take]`` from the same memoized service tables,
latencies as ``(completion - arrival) + rtt``. The engine differential
suite (``tests/test_serve_fastcore.py``) pins bit-identical
:class:`~repro.serve.metrics.LatencyStats` against the event engine — on
hand-picked families and on generated configurations — and against the
PR 4 frozen oracle (:mod:`repro.serve.reference`), and
``benchmarks/test_serve_fastcore.py`` re-pins it at the full million
requests while asserting the per-class speedup floors.

**Scope.** One loop, :func:`_drive`, covers every *fixed-fleet, fifo,
count-admission* configuration. Each replica holds ``M``
per-model lanes — segmented arrays sharing one ``free_at`` timeline,
advanced by the same globally-earliest ``(launch, partial, model)`` key
rule as :meth:`~repro.serve.batching.ReplicaBatchQueue.advance` — with
per-model batching policies, service tables and the simulator's
weighted count admission limits, and SLO/stats attribution in
:func:`collect`. What the simulator calls a configuration *class* is a
parameter of that loop, not a second solver (the way fully synchronous
training is the one-group case of the paper's hybrid scheme):

- the **multi-model** class (``models=[...]``) is ``M = len(models)``;
- the **plain** single-model class (windowed or continuous batching,
  ``max_queue`` or ``None``) is one lane per replica: the simulator holds
  a single model as one-entry per-model lists, and :func:`drive` builds
  every class's tables from those lists alike;
- the **cached** classes (``cache_size > 0``, any popularity law, on one
  model or many) add the optional LRU cache in front: keys are a
  precomputed int vector (``content * M + model``), the decision loop
  runs inline over one plain dict — decision-identical to
  :class:`~repro.serve.cache.ResultCache` — fed from batch completions
  through the same ``(completion, request_ids)`` fill-heap ordering the
  event loop's commit hook uses, and hits complete at ``request_rtt()``
  without ever touching the load heap.

The control-heavy features keep the object loop: request coalescing,
cost-aware routing/admission and edf launch ordering. A trace does not:
it is a view of the :class:`FastRun` both engines end in, expanded after
the run by :mod:`repro.serve.obs`, so a traced run stays on this core.
No caller picks the engine: every ``ServingSimulator`` run consults
:func:`unsupported_reason` and runs here unless it names a reason; the
support-lattice test asserts every combination lands on the engine the
predicate claims.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush, heapify, heapreplace
from typing import List, Optional

import numpy as np

from repro.serve.metrics import LatencyStats, PerModelStats

_INF = math.inf

#: consumed lane/batch-buffer prefixes are reclaimed past this length
_COMPACT = 1 << 13


def unsupported_reason(sim) -> Optional[str]:
    """Why ``sim``'s current configuration cannot run on the array core
    (``None``: it can), and so which engine runs it. The predicate is
    explicit and exhaustive — the support-lattice test asserts it against
    every config combination, so a config silently landing on the wrong
    path fails loudly there.

    Supported natively: fixed-fleet single- or multi-model serving with
    count-based (optionally weighted) admission, fifo launch order,
    windowed or continuous batching, per-model batching policies, and a
    result cache in front. Event-loop only: everything that reorders the
    control path. A tracer reads the run record after the run and a
    profiler times the ``run.*`` phases; neither changes a result, so
    both stay on their engine.
    """
    if sim.cost_aware:
        return "cost-aware routing/admission is event-loop only"
    if sim.order != "fifo":
        return f"launch order {sim.order!r} is event-loop only"
    if sim.coalesce:
        return "request coalescing is event-loop only"
    return None


@dataclass
class FastRun:
    """One finished run, pre-:class:`LatencyStats` — the record both
    engines end in (the event engine's is built by
    ``ServingSimulator._record`` after its drain), and what a trace is
    expanded from (:meth:`repro.serve.obs.Tracer.add_record`).

    ``complete_t[i]`` is request ``i``'s completion time: its arrival time
    for a cache hit, its leader's completion for a coalesced follower,
    NaN when shed or lost. ``shed`` / ``hit`` / ``failed`` are bool masks
    over request ids; ``None`` means the run had no such requests by
    construction (no cache; the array core never fails). ``failed`` holds
    the requests lost to a replica death, stranded coalesced followers
    included.

    The batch columns ``bstart`` / ``bcomp`` / ``bsize`` / ``brep``
    (replica index) hold every launched batch, replica by replica (live,
    then retired) and each replica's in launch order; batch ``b``'s
    members are ``members[bfirst[b]:bfirst[b] + bsize[b]]``, in lane
    order. The event engine alone fills the rest: ``aborted`` marks the
    batches a node death struck (listed after the others, and not in the
    stats), ``leader`` each coalesced follower's leader (-1 for every
    other request) and ``enqueue_t`` each request's last enqueue instant
    (``None``: its arrival, i.e. nothing was re-routed).
    """

    complete_t: np.ndarray
    shed: np.ndarray
    bstart: np.ndarray
    bcomp: np.ndarray
    bsize: np.ndarray
    brep: np.ndarray
    bfirst: np.ndarray
    members: np.ndarray
    hit: Optional[np.ndarray] = None
    failed: Optional[np.ndarray] = None
    leader: Optional[np.ndarray] = None
    enqueue_t: Optional[np.ndarray] = None
    aborted: Optional[np.ndarray] = None


def drive(sim, run) -> FastRun:
    """Run one supported-class arrival stream through the array core.

    ``run`` (``slo_sim._Run``) gives the arrival times and each request's
    model and content ids. The simulator's public configuration gives the
    per-model tables :func:`_drive` reads — batch sizes, launch waits,
    service times, one entry per model (a single-model run is the
    one-lane case) — and the router's admission limits
    (:meth:`~repro.serve.slo_sim.ServingSimulator.admission_limits`).
    Service tables come from the same memoized ``batch_time`` calls the
    replica queues use, so every float matches the event loop's.
    """
    M = len(sim.services)
    pols = sim.model_policies() or [sim.policy] * M
    Bs = [p.max_batch for p in pols]
    waits = [p.launch_wait for p in pols]
    svcs = [[0.0] + [fn(b) for b in range(1, B + 1)]
            for fn, B in zip(sim.services.batch_time_fns(), Bs)]
    return _drive(np.ascontiguousarray(run.arrivals, dtype=np.float64),
                  sim.n_replicas, M, Bs, waits, svcs,
                  sim.admission_limits(), run.mids, run.contents,
                  sim.cache_size)


def _np_of(buf: array, dtype) -> np.ndarray:
    """Zero-copy numpy view of an ``array`` buffer (empty-safe)."""
    if len(buf) == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(buf, dtype=dtype)


def _count(mask: Optional[np.ndarray]) -> int:
    return 0 if mask is None else int(np.count_nonzero(mask))


def collect(sim, run, record: FastRun) -> LatencyStats:
    """Assemble :class:`LatencyStats` from either engine's
    :class:`FastRun`, ``record``, of the run ``run`` (its arrival times,
    model ids and per-model transport times): latencies in request-id
    order as ``(completion - arrival) + rtt`` (the rtt of each request's
    own model on multi-model runs; a cache hit's completion is its
    arrival, so its latency is exactly the transport rtt), horizon from
    the last completion plus the largest rtt, batch sizes stable-sorted by
    ``(start, completion)`` like ``sorted()`` over the replicas' batch
    lists, and per-model slices judged with each model's own rtt and SLO.
    A request lost to a node death (a stranded follower too) has no
    completion: it counts in ``n_failed`` and ``n_offered``, not in the
    latency sample.

    A request that was neither answered, shed nor lost to a failure is a
    scheduler bug: ``KeyError`` names the first such id rather than
    silently shrinking the sample."""
    ct = record.complete_t
    done = ~np.isnan(ct)
    n_done = int(np.count_nonzero(done))
    n_dropped, n_failed = _count(record.shed), _count(record.failed)
    # live followers: a stranded one is in ``failed``
    coalesced = (None if record.leader is None
                 else (record.leader >= 0) & ~record.failed)
    if n_done + n_dropped + n_failed != ct.size:
        stray = ~(done | record.shed)
        if record.failed is not None:
            stray &= ~record.failed
        raise KeyError(int(np.flatnonzero(stray)[0]))
    arrivals, rtts, mids = run.arrivals, run.rtts, run.mids
    # (completion - arrival) + rtt, in place: the record is still held
    latencies = ct[done]
    horizon = 0.0
    if n_done:
        horizon = float(latencies.max()) + max(rtts) - float(arrivals[0])
    latencies -= arrivals[done]
    if mids is None:            # one model: no per-request model ids
        latencies += rtts[0]
    else:
        latencies += np.asarray(rtts, dtype=np.float64)[mids[done]]
    bstart, bcomp, bsize = record.bstart, record.bcomp, record.bsize
    if record.aborted is not None:
        kept = ~record.aborted
        bstart, bcomp, bsize = bstart[kept], bcomp[kept], bsize[kept]
    # np.lexsort is stable per key, so ties on (start, completion) keep
    # replica order — the order sorted() leaves a batch list in.
    order = np.lexsort((bcomp, bstart))
    stats = LatencyStats(latencies=latencies, n_offered=int(ct.size),
                         n_dropped=n_dropped, horizon=horizon,
                         batch_sizes=bsize[order], n_failed=n_failed,
                         n_cache_hits=_count(record.hit),
                         n_coalesced=_count(coalesced))
    if sim.models is not None:
        M = len(sim.models)
        if mids is None:        # models=[one profile]: all model 0
            mids = np.zeros(ct.size, dtype=np.intp)

        def per_model(mask):
            if mask is None:
                return [0] * M
            return np.bincount(mids[mask], minlength=M).tolist()

        offered = np.bincount(mids, minlength=M).tolist()
        dropped, failed, hits, coalesced = map(
            per_model, (record.shed, record.failed, record.hit, coalesced))
        md = mids[done]
        slos = sim.model_slos()
        stats.models = [PerModelStats(
            name=profile.name, slo=slos[m], weight=profile.weight,
            latencies=latencies[md == m], n_offered=offered[m],
            n_dropped=dropped[m], n_failed=failed[m],
            n_cache_hits=hits[m], n_coalesced=coalesced[m])
            for m, profile in enumerate(sim.models)]
    return stats


def _drive(arrivals: np.ndarray, R: int, M: int, Bs: List[int],
           waits: List[float], svcs: List[List[float]],
           limits: List[float], mids: Optional[np.ndarray],
           contents: Optional[np.ndarray], cap: int) -> FastRun:
    """The drive/drain loop: ``M`` per-model lanes per replica on one
    shared ``free_at`` timeline, an optional result cache in front. The
    plain class is one lane (``mids`` is ``None``) without ``contents``,
    the cached class one lane with them. One iteration per arrival, in
    the event loop's exact order (``ServingSimulator._offer`` with a
    cache, ``Router.submit`` without):

    1. with a cache, drain due fills — every batch committed with
       completion ``<= t`` writes its members' keys in member order,
       popped off the same ``(completion, request_ids)`` heap ordering
       the commit hook feeds — then look the arrival up. A hit completes
       at its arrival time (latency = one transport rtt) and *returns
       before the router syncs*, like the event loop's early return: no
       launch or completion events are played for a hit;
    2. play launch events due by ``t``: advance every due replica, then
       reschedule them (the event loop's two-phase order);
    3. play completion events due by ``t`` (backlog decrements);
    4. read the least-loaded replica off the lazy int-keyed heap and shed
       at the model's admission limit — the router's weighted count
       rule: model ``m`` sheds when that replica's *total* backlog has
       reached ``limits[m]``, checked in int-key space;
    5. admit: ``queue.push`` advances first (a determined full lane
       commits on any touch), then appends to lane ``m`` and replaces
       the picked key, still on top of the load heap, in place.

    Advancing a replica repeats the event queue's rule verbatim: commit
    the lane holding the globally earliest ``(launch instant, partial?,
    model)`` key — a full lane's launch is ``max(free_at, B_m-th member
    arrival)`` and commits on any touch, even past the horizon (its
    membership cannot change); a partial lane's is ``max(free_at, head +
    launch_wait_m)`` and defers once it reaches the horizon (the next
    arrival may still join it). The end-of-stream drain advances to
    infinity, then fires whatever is still held (a non-finite
    ``launch_wait``) at ``max(free_at, last member arrival)``.

    Memory: the per-request columns are read in place through
    memoryviews; each lane stores its members' ids as C ints (a member's
    arrival time is read back by id) with consumed prefixes reclaimed,
    and the batch record is a set of commit-order ``array`` buffers
    (members, launch, completion, size, replica) — the 10M-request/
    64-replica point runs in a few hundred MB instead of multiple GB of
    boxed floats. Hit and shed ids accumulate in C-typed buffers too and
    write back vectorized at the end — per-request numpy scalar stores
    were a measurable slice of the loop. The same columns serve the
    completion write-back (one ``np.repeat``), and, after one stable sort
    into replica order, the stats and the trace.
    """
    n = arrivals.size
    av = memoryview(arrivals)     # Python floats, read in place
    complete_np = np.full(n, np.nan)
    shed_np = np.zeros(n, dtype=bool)
    cached = contents is not None
    # The LRU cache runs inline on one insertion-ordered dict
    # (pop-with-sentinel is the combined lookup/touch, first key the
    # eviction victim). Keys are plain ints: the event path's (model,
    # content) scoping, flattened.
    cdata: dict = {}
    _MISS = cdata                 # sentinel no key can map to
    if cached:
        lim = (1 << 63) // M      # content * M + model must not wrap;
        if mids is not None and not (   # dense ranks keep key equality
                -lim <= contents.min() and contents.max() < lim):
            contents = np.unique(contents, return_inverse=True)[1]
        keys = memoryview(contents if mids is None
                          else contents * M + mids)
    # Fill events carry the member-array slice itself: heap tie-breaks
    # compare arrays lexicographically, the same ordering as the event
    # loop's request-id tuples, without boxing every member id at commit.
    fills: List = []              # (completion, member-rid array slice)
    nfe = _INF                    # cached next fill event time
    h_rid = array("q")            # hit request ids, in arrival order
    s_rid = array("q")            # shed request ids
    # The batch record, in commit order: member ids, then one launch,
    # completion, size and replica per batch. Completions are expanded
    # into complete_np once, at the end, via np.repeat.
    m_rid = array("q")
    m_ext = m_rid.extend
    b_start = array("d")
    b_comp = array("d")
    b_take = array("q")
    b_rep = array("q")

    # Load-heap keys are ints: backlog << shift | replica. A key is live
    # iff it equals cur[r]; limit << shift is the shed threshold in key
    # space.
    shift = max(1, (R - 1).bit_length())
    kmask = (1 << shift) - 1
    stride = 1 << shift
    qtop = [_INF if L == _INF else int(L) << shift for L in limits]

    free_at = [0.0] * R
    lq = [array("q") for _ in range(R * M)]   # lane member rids
    lhead = [0] * (R * M)         # first un-launched index into the lane
    lqn = [0] * (R * M)           # queued (un-launched) count per lane
    # Lanes currently holding a full batch (lqn == B_m; appends advance
    # first, so a lane never exceeds B_m). Admission only needs "is any
    # lane full?" — a counter beats an M-lane scan per arrival.
    nfull = [0] * R
    cur = list(range(R))          # live load key per replica
    load = list(range(R))
    heapify(load)
    launch_ev: List = []          # (launch time, replica)
    # Last launch instant pushed per replica, the event loop's rule too
    # (Router._route): only a *changed* instant is a new event (a repeat
    # would pop back to back with the pending one and advance once), but
    # a changed one is pushed even when an earlier event is pending: when
    # it fires it touches the replica, and a touch commits a determined
    # full batch — which the cache observes through the fill heap.
    sched = [_INF] * R
    comp_ev: List = []            # (completion, replica, size)
    nle = _INF                    # cached next launch event time
    nce = _INF                    # cached next completion event time

    push = heappush
    pop = heappop

    def _commit(r: int, li: int, take: int, launch: float,
                svc: List[float]) -> float:
        """Launch lane ``li``'s first ``take`` members at ``launch``."""
        comp = launch + svc[take]
        free_at[r] = comp
        h = lhead[li]
        seg = lq[li][h:h + take]
        m_ext(seg)
        b_start.append(launch)
        b_comp.append(comp)
        b_take.append(take)
        b_rep.append(r)
        h += take
        if h >= _COMPACT:
            del lq[li][:h]
            h = 0
        lhead[li] = h
        lqn[li] -= take
        if cached:
            push(fills, (comp, seg))
        return comp

    def _advance(r: int, until: float) -> float:
        """ReplicaBatchQueue.advance, fifo order: commit the globally
        earliest lane key until it belongs to a deferred partial. Returns
        that partial's launch instant — the replica's next launch event
        (inf when every lane is empty or held indefinitely)."""
        nonlocal nce, nfe
        bl = r * M
        while True:
            best_launch = _INF
            best_partial = 1
            best_m = -1
            fa = free_at[r]
            for m2 in range(M):
                li = bl + m2
                nq2 = lqn[li]
                if not nq2:
                    continue
                B2 = Bs[m2]
                h2 = lhead[li]
                if nq2 >= B2:
                    tb = av[lq[li][h2 + B2 - 1]]
                    launch2 = fa if fa > tb else tb
                    partial2 = 0
                else:
                    hd = av[lq[li][h2]] + waits[m2]
                    launch2 = fa if fa > hd else hd
                    partial2 = 1
                # Ascending scan: at an exact tie the incumbent already
                # has the lower model index, so the event queue's
                # (launch, partial, model) key reduces to these two
                # comparisons — except the first non-empty lane, which
                # wins even at launch == inf (an indefinitely-held
                # continuous-batching partial; it defers below exactly
                # like the tuple rule would).
                if best_m < 0 or launch2 < best_launch or (
                        launch2 == best_launch
                        and partial2 < best_partial):
                    best_launch = launch2
                    best_partial = partial2
                    best_m = m2
            if best_m < 0:
                return _INF
            if best_partial:
                if best_launch >= until:
                    return best_launch
                take = lqn[bl + best_m]
            else:
                take = Bs[best_m]
                nfull[r] -= 1
            comp = _commit(r, bl + best_m, take, best_launch,
                           svcs[best_m])
            push(comp_ev, (comp, r, take))
            if comp < nce:
                nce = comp
            if comp < nfe:
                nfe = comp

    m = 0                         # single-model runs carry no mids
    mv = None if mids is None else memoryview(mids)
    for rid, t in enumerate(av):
        # -- cache: drain due fills, then look this arrival up -----------
        if cached:
            if nfe <= t:
                while fills and fills[0][0] <= t:
                    for rid2 in pop(fills)[1]:
                        k2 = keys[rid2]   # refresh = touch
                        if cdata.pop(k2, _MISS) is _MISS \
                                and len(cdata) >= cap:
                            del cdata[next(iter(cdata))]
                        cdata[k2] = None
                nfe = fills[0][0] if fills else _INF
            key = keys[rid]
            if cdata.pop(key, _MISS) is not _MISS:
                cdata[key] = None    # move-to-end
                h_rid.append(rid)    # latency = (t - t) + rtt = rtt
                continue             # hits never sync the router
        if mv is not None:
            m = mv[rid]
        # -- sync: launch events due by t (advance all due replicas, then
        #    reschedule — the event loop's two-phase order) --------------
        if nle <= t:
            adv: List[int] = []
            while launch_ev and launch_ev[0][0] <= t:
                r = pop(launch_ev)[1]
                if not adv or adv[-1] != r:
                    sched[r] = _advance(r, t)
                    adv.append(r)
            for r in adv:
                if sched[r] < _INF:
                    push(launch_ev, (sched[r], r))
            nle = launch_ev[0][0] if launch_ev else _INF
        # -- sync: completion events due by t ----------------------------
        if nce <= t:
            while comp_ev and comp_ev[0][0] <= t:
                ev = pop(comp_ev)
                r = ev[1]
                nk = cur[r] - ev[2] * stride
                cur[r] = nk
                push(load, nk)
            nce = comp_ev[0][0] if comp_ev else _INF
        # -- pick least-loaded (lazy heap: skim stale keys) --------------
        k = load[0]
        r = k & kmask
        while cur[r] != k:
            pop(load)
            k = load[0]
            r = k & kmask
        if k >= qtop[m]:
            s_rid.append(rid)
            continue
        # -- admit: queue.push advances first (commit-on-touch for any
        #    determined full lane), then appends; k is still on top ------
        advanced = nfull[r]
        if advanced:
            left = _advance(r, t)
        li = r * M + m
        lq[li].append(rid)
        nql = lqn[li] + 1
        lqn[li] = nql
        nk = k + stride
        cur[r] = nk
        heapreplace(load, nk)
        # Reschedule the replica's launch event: the earlier of what the
        # advance left behind and lane m's own candidate. That one only
        # moves on the empty->head and (B_m-1)->full transitions (a
        # filling lane's launch can only move earlier: its deferred
        # partial key was already >= max(free_at, t)) — every other
        # append leaves the head element, free_at, and the other lanes'
        # keys untouched, so the scheduled event is already at (or
        # before) the true minimum.
        if nql == Bs[m]:
            nfull[r] += 1
            fa = free_at[r]
            nl = fa if fa > t else t
        elif nql == 1:
            fa = free_at[r]
            hd = t + waits[m]
            nl = fa if fa > hd else hd
        elif advanced:
            nl = left
        else:
            continue
        if advanced and left < nl:
            nl = left
        if nl != sched[r] and nl != _INF:
            push(launch_ev, (nl, r))
            sched[r] = nl
            if nl < nle:
                nle = nl
    # -- drain: advance to infinity; what is still held then is partial
    #    lanes with a non-finite launch_wait, fired whole in head-arrival
    #    order (ties to the lowest model index) at max(free_at, last
    #    member arrival) ------------------------------------------------
    for r in range(R):
        _advance(r, _INF)
        bl = r * M
        for _, li in sorted((av[lq[li][lhead[li]]], li)
                            for li in range(bl, bl + M) if lqn[li]):
            fa = free_at[r]
            tb = av[lq[li][-1]]
            _commit(r, li, lqn[li], fa if fa > tb else tb, svcs[li - bl])
    members = _np_of(m_rid, np.int64)
    bcomp = _np_of(b_comp, np.float64)
    bsize = _np_of(b_take, np.int64)
    brep = _np_of(b_rep, np.int64)
    complete_np[members] = np.repeat(bcomp, bsize)
    hit_np = None
    if cached:
        hit_np = np.zeros(n, dtype=bool)
        if h_rid:
            hidx = np.frombuffer(h_rid, dtype=np.int64)
            complete_np[hidx] = arrivals[hidx]
            hit_np[hidx] = True
    if s_rid:
        shed_np[np.frombuffer(s_rid, dtype=np.int64)] = True
    # commit order -> replica order, each replica's batches still in
    # launch order; members stay in commit order, found by offset
    order = np.argsort(brep, kind="stable")
    return FastRun(
        complete_t=complete_np, shed=shed_np,
        bstart=_np_of(b_start, np.float64)[order], bcomp=bcomp[order],
        bsize=bsize[order], brep=brep[order],
        bfirst=(np.cumsum(bsize) - bsize)[order], members=members,
        hit=hit_np)
