"""Structured per-request tracing for the serving stack, in virtual time.

A :class:`Tracer` is threaded (opt-in) through
:class:`~repro.serve.router.Router`,
:class:`~repro.serve.batching.ReplicaBatchQueue`,
:class:`~repro.serve.cache.ResultCache`,
:class:`~repro.serve.slo_sim.ServingSimulator`, and
:class:`~repro.serve.autoscale.Autoscaler`. Each emits typed events at the
request lifecycle transitions — arrival, admission or shed, cache hit or
coalesce, enqueue onto a replica, batch launch, completion or failure —
plus fleet events (scale out/in, node death, degrade, repair, drain)
carrying the controller's observed signals, so a trace answers *why* the
fleet changed, not just *that* it did.

Design constraints, in order:

1. **Zero cost when off.** Every emission site is guarded by
   ``if tracer is not None``; a ``tracer=None`` run executes the exact
   pre-trace instruction stream and is bit-identical to the untraced
   simulator (pinned by ``tests/test_serve_obs.py``).
2. **Near-zero cost when on.** The hot path appends one plain tuple per
   event — no dataclass construction, no dict unless the event carries a
   payload. Typed :class:`TraceEvent` objects are materialized lazily by
   :attr:`Tracer.events`. The overhead budget (<= 15% wall-clock on the
   100k-request/64-replica sweep) is asserted in
   ``benchmarks/test_serve_obs.py``.
3. **Reconcilable.** :meth:`Tracer.counts` re-derives the serving
   conservation identity (``hits + completions + shed + failed ==
   offered``, per model and in aggregate) purely from events; the metrics
   registry (:func:`repro.serve.obs.metrics.reconcile`) asserts those
   totals against the run's :class:`~repro.serve.metrics.LatencyStats`.

Event times are *virtual* (simulation) seconds. Events are appended in
emission order, which is not globally time-sorted — a batch's completion
event is emitted at commit time, timestamped at its (future) completion —
so exporters sort where order matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: request lifecycle transitions
REQUEST_EVENT_KINDS = (
    "arrival",      # offered at the front door (simulator)
    "shed",         # rejected by admission control (router)
    "cache_hit",    # answered by the result cache, never reached the router
    "coalesce",     # duplicate in-flight miss riding a leader's forward
    "enqueue",      # admitted onto a replica's batch lane
    "reroute",      # moved off a draining replica onto a survivor
    "complete",     # answered (data["via"]: "replica" | "coalesced")
    "fail",         # lost to a node death (incl. stranded followers)
)
#: batch-level events (one per micro-batch, not per member)
BATCH_EVENT_KINDS = (
    "batch_launch",  # committed on a replica: size/completion/request_ids
    "batch_abort",   # struck mid-service by a node death
)
#: fleet and control-loop events
FLEET_EVENT_KINDS = (
    "epoch",        # one controller observation window
    "decision",     # one controller verdict (including holds)
    "scale",        # an applied fleet change (out/in/failure/repair/degrade)
    "replica_fail",  # a node death as the router saw it
    "replica_degrade",  # a node slowdown (slow_factor batch multiplier)
    "replica_repair",  # a degraded node restored to full speed
    "drain",        # a graceful replica removal (queued work re-routed)
)
#: run bracketing and cache internals
RUN_EVENT_KINDS = (
    "run_start",    # run configuration (rate, models, SLOs, transport)
    "run_end",      # run bracket close (event count; use counts() for totals)
    "cache_insert",  # a batch completion filled the cache (detail=True only)
    "cache_evict",   # capacity pressure evicted an entry (detail=True only)
    "cache_invalidate",  # a scope invalidation removed entries
)

#: every valid :attr:`TraceEvent.kind`
EVENT_KINDS = (REQUEST_EVENT_KINDS + BATCH_EVENT_KINDS
               + FLEET_EVENT_KINDS + RUN_EVENT_KINDS)
_KIND_SET = frozenset(EVENT_KINDS)

#: shared payload for replica-path completions — one dict for the whole
#: stream (read-only by convention), not one per completed request
_VIA_REPLICA: Mapping[str, Any] = {"via": "replica"}

#: internal columnar block kinds (never materialized as TraceEvents —
#: expanded into "arrival"/"cache_hit" events instead)
_BLOCK_KINDS = frozenset(("_arrivals", "_cache_hits"))


def _block_lists(payload):
    """Normalize an ``_arrivals`` block payload to parallel plain lists
    (``times``, ``models``) — numpy arrays converted once, here, off the
    hot path."""
    times, models = payload
    if hasattr(times, "tolist"):
        times = times.tolist()
    if models is None:
        models = [0] * len(times)
    elif hasattr(models, "tolist"):
        models = models.tolist()
    return times, models


@dataclass(frozen=True)
class TraceEvent:
    """One typed observation: what happened, when, and to whom.

    ``time`` is virtual seconds; ``request_id``/``replica``/``model`` are
    set when the event concerns one (``None`` otherwise); ``data`` carries
    the kind-specific payload (e.g. a batch's ``request_ids`` and
    ``completion``, or a scale event's observed signals).
    """

    time: float
    kind: str
    request_id: Optional[int] = None
    replica: Optional[int] = None
    model: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SET:
            raise ValueError(f"unknown trace event kind {self.kind!r}; "
                             f"have {EVENT_KINDS}")


class Tracer:
    """Collects :class:`TraceEvent` streams from one (or more) serving runs.

    Pass one to ``ServingSimulator.run(..., tracer=Tracer())`` (or
    construct routers/queues/caches with it directly). Afterwards:

    - :attr:`events` — the typed event stream (materialized lazily);
    - :meth:`timeline` — one request's events in time order;
    - :meth:`counts` — per-model lifecycle totals, reconciled against the
      run's stats by :func:`repro.serve.obs.metrics.reconcile`;
    - :meth:`explain` — a human-readable one-request timeline;
    - :meth:`to_jsonl` / :meth:`to_chrome` — exporters
      (:mod:`repro.serve.obs.export`).

    ``meta`` is filled by the simulator's ``run_start`` event (offered
    rate, model names, per-model SLOs and transport times) so exporters
    can label tracks and judge latencies without a backref to the
    simulator. Internally events are stored as plain tuples
    ``(time, kind, request_id, replica, model, data-or-None)`` — the
    hot-path emission cost is one tuple and one list append. The *bulk*
    families go further and are stored **columnar**: arrivals and cache
    hits as one block entry referencing arrays the simulator already
    built (:meth:`bulk_arrivals`, :meth:`bulk_cache_hits`), and
    per-member enqueues and batch completions synthesized from each
    ``batch_launch`` payload (the lane slice the queue launched) — the
    dominant event volume never touches the per-event path at all.
    :attr:`events` expands everything back into one flat typed stream,
    in emission order.
    """

    __slots__ = ("_raw", "meta", "detail", "emit_raw", "_n_members",
                 "_events", "_terminal")

    def __init__(self, detail: bool = False) -> None:
        self._raw: List[tuple] = []
        #: opt-in second tier: with ``detail=True`` the cache also
        #: records its internals (``cache_insert``/``cache_evict``, one
        #: event per mutation) — useful for replacement-policy forensics,
        #: but a large event family under hot-key traffic, so it is not
        #: part of the default (overhead-budgeted) lifecycle trace.
        self.detail = detail
        #: run configuration published by the last ``run_start`` event
        self.meta: Dict[str, Any] = {}
        #: the hottest emission sites (enqueues, sheds, cache traffic)
        #: call this bound ``list.append`` directly with a raw
        #: ``(time, kind, request_id, replica, model, data)`` tuple —
        #: one attribute lookup and a C append, no Python frame. The
        #: tuple layout is the internal contract between obs and the
        #: serve hot paths; everything else goes through :meth:`emit`.
        self.emit_raw = self._raw.append
        # per-member "complete" events are *synthesized* from
        # batch_launch payloads at materialization; this counts them so
        # __len__ stays O(1)
        self._n_members = 0
        # materialization caches, keyed by the raw length they were
        # built at (emission is append-only between clears)
        self._events: Optional[Tuple[int, Tuple[TraceEvent, ...]]] = None
        self._terminal: Optional[Tuple[int, dict]] = None

    # -- emission (hot path) --------------------------------------------------
    def emit(self, kind: str, time: float, request_id: Optional[int] = None,
             replica: Optional[int] = None, model: Optional[int] = None,
             data: Optional[Mapping[str, Any]] = None) -> None:
        """Record one event. ``kind`` is validated lazily (when events are
        materialized), keeping this a tuple-append on the hot path."""
        self._raw.append((time, kind, request_id, replica, model, data))

    def bulk_arrivals(self, times, models=None) -> None:
        """Record one ``arrival`` per request as a single columnar block
        — an O(1) reference store, no per-request work. The whole
        arrival stream is known before the drive loop runs, so the
        largest event family costs the hot path nothing; :attr:`events`
        expands the block lazily. ``times`` is a sequence of arrival
        times; ``models`` a parallel sequence of model indices (``None``:
        single-model, all 0). Request ids are the positions. The tracer
        keeps references — callers must not mutate the sequences after
        handing them over."""
        n = len(times)
        if n == 0:
            return
        self._raw.append((float(times[0]), "_arrivals", None, None, None,
                          (times, models)))
        # n events materialize from this one raw entry: n - 1 extras
        self._n_members += n - 1

    def bulk_cache_hits(self, hits, models=None) -> None:
        """Record one ``cache_hit`` per entry of ``hits`` (a
        ``request_id -> hit time`` mapping) as a single columnar block —
        an O(1) reference store. ``models`` is indexable by request id
        (``None``: single-model). Hits are emitted after the drive loop:
        order relative to the stream is irrelevant because a hit is its
        request's only lifecycle event past arrival. The tracer keeps
        references — callers must not mutate ``hits`` afterwards."""
        if not hits:
            return
        self._raw.append((next(iter(hits.values())), "_cache_hits", None,
                          None, None, (hits, models)))
        # len(hits) events materialize from this one raw entry
        self._n_members += len(hits) - 1

    def batch_launch(self, time: float, replica: int, model: int,
                     completion: float,
                     members: Tuple[Tuple[float, int], ...],
                     info: Optional[Tuple[float, float]] = None) -> None:
        """One committed micro-batch. ``members`` is the lane slice the
        queue launched — ``(enqueue_time, request_id)`` pairs it built
        anyway — and the per-member ``enqueue`` and ``complete`` events
        (the latter timestamped at the batch's completion) are
        *synthesized* from it when events materialize: the hot path
        stores one tuple per batch, not three per request. The payload
        is a plain ``(completion, members)`` tuple rather than a dict so
        the long-lived store holds only atoms and tuples — CPython's GC
        untracks those after one pass, keeping collection cost (the
        dominant tracing overhead at 100k-request scale) off the traced
        run. Stream position is right here, at commit: emission order
        is commit order, not time order.

        ``info`` (from a deadline-aware queue) is the ``(deadline,
        slack)`` pair of the lane head that won the launch: its arrival
        plus its model's SLO, and how many seconds of margin the batch
        had left at commit. Materialized events then carry
        ``data["deadline"]``/``data["slack"]`` alongside the estimated
        ``data["work"]`` (completion minus launch), so ``explain`` can
        say *why* the batch launched when it did."""
        # tuple(): a stored list would stay GC-tracked forever; a tuple
        # of pair-tuples is untracked after one pass (no-op if already
        # a tuple)
        if info is None:
            payload = (completion, tuple(members))
        else:
            payload = (completion, tuple(members), info)
        self._raw.append((time, "batch_launch", None, replica, model,
                          payload))
        # each member materializes an enqueue and a complete; the batch
        # event itself stands in for the raw slot
        self._n_members += 2 * len(members)

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._raw) + self._n_members

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The typed event stream, in emission order (columnar blocks and
        per-member batch completions expanded in place)."""
        n = len(self._raw)
        if self._events is None or self._events[0] != n:
            out: List[TraceEvent] = []
            append = out.append
            for t, k, rid, rep, m, d in self._raw:
                if k == "_arrivals":
                    times, models = _block_lists(d)
                    for i, (tt, mm) in enumerate(zip(times, models)):
                        append(TraceEvent(tt, "arrival", i, None, mm))
                    continue
                if k == "_cache_hits":
                    hits, models = d
                    for i, tt in hits.items():
                        append(TraceEvent(
                            tt, "cache_hit", i, None,
                            0 if models is None else int(models[i])))
                    continue
                if k == "batch_launch":
                    comp, members = d[0], d[1]
                    for te, member in members:
                        append(TraceEvent(time=te, kind="enqueue",
                                          request_id=member, replica=rep,
                                          model=m))
                    data = {"completion": comp, "size": len(members),
                            "request_ids": tuple(r for _, r in members),
                            "work": comp - t}
                    if len(d) > 2:
                        data["deadline"], data["slack"] = d[2]
                    append(TraceEvent(
                        time=t, kind=k, replica=rep, model=m, data=data))
                    for _, member in members:
                        append(TraceEvent(time=comp, kind="complete",
                                          request_id=member, replica=rep,
                                          model=m, data=_VIA_REPLICA))
                    continue
                append(TraceEvent(time=t, kind=k, request_id=rid,
                                  replica=rep, model=m,
                                  data=d if d is not None else {}))
            self._events = (n, tuple(out))
        return self._events[1]

    def clear(self) -> None:
        """Drop all events and metadata (reuse the tracer for a new run)."""
        self._raw.clear()   # in place: emit_raw stays bound to this list
        self.meta.clear()
        self._n_members = 0
        self._events = None
        self._terminal = None

    def kind_counts(self) -> Dict[str, int]:
        """How many events of each kind were emitted."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def timeline(self, request_id: int) -> List[TraceEvent]:
        """Every event concerning one request, time-ordered (ties keep
        emission order — arrival before admission at the same instant).
        Includes the launch event of any batch the request rode."""
        picked = []
        for pos, ev in enumerate(self.events):
            if ev.request_id == request_id or (
                    ev.kind in ("batch_launch", "batch_abort")
                    and request_id in ev.data.get("request_ids", ())):
                picked.append((ev.time, pos, ev))
        picked.sort(key=lambda e: (e[0], e[1]))
        return [ev for _, _, ev in picked]

    # -- lifecycle accounting -------------------------------------------------
    def _terminal_state(self) -> dict:
        """``request_id -> (outcome, model)`` where outcome is one of
        ``shed``/``cache_hit``/``complete``/``coalesced``/``fail``.

        Later lifecycle events supersede earlier ones in *emission* order,
        which mirrors causality in the simulator: a ``fail`` emitted at a
        node death strikes the optimistic ``complete`` its batch emitted
        at commit, exactly as :meth:`ReplicaBatchQueue.abort_after`
        strikes the completion record.
        """
        if self._terminal is None or self._terminal[0] != len(self._raw):
            term: dict = {}
            known: dict = {}
            for t, kind, rid, rep, model, d in self._raw:
                if rid is None:
                    if kind == "batch_launch":
                        # members complete optimistically at commit (a
                        # later fail strikes them, as abort_after does)
                        st = ("complete", model)
                        for _, member in d[1]:
                            term[member] = st
                            known[member] = model
                    elif kind == "_arrivals":
                        times, models = _block_lists(d)
                        known.update(enumerate(models))
                    elif kind == "_cache_hits":
                        hits, models = d
                        for member in hits:
                            term[member] = (
                                "cache_hit",
                                0 if models is None else int(models[member]))
                    continue
                if model is None:
                    # e.g. the router's per-rid "fail" doesn't know the
                    # model; use the one an earlier event (the arrival,
                    # at the latest) recorded for this request.
                    model = known.get(rid)
                else:
                    known[rid] = model
                if kind in ("shed", "cache_hit", "fail"):
                    term[rid] = (kind, model)
                elif kind == "complete":
                    via = (d or {}).get("via", "replica")
                    term[rid] = ("coalesced" if via == "coalesced"
                                 else "complete", model)
            self._terminal = (len(self._raw), term)
        return self._terminal[1]

    def counts(self, model: Optional[int] = None) -> Dict[str, int]:
        """Lifecycle totals derived purely from events.

        Keys: ``offered``, ``shed``, ``cache_hits``, ``coalesced``,
        ``replica_completions``, ``completed`` (hits + coalesced +
        replica completions — matching ``LatencyStats.n_completed``),
        ``failed``. With ``model`` given, totals are restricted to that
        model's requests. The serving conservation identity —
        ``completed + shed + failed == offered`` — must hold here exactly
        as the stats assert it; :func:`repro.serve.obs.metrics.reconcile`
        enforces the equality against a run's stats.
        """
        offered = 0
        for t, kind, rid, rep, m, d in self._raw:
            if kind == "arrival" and (model is None or m == model):
                offered += 1
            elif kind == "_arrivals":
                if model is None:
                    offered += len(d[0])
                else:
                    times, models = _block_lists(d)
                    offered += models.count(model)
        tally = {"shed": 0, "cache_hit": 0, "complete": 0,
                 "coalesced": 0, "fail": 0}
        for rid, (outcome, m) in self._terminal_state().items():
            if model is None or m == model:
                tally[outcome] += 1
        completed = (tally["cache_hit"] + tally["coalesced"]
                     + tally["complete"])
        return {"offered": offered, "shed": tally["shed"],
                "cache_hits": tally["cache_hit"],
                "coalesced": tally["coalesced"],
                "replica_completions": tally["complete"],
                "completed": completed, "failed": tally["fail"]}

    def models(self) -> List[int]:
        """Model indices seen in request events, sorted."""
        out = set()
        for t, kind, rid, rep, m, d in self._raw:
            if kind == "_arrivals":
                out.update(_block_lists(d)[1])
            elif kind == "_cache_hits":
                hits, models = d
                out.update(
                    {0} if models is None
                    else {int(models[r]) for r in hits})
            elif rid is not None and m is not None:
                out.add(m)
        return sorted(out)

    # -- convenience delegates ------------------------------------------------
    def explain(self, request_id: int) -> str:
        """Human-readable timeline of one request (see
        :func:`repro.serve.obs.export.explain`)."""
        from repro.serve.obs.export import explain
        return explain(self, request_id)

    def to_jsonl(self, path) -> int:
        """Dump the event stream as JSON lines; returns the event count
        (see :func:`repro.serve.obs.export.to_jsonl`)."""
        from repro.serve.obs.export import to_jsonl
        return to_jsonl(self, path)

    def to_chrome(self, path, max_requests: Optional[int] = None) -> int:
        """Export a Chrome trace-event file loadable in Perfetto /
        ``chrome://tracing`` (see
        :func:`repro.serve.obs.export.to_chrome`)."""
        from repro.serve.obs.export import to_chrome
        return to_chrome(self, path, max_requests=max_requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({len(self._raw)} events)"
