"""Structured per-request tracing for the serving stack, in virtual time.

A :class:`Tracer` passed to a simulator run records what happened to
every request — arrival, admission or shed, cache hit or coalesce,
enqueue onto a replica, batch launch, completion or failure — plus fleet
events (scale out/in, node death, degrade, repair, drain) carrying the
controller's observed signals, so a trace answers *why* the fleet
changed, not just *that* it did. Event times are virtual seconds.

Request and batch events are a view of the run record: both engines end a
run in one :class:`repro.serve.fast_core.FastRun`, ``run()`` hands it over
once, after the run (:meth:`Tracer.add_record`), and :class:`_Record`
expands the events from it lazily — nothing else emits them. The drive
loops never see a tracer, so a traced run costs what an untraced one does
and stays on the array core when its configuration is supported. Only
fleet changes are emitted live (:meth:`Tracer.emit`): the router's
``drain``, ``reroute``, ``replica_fail`` with its per-request ``fail``,
``batch_abort``, ``replica_degrade`` and ``replica_repair``; the
autoscaler's ``epoch``, ``decision`` and ``scale``; and ``run_start``
/ ``run_end``.

:attr:`Tracer.events` puts both in one canonical order — by run, time,
kind (:data:`_RANK`), request id and replica, ties in emission order. A
request's terminal state comes from precedence, not order: a node death's
``fail`` beats the ``complete`` its aborted batch recorded.
:meth:`Tracer.counts` re-derives the serving conservation identity
(``hits + completions + shed + failed == offered``, per model and in
aggregate) from the events; :func:`repro.serve.obs.metrics.reconcile`
asserts those totals against the run's stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

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
#: run bracketing
RUN_EVENT_KINDS = (
    "run_start",    # run configuration (rate, models, SLOs, transport)
    "run_end",      # run bracket close (event count; use counts() for totals)
)

#: every valid :attr:`TraceEvent.kind`
EVENT_KINDS = (REQUEST_EVENT_KINDS + BATCH_EVENT_KINDS
               + FLEET_EVENT_KINDS + RUN_EVENT_KINDS)

#: each kind's place among the events of one instant: the run opens, the
#: fleet changes (a control instant precedes the arrival it ties with),
#: then a request's lifecycle
_RANK = {kind: i for i, kind in enumerate((
    "run_start", "epoch", "decision", "drain", "reroute", "replica_fail",
    "batch_abort", "replica_degrade", "replica_repair", "scale",
    "arrival", "cache_hit", "coalesce", "shed", "enqueue", "batch_launch",
    "complete", "fail", "run_end"))}

#: terminal outcomes by precedence: a request's is the last of these its
#: events reach (a node death's ``fail`` beats its batch's ``complete``)
_OUTCOMES = ("shed", "cache_hit", "coalesced", "complete", "fail")
_CODE = {o: i + 1 for i, o in enumerate(_OUTCOMES)}

#: shared payload for replica-path completions — one dict for the whole
#: stream (read-only by convention), not one per completed request
_VIA_REPLICA: Mapping[str, Any] = {"via": "replica"}


def _outcome_of(kind: str,
                data: Optional[Mapping[str, Any]]) -> Optional[str]:
    """The terminal outcome an event reaches (``None``: not terminal)."""
    if kind == "complete":
        return ("coalesced" if (data or {}).get("via") == "coalesced"
                else "complete")
    return kind if kind in _CODE else None


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
        if self.kind not in _RANK:
            raise ValueError(f"unknown trace event kind {self.kind!r}; "
                             f"have {EVENT_KINDS}")


def _with_key(run: int, ev: TraceEvent):
    """``ev`` with its canonical sort key."""
    return ((run, ev.time, _RANK[ev.kind],
             -1 if ev.request_id is None else ev.request_id,
             -1 if ev.replica is None else ev.replica), ev)


class _Record:
    """One run's record as a tracer keeps it: the engine's
    :class:`~repro.serve.fast_core.FastRun` (duck-typed), the arrival
    times, each request's model (``None``: all model 0) and, under a
    deadline-aware launch order, the per-model SLOs a batch's deadline is
    read from. The one place request and batch events come from."""

    __slots__ = ("run", "arrivals", "models", "slos", "n_events")

    def __init__(self, run, arrivals, models, slos) -> None:
        self.run = run
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        n = self.arrivals.size
        self.models = (np.zeros(n, dtype=np.int8) if models is None
                       else np.asarray(models))
        self.slos = slos
        n_followers = (0 if run.leader is None
                       else int(np.count_nonzero(run.leader >= 0)))
        # arrival, shed / hit, a follower's coalesce + terminal, a
        # batch's launch, a member's enqueue + complete
        self.n_events = (n + _count(run.shed) + _count(run.hit)
                         + 2 * n_followers + run.bsize.size
                         + 2 * run.members.size)

    def events(self, run_ix: int, rid: Optional[int] = None
               ) -> List[Tuple[tuple, TraceEvent]]:
        """Every request and batch event, keyed (:func:`_with_key`); with
        ``rid``, only that request's and the launch of the batch it rode."""
        rec, arr, models = self.run, self.arrivals, self.models
        want = np.full(arr.size, rid is None)
        if rid is not None and 0 <= rid < arr.size:
            want[rid] = True
        out: List[Tuple[tuple, TraceEvent]] = []

        def requests(kind: str, mask) -> None:
            ids = np.flatnonzero(mask & want)
            for i, t, m in zip(ids.tolist(), arr[ids].tolist(),
                               models[ids].tolist()):
                out.append(_with_key(run_ix, TraceEvent(t, kind, i, None, m)))

        requests("arrival", True)
        requests("shed", rec.shed)
        if rec.hit is not None:
            requests("cache_hit", rec.hit)
        if rec.leader is not None:
            ids = np.flatnonzero((rec.leader >= 0) & want)
            leaders = rec.leader[ids]
            for i, t, m, lead, dead, t_done in zip(
                    ids.tolist(), arr[ids].tolist(), models[ids].tolist(),
                    leaders.tolist(), rec.failed[leaders].tolist(),
                    rec.complete_t[leaders].tolist()):
                out.append(_with_key(run_ix, TraceEvent(
                    t, "coalesce", i, None, m, {"leader": lead})))
                if dead:
                    out.append(_with_key(run_ix, TraceEvent(
                        t, "fail", i, None, m,
                        {"leader": lead, "stranded": True})))
                else:
                    out.append(_with_key(run_ix, TraceEvent(
                        t_done, "complete", i, None, m,
                        {"via": "coalesced", "leader": lead})))
        first, size = rec.bfirst, rec.bsize
        picked = range(size.size) if rid is None else [
            b for p in np.flatnonzero(rec.members == rid).tolist()
            for b in np.flatnonzero((first <= p) & (p < first + size))]
        enq = arr if rec.enqueue_t is None else rec.enqueue_t
        starts, comps, reps, firsts, sizes = (c.tolist() for c in (
            rec.bstart, rec.bcomp, rec.brep, first, size))
        for b in picked:
            members = rec.members[firsts[b]:firsts[b] + sizes[b]]
            ids, te = members.tolist(), enq[members].tolist()
            m, t, comp, rep = int(models[ids[0]]), starts[b], comps[b], reps[b]
            data = {"completion": comp, "size": len(ids),
                    "request_ids": tuple(ids), "work": comp - t}
            if self.slos is not None:
                # the lane head's: its enqueue plus its model's SLO, and
                # the margin left at commit — why the batch won the launch
                deadline = te[0] + self.slos[m]
                data["deadline"], data["slack"] = deadline, deadline - comp
            out.append(_with_key(run_ix, TraceEvent(
                t, "batch_launch", None, rep, m, data)))
            for i, tq in zip(ids, te):
                if rid is None or i == rid:
                    out.append(_with_key(run_ix, TraceEvent(
                        tq, "enqueue", i, rep, m)))
                    out.append(_with_key(run_ix, TraceEvent(
                        comp, "complete", i, rep, m, _VIA_REPLICA)))
        return out

    def outcomes(self) -> np.ndarray:
        """Each request's terminal outcome code (:data:`_CODE`) as its
        events reach it: every batch member ``complete`` (a node death's
        live ``fail`` then beats it), followers ``coalesced`` or,
        stranded, ``fail``."""
        rec = self.run
        codes = np.zeros(self.arrivals.size, dtype=np.int8)
        codes[rec.members] = _CODE["complete"]
        codes[rec.shed] = _CODE["shed"]
        if rec.hit is not None:
            codes[rec.hit] = _CODE["cache_hit"]
        if rec.leader is not None:
            follows = rec.leader >= 0
            codes[follows] = _CODE["coalesced"]
            codes[follows & rec.failed] = _CODE["fail"]
        return codes


def _count(mask: Optional[np.ndarray]) -> int:
    return 0 if mask is None else int(np.count_nonzero(mask))


class Tracer:
    """Collects :class:`TraceEvent` streams from one (or more) serving runs.

    Pass one to ``ServingSimulator.run(..., tracer=Tracer())``. Afterwards:

    - :attr:`events` — the typed event stream, in canonical order
      (materialized lazily);
    - :meth:`timeline` — one request's events;
    - :meth:`counts` — per-model lifecycle totals, reconciled against the
      run's stats by :func:`repro.serve.obs.metrics.reconcile`;
    - :meth:`explain` — a human-readable one-request timeline;
    - :meth:`to_jsonl` / :meth:`to_chrome` — exporters
      (:mod:`repro.serve.obs.export`).

    ``meta`` is filled by the simulator's ``run_start`` event (offered
    rate, model names, per-model SLOs and transport times) so exporters
    can label tracks and judge latencies without a backref to the
    simulator. Internally live events are plain tuples ``(time, kind,
    request_id, replica, model, data-or-None)``, and each run's record is
    one more entry (:meth:`add_record`): its events are never stored, only
    expanded on demand — :meth:`counts` and :meth:`timeline` read the
    record's columns without materializing the rest.
    """

    __slots__ = ("_raw", "meta", "_n_record", "_events", "_outcomes")

    def __init__(self) -> None:
        self._raw: List[tuple] = []
        #: run configuration published by the last ``run_start`` event
        self.meta: Dict[str, Any] = {}
        # events the run records expand into, beyond their one raw entry
        # each, so __len__ stays O(1)
        self._n_record = 0
        # materialization caches, keyed by the raw length they were
        # built at (emission is append-only between clears)
        self._events: Optional[Tuple[int, Tuple[TraceEvent, ...]]] = None
        self._outcomes: Optional[Tuple[int, tuple]] = None

    # -- recording ------------------------------------------------------------
    def emit(self, kind: str, time: float, request_id: Optional[int] = None,
             replica: Optional[int] = None, model: Optional[int] = None,
             data: Optional[Mapping[str, Any]] = None) -> None:
        """Record one live event. ``kind`` is validated lazily (when events
        are materialized)."""
        self._raw.append((time, kind, request_id, replica, model, data))

    def add_record(self, run, arrivals, models=None, slos=None) -> None:
        """Hand over one finished run's record (a
        :class:`~repro.serve.fast_core.FastRun`) as a single columnar
        block — an O(1) reference store. ``arrivals`` are the request
        times (request ids are the positions), ``models`` each request's
        model index (``None``: all 0), ``slos`` the per-model SLOs when the
        run launched by deadline (``None`` under fifo). The tracer keeps
        references — callers must not mutate them afterwards."""
        if len(arrivals) == 0:
            return
        record = _Record(run, arrivals, models, slos)
        self._raw.append((float(arrivals[0]), "_record", None, None, None,
                          record))
        self._n_record += record.n_events - 1

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._raw) + self._n_record

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def _keyed(self, rid: Optional[int] = None
               ) -> List[Tuple[tuple, TraceEvent]]:
        """Every event (or every one concerning request ``rid``), keyed
        for the canonical sort: live events, plus the records' expansions
        in the runs they belong to."""
        out: List[Tuple[tuple, TraceEvent]] = []
        run = -1
        for t, kind, r, rep, m, d in self._raw:
            if kind == "run_start":
                run += 1
            if kind == "_record":
                out += d.events(run, rid)
                continue
            if rid is not None and r != rid and rid not in (
                    d or {}).get("request_ids", ()):
                continue
            out.append(_with_key(run, TraceEvent(
                t, kind, r, rep, m, d if d is not None else {})))
        out.sort(key=itemgetter(0))   # stable: ties keep emission order
        return out

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The typed event stream, in canonical order: by run, time, kind,
        request id and replica; ties keep emission order."""
        n = len(self._raw)
        if self._events is None or self._events[0] != n:
            self._events = (n, tuple(ev for _, ev in self._keyed()))
        return self._events[1]

    def clear(self) -> None:
        """Drop all events and metadata (reuse the tracer for a new run)."""
        self._raw.clear()
        self.meta.clear()
        self._n_record = 0
        self._events = None
        self._outcomes = None

    def kind_counts(self) -> Dict[str, int]:
        """How many events of each kind were emitted."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def timeline(self, request_id: int) -> List[TraceEvent]:
        """Every event concerning one request, in canonical order,
        including the launch (and abort) of any batch the request rode.
        Read off the record's columns: no other request's events are
        materialized."""
        return [ev for _, ev in self._keyed(request_id)]

    # -- lifecycle accounting -------------------------------------------------
    def _requests(self) -> tuple:
        """``(models, codes, arrived)``: every request's model (-1 when no
        event named one), terminal outcome code and whether it arrived. A
        record's requests come from its columns — a live event for one can
        only raise its outcome (a node death's ``fail``) — and any other
        request's from its events."""
        if self._outcomes is None or self._outcomes[0] != len(self._raw):
            records, run = {}, -1
            for entry in self._raw:
                run += entry[1] == "run_start"
                if entry[1] == "_record":
                    records[run] = (entry[5], entry[5].outcomes())
            # (run, rid) -> [model, code, arrived]
            loose: Dict[tuple, list] = {}
            run = -1
            for t, kind, rid, rep, m, d in self._raw:
                run += kind == "run_start"
                if rid is None:
                    continue
                code = _CODE.get(_outcome_of(kind, d), 0)
                codes = records[run][1] if run in records else ()
                if 0 <= rid < len(codes):
                    codes[rid] = max(codes[rid], code)
                    continue
                e = loose.setdefault((run, rid), [-1, 0, False])
                e[0] = m if e[0] < 0 and m is not None else e[0]
                e[1], e[2] = max(e[1], code), e[2] or kind == "arrival"
            cols = [(r.models, c, np.ones(c.size, dtype=bool))
                    for r, c in records.values()]
            cols += [tuple(map(np.array, zip(*loose.values())))] if loose \
                else [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0, bool),)]
            self._outcomes = (len(self._raw), tuple(
                np.concatenate(c) for c in zip(*cols)))
        return self._outcomes[1]

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
        models, codes, arrived = self._requests()
        if model is not None:
            codes, arrived = codes[models == model], arrived[models == model]
        tally = dict(zip(("none",) + _OUTCOMES, np.bincount(
            codes, minlength=len(_OUTCOMES) + 1).tolist()))
        return {"offered": int(np.count_nonzero(arrived)),
                "shed": tally["shed"], "cache_hits": tally["cache_hit"],
                "coalesced": tally["coalesced"],
                "replica_completions": tally["complete"],
                "completed": (tally["cache_hit"] + tally["coalesced"]
                              + tally["complete"]),
                "failed": tally["fail"]}

    def models(self) -> List[int]:
        """Model indices seen in request events, sorted."""
        return sorted(set(np.unique(self._requests()[0]).tolist()) - {-1})

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
        return f"Tracer({len(self)} events)"
