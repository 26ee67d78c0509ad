"""Trace exporters: JSON-lines, Chrome trace-event format, and text explain.

Three ways out of a :class:`~repro.serve.obs.trace.Tracer`:

- :func:`to_jsonl` — one JSON object per event, the archival/diffable
  form (``jq``-able, line-appendable);
- :func:`to_chrome` — the Chrome trace-event JSON array consumed by
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: batches
  become duration slices on per-replica tracks, requests become async
  spans from arrival to their terminal event, and the fleet gets a
  counter track plus instant markers for sheds/failures/scales;
- :func:`explain` — a one-request text timeline for humans ("why was
  request 1234 shed?").

Trace times are virtual seconds; the Chrome format wants integer-ish
microseconds, so everything is scaled by 1e6 on export.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.serve.obs.trace import _CODE, _outcome_of

#: virtual seconds -> Chrome trace microseconds
_US = 1e6

#: Chrome pid assignments: one "process" per track family
_PID_FLEET, _PID_REPLICAS, _PID_REQUESTS = 0, 1, 2


def to_jsonl(tracer, path) -> int:
    """Write every event as one JSON line; returns the event count.

    The first line is a ``{"meta": ...}`` header with the run
    configuration (when the simulator published one), so a dump is
    self-describing.
    """
    n = 0
    with open(path, "w") as fh:
        if tracer.meta:
            fh.write(json.dumps({"meta": tracer.meta}) + "\n")
        for ev in tracer.events:
            rec: Dict[str, Any] = {"t": ev.time, "kind": ev.kind}
            if ev.request_id is not None:
                rec["rid"] = ev.request_id
            if ev.replica is not None:
                rec["replica"] = ev.replica
            if ev.model is not None:
                rec["model"] = ev.model
            if ev.data:
                rec["data"] = {k: (list(v) if isinstance(v, tuple) else v)
                               for k, v in ev.data.items()}
            # default=str: hot-path payloads keep raw objects (numpy
            # scalars) — stringified here, off the hot path
            fh.write(json.dumps(rec, default=str) + "\n")
            n += 1
    return n


def _model_name(meta: Dict[str, Any], model) -> str:
    names = meta.get("models") or []
    if model is not None and 0 <= model < len(names):
        return names[model]
    return f"model{model}" if model is not None else "model?"


def to_chrome(tracer, path, max_requests: Optional[int] = None) -> int:
    """Export a Chrome trace-event file; returns the trace-event count.

    Track layout (one Chrome "process" per family):

    - pid 0 **fleet** — a ``fleet_size`` counter sampled at every epoch
      and scale event, plus instant markers for scale actions and node
      deaths;
    - pid 1 **replicas** — one thread per replica; each committed
      micro-batch is a complete ("X") slice from launch to completion.
      Batches struck by a node death are truncated at the abort time and
      renamed ``aborted batch``;
    - pid 2 **requests** — one async ("b"/"e") span per request from
      arrival to its terminal event, named by outcome; shed requests and
      failures also get instant markers so they stand out at fleet zoom.

    ``max_requests`` caps the request track to the first N distinct
    request ids (arrival order) — batch and fleet tracks are always
    complete — keeping big traces loadable.
    """
    meta = tracer.meta
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID_FLEET, "name": "process_name",
         "args": {"name": "fleet"}},
        {"ph": "M", "pid": _PID_REPLICAS, "name": "process_name",
         "args": {"name": "replicas"}},
        {"ph": "M", "pid": _PID_REQUESTS, "name": "process_name",
         "args": {"name": "requests"}},
    ]

    # Batches struck by node death: (replica, scheduled completion) is
    # unique per in-flight batch, so it keys the truncation.
    aborts: Dict[tuple, float] = {}
    for ev in tracer.events:
        if ev.kind == "batch_abort":
            aborts[(ev.replica, ev.data["completion"])] = ev.time

    replicas_seen = set()
    # request track state: rid -> (arrival_t, model); terminal by
    # precedence (a node death's fail beats its batch's complete).
    arrival: Dict[int, tuple] = {}
    terminal: Dict[int, tuple] = {}
    order: List[int] = []

    for ev in tracer.events:
        k = ev.kind
        if k == "batch_launch":
            replicas_seen.add(ev.replica)
            t_end = ev.data["completion"]
            t_abort = aborts.get((ev.replica, t_end))
            name = f"batch x{ev.data['size']}"
            if t_abort is not None:
                t_end, name = t_abort, f"aborted batch x{ev.data['size']}"
            events.append({
                "ph": "X", "pid": _PID_REPLICAS, "tid": ev.replica,
                "ts": ev.time * _US, "dur": max(t_end - ev.time, 0.0) * _US,
                "name": name, "cat": "batch",
                "args": {"model": _model_name(meta, ev.model),
                         "size": ev.data["size"]}})
        elif k in ("epoch", "scale"):
            events.append({
                "ph": "C", "pid": _PID_FLEET, "ts": ev.time * _US,
                "name": "fleet_size",
                "args": {"replicas": ev.data["n_replicas"]}})
            if k == "scale":
                events.append({
                    "ph": "i", "pid": _PID_FLEET, "ts": ev.time * _US,
                    "s": "p", "name": f"scale:{ev.data['action']}",
                    "cat": "fleet",
                    "args": {kk: vv for kk, vv in ev.data.items()
                             if kk != "request_ids"}})
        elif k in ("replica_fail", "drain"):
            events.append({
                "ph": "i", "pid": _PID_FLEET, "ts": ev.time * _US,
                "s": "p", "name": k, "cat": "fleet",
                "args": {"replica": ev.replica}})
        elif k == "arrival":
            if ev.request_id not in arrival:
                order.append(ev.request_id)
            arrival[ev.request_id] = (ev.time, ev.model)
        else:
            outcome = _outcome_of(k, ev.data)
            held = terminal.get(ev.request_id, (0.0, None))[1]
            if outcome is not None and \
                    _CODE[outcome] >= _CODE.get(held, 0):
                terminal[ev.request_id] = (ev.time, outcome)

    for tid in sorted(replicas_seen):
        events.append({"ph": "M", "pid": _PID_REPLICAS, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": f"replica {tid}"}})

    rids = order if max_requests is None else order[:max_requests]
    for rid in rids:
        t0, model = arrival[rid]
        t1, outcome = terminal.get(rid, (t0, "lost"))
        name = f"{_model_name(meta, model)} {outcome}"
        common = {"pid": _PID_REQUESTS, "id": rid, "cat": "request",
                  "name": name}
        events.append({"ph": "b", "ts": t0 * _US, **common})
        events.append({"ph": "e", "ts": max(t1, t0) * _US, **common,
                       "args": {"outcome": outcome,
                                "latency_ms": (t1 - t0) * 1e3}})
        if outcome in ("shed", "fail"):
            events.append({"ph": "i", "pid": _PID_REQUESTS,
                           "ts": max(t1, t0) * _US, "s": "p",
                           "name": f"{outcome} rid={rid}",
                           "cat": "request"})

    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": dict(meta)}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)


_OUTCOME_VERDICT = {
    "shed": "rejected by admission control (queue bound)",
    "cache_hit": "answered from the result cache",
    "coalesced": "rode a leader's in-flight forward (coalesced)",
    "complete": "completed on a replica",
    "fail": "lost to a node death",
}


def explain(tracer, request_id: int) -> str:
    """Text timeline of one request: every event, time-ordered, with a
    closing verdict (outcome by precedence, end-to-end latency, SLO
    pass/miss when the run published per-model SLOs in ``tracer.meta``)."""
    tl = tracer.timeline(request_id)
    if not tl:
        return f"request {request_id}: no trace events"
    meta = tracer.meta
    model = next((ev.model for ev in tl if ev.model is not None), None)
    t0 = tl[0].time
    lines = [f"request {request_id} ({_model_name(meta, model)}):"]
    outcome, t_end = "lost", t0
    for ev in tl:
        dt = (ev.time - t0) * 1e3
        reached = _outcome_of(ev.kind, ev.data)
        if reached is not None and _CODE[reached] >= _CODE.get(outcome, 0):
            outcome, t_end = reached, ev.time
        note = ""
        if ev.kind == "arrival":
            note = "offered"
        elif ev.kind == "shed":
            note = "rejected: all admissible replica queues full"
        elif ev.kind == "cache_hit":
            note = "served from result cache"
        elif ev.kind == "coalesce":
            note = f"duplicate of in-flight rid={ev.data.get('leader')}"
        elif ev.kind == "enqueue":
            note = f"queued on replica {ev.replica}"
        elif ev.kind == "reroute":
            note = (f"rerouted off draining replica {ev.replica} "
                    f"-> {ev.data.get('to')}")
        elif ev.kind == "batch_launch":
            note = (f"batch x{ev.data['size']} launched on replica "
                    f"{ev.replica}")
            if "work" in ev.data:
                note += f", est work {ev.data['work'] * 1e3:.3f} ms"
            if "slack" in ev.data:
                # why this batch won the launch: its lane head's slack
                # (deadline minus estimated completion) at commit
                note += (f", slack {ev.data['slack'] * 1e3:+.3f} ms to "
                         f"deadline t={ev.data['deadline']:.6f}s")
        elif ev.kind == "batch_abort":
            note = f"batch struck by node death on replica {ev.replica}"
        elif ev.kind == "complete":
            via = ev.data.get("via", "replica")
            note = ("completed (coalesced ride)" if via == "coalesced"
                    else f"completed on replica {ev.replica}")
        elif ev.kind == "fail":
            note = f"lost: replica {ev.replica} died mid-service"
        lines.append(f"  t={ev.time:.6f}s (+{dt:8.3f} ms)  "
                     f"{ev.kind:<12} {note}")
    latency_ms = (t_end - t0) * 1e3
    verdict = _OUTCOME_VERDICT.get(outcome, outcome)
    tail = f"  outcome: {verdict}"
    if outcome in ("complete", "coalesced", "cache_hit"):
        tail += f"; latency {latency_ms:.3f} ms"
        slos = meta.get("slos") or []
        if model is not None and 0 <= model < len(slos):
            slo_ms = slos[model] * 1e3
            ok = latency_ms <= slo_ms
            tail += (f" {'<=' if ok else '>'} SLO {slo_ms:.3f} ms "
                     f"({'met' if ok else 'MISSED'})")
    lines.append(tail)
    return "\n".join(lines)
