"""Replica placement and request routing with admission control.

Replicas are placed on :class:`repro.cluster.machine.CoriMachine` nodes the
same way the training simulators place compute groups (one contiguous
dragonfly allocation, paper Fig 3). The router sends each request to the
replica with the least outstanding load; when that replica's load is at
the request's model's admission limit (then every replica's is), the
request is rejected up front — a shed request costs the client a retry, a
queued-forever request costs every client behind it. The limits are
given, one per model: the serving simulator computes them
(:meth:`~repro.serve.slo_sim.ServingSimulator.admission_limits`).

Routing is O(log R) per arrival, not O(R): per-replica backlogs are
maintained *incrementally* from the batch commit stream instead of being
rescanned. Three lazy heaps carry the whole discrete-event state —

- a **load heap** of ``(backlog, replica index)`` entries, one pushed per
  backlog change, validated on pop against the replica's last published
  value — computed once, when the backlog changes, and read from there by
  routing and admission (stale entries and retired replicas are discarded
  lazily);
- a **completion heap**: every committed batch schedules one backlog
  decrement at its completion time;
- a **launch heap**: every queue with a pending batch has an event at its
  state-determined launch instant, pushed when an admit changes it and
  after every fired event (firing an event early is a no-op that
  reschedules itself) — the rule of :mod:`repro.serve.fast_core`.

A request's completion is recorded once, in the batch it launched with:
each replica queue's batch list is the record, and :meth:`Router.
completions` is a view built from the live and retired replicas' lists.

An admit first syncs the heaps to the arrival time (when a launch or
completion event is due by then — otherwise a sync plays nothing), then
reads the heap top — the same decision a linear scan makes (the
differential tests pin bit-identical completions against
:class:`repro.serve.reference.LinearRouter`, the O(R) original kept as the
behavioral oracle).

The replica fleet is *live*: :meth:`Router.add_replica` places a new
replica on the next free machine node mid-stream, :meth:`remove_replica`
gracefully drains one (unlaunched requests re-route to the survivors,
in-flight batches finish where they started, nothing is dropped), and
:meth:`fail_replica` models a node death (in-flight and queued requests
are lost and their ids kept in :attr:`Router.failed_ids`), and
:meth:`degrade_replica` a slow node (still answering, every batch a
constant factor slower). The autoscaler in :mod:`repro.serve.autoscale`
drives all four; a fixed-fleet simulation simply never calls them.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.machine import CoriMachine, cori
from repro.serve.batching import Batch, BatchingPolicy, ReplicaBatchQueue
from repro.utils.checks import require_count, require_real


@dataclass
class ReplicaHandle:
    """One placed replica: machine node + its virtual-time batch queue."""

    index: int
    node_id: int
    queue: ReplicaBatchQueue


class Router:
    """Places ``n_replicas`` on machine nodes and routes a request stream.

    ``on_commit(replica_index, batch)``, when given, is called the instant
    any replica commits a batch — the serving simulator uses it to schedule
    result-cache fills at batch completion times.

    Per-model inputs are lists indexed by model — ``policies``,
    ``service_times``, ``limits`` (default: no limit): one model is the
    one-entry case, ``([policy], [service_time])``, not a second path.
    Route with ``submit(t, rid, model)``; each replica keeps per-model
    batch lanes.

    **Admission**: model ``m`` is shed when the least-loaded replica's
    published load has reached ``limits[m]`` (``None``: never shed). The
    load is a request count, or — cost-aware mode — estimated seconds, and
    the limits are in the same unit. Every limit must be positive, so any
    model is admitted at an empty replica.

    **Cost-aware mode** (``model_costs``, per-model estimated seconds per
    request): the load value routed and admitted on becomes *estimated
    service seconds* instead of a request count — a queued climate scan
    (~140x an HEP event) weighs what it actually costs, so least-loaded
    becomes shortest-expected-work. The ledger stays integer per-model
    counts per replica; every published load value is recomputed as the
    dot product of counts and costs (never accumulated in floats), so
    load values are exact and replica ordering is deterministic.
    ``policies`` / ``service_times`` / ``model_slos`` are handed down to
    every replica queue (:class:`~repro.serve.batching.ReplicaBatchQueue`),
    which checks their lengths; given ``model_slos``, every queue launches
    earliest deadline first. Without ``model_costs`` / ``model_slos``: the
    count-based, fifo scheduler.
    """

    def __init__(self, machine: Optional[CoriMachine], n_replicas: int,
                 policies: List[BatchingPolicy],
                 service_times: List[Callable[[int], float]],
                 limits: Optional[List[float]] = None,
                 on_commit: Optional[Callable[[int, Batch], None]] = None,
                 tracer=None,
                 model_slos: Optional[List[float]] = None,
                 model_costs: Optional[List[float]] = None) -> None:
        n_replicas = require_count("n_replicas", n_replicas)
        self.machine = machine or cori(seed=0, jitter=False)
        if n_replicas > self.machine.n_nodes:
            raise ValueError(
                f"{n_replicas} replicas > machine size "
                f"{self.machine.n_nodes}")
        #: per-model batching policies and service-time callables, one
        #: per model index, handed to every replica queue
        self.policies = list(policies)
        self.service_times = list(service_times)
        n_models = len(self.service_times)
        self._n_models = n_models
        for seq, what in ((model_costs, "model costs"),
                          (limits, "admission limits")):
            if seq is not None and len(seq) != n_models:
                raise ValueError(
                    f"{len(seq)} {what} for {n_models} model(s)")
        #: per-model SLOs — set, every replica queue launches by deadline
        self.model_slos = model_slos
        #: per-model estimated seconds per request; set => cost-aware mode
        #: (an infinite cost would publish NaN loads: ``0 * inf``)
        self.model_costs = (None if model_costs is None else [
            float(require_real("model_costs", c, "(0, inf)"))
            for c in model_costs])
        #: per-model admission limit on a replica's published load (see
        #: :meth:`_admit`); unbounded (``inf``) when not given
        self._limits = ([require_real("limits", L, "(0, inf]")
                         for L in limits] if limits is not None
                        else [math.inf] * n_models)
        #: what :meth:`submit` accepts as a model index -> that index
        self._model_ids = {m: m for m in range(n_models)}
        #: last submitted arrival time (from the lowest finite float)
        self._clock = -sys.float_info.max
        self.on_commit = on_commit
        #: opt-in :class:`repro.serve.obs.Tracer` (duck-typed) for the
        #: fleet changes; request and batch events are read off the run
        #: record after the run, not emitted here
        self.tracer = tracer
        # Incremental event state (see module docstring).
        self._backlog: Dict[int, int] = {}
        #: cost-aware ledger: replica index -> per-model outstanding
        #: request counts. Load values are recomputed from these integers
        #: on every publish (dot with model_costs) — floats are never
        #: accumulated, so equal states always produce equal load values.
        self._counts: Dict[int, List[int]] = {}
        #: live replica index -> last published load (a heap entry's check)
        self._load: Dict[int, float] = {}
        self._live: Dict[int, ReplicaHandle] = {}
        self._load_heap: List[Tuple[float, int]] = []
        #: (completion, replica, model, size) — one decrement per batch
        self._completion_events: List[Tuple[float, int, int, int]] = []
        self._launch_events: List[Tuple[float, int]] = []
        #: replica index -> launch instant last pushed (see :meth:`_admit`)
        self._sched: Dict[int, float] = {}
        # One contiguous allocation, one node per replica (Fig 3 ideal).
        placement = self.machine.topology.place(n_replicas, 1)
        self.replicas: List[ReplicaHandle] = [
            self._new_handle(i, int(node_id), free_at=0.0)
            for i, node_id in enumerate(placement.group_nodes[0])]
        #: replicas taken out of rotation (drained or dead); their completed
        #: work still counts in :meth:`completions` / :meth:`batches`
        self.retired: List[ReplicaHandle] = []
        #: total replica slots ever placed — nodes are never reused, so a
        #: dead node stays dead and a new replica always gets a fresh one
        self._placed = n_replicas
        self.n_offered = 0
        #: ids of the requests admission control shed, in shed order
        self.shed_ids: List[int] = []
        #: re-routed request id -> its last enqueue instant (a drain's)
        self.requeued: Dict[int, float] = {}
        #: ids of the requests lost to replica failures (admitted, never
        #: answered) — so observers can tell dead from still-pending
        self.failed_ids: set = set()

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def n_dropped(self) -> int:
        return len(self.shed_ids)

    @property
    def n_failed(self) -> int:
        return len(self.failed_ids)

    def node_ids(self) -> List[int]:
        return [r.node_id for r in self.replicas]

    # -- incremental event state ----------------------------------------------
    def _new_handle(self, index: int, node_id: int,
                    free_at: float) -> ReplicaHandle:
        queue = ReplicaBatchQueue(
            self.policies, self.service_times, free_at=free_at,
            on_commit=self._commit_feed(index), slos=self.model_slos)
        handle = ReplicaHandle(index, node_id, queue)
        self._live[index] = handle
        self._backlog[index] = 0
        self._sched[index] = math.inf
        if self.model_costs is not None:
            self._counts[index] = [0] * self._n_models
        self._load[index] = value = self._value(index)
        heapq.heappush(self._load_heap, (value, index))
        return handle

    def _value(self, index: int):
        """The load value published for one replica: its request count, or
        — cost-aware mode — its backlog in estimated service seconds,
        recomputed as the dot product of the integer per-model counts and
        ``model_costs`` (a plain loop — ``sum()`` compensates from Python
        3.12 — so the same counts always yield the identical float)."""
        if self.model_costs is None:
            return self._backlog[index]
        value = 0
        for c, w in zip(self._counts[index], self.model_costs):
            value += c * w
        return value

    def _commit_feed(self, index: int) -> Callable[[Batch], None]:
        """Replica ``index``'s commit callback: a committed batch's backlog
        drops by the batch size once the completion time passes.

        It closes over the completion heap and ``on_commit``, not the
        router: a queue that pointed back at its router would make every
        router a reference cycle, whose batches and heaps outlive the run
        until the next full garbage collection — so a process's peak memory
        would depend on how many runs came before, not on the run."""
        events, on_commit = self._completion_events, self.on_commit

        def commit(batch: Batch) -> None:
            heapq.heappush(events,
                           (batch.completion, index, batch.model, batch.size))
            if on_commit is not None:
                on_commit(index, batch)
        return commit

    def _sync(self, t: float) -> None:
        """Play every event due by ``t``: commit due launches (which feeds
        the completion heap), then apply due backlog decrements. Amortized
        O(log R) per event; each arrival generates O(1) events. With no
        event due it changes nothing, so :meth:`_admit` calls it only when
        a heap top is due (the array core's ``nle`` / ``nce`` test)."""
        le = self._launch_events
        sched = self._sched
        advanced: List[int] = []
        while le and le[0][0] <= t:
            _, idx = heapq.heappop(le)
            handle = self._live.get(idx)
            if handle is not None and (not advanced or advanced[-1] != idx):
                sched[idx] = handle.queue.advance(t)
                advanced.append(idx)
        for idx in advanced:
            if sched[idx] != math.inf:
                heapq.heappush(le, (sched[idx], idx))
        ce = self._completion_events
        while ce and ce[0][0] <= t:
            _, idx, model, size = heapq.heappop(ce)
            if idx in self._live:
                self._backlog[idx] -= size
                if self.model_costs is not None:
                    self._counts[idx][model] -= size
                self._load[idx] = value = self._value(idx)
                heapq.heappush(self._load_heap, (value, idx))

    def sync(self, t: float) -> None:
        """Play every scheduled event due by ``t`` (public form of the
        per-arrival catch-up that :meth:`submit` performs). The coalescing
        serving path calls this for arrivals that never reach
        :meth:`submit` — batch commits must still fire on time or the
        in-flight ledger and cache fills would stall until the next
        admitted request."""
        self._sync(t)

    # -- routing -------------------------------------------------------------
    def total_backlog(self, t: float) -> float:
        """Fleet-wide outstanding work at ``t``: estimated service seconds
        in cost-aware mode, a plain request count otherwise — the queue
        pressure signal the autoscaler records per epoch."""
        self._sync(t)
        return float(sum(self._load[r.index] for r in self.replicas))

    def _shed(self, request_id: int) -> bool:
        self.shed_ids.append(request_id)
        return False

    def submit(self, t: float, request_id: int, model: int = 0) -> bool:
        """Route one arrival; returns False if admission control shed it.

        A count limit bounds each replica's *outstanding* requests (queued
        plus launched-but-unfinished), so per-request latency is bounded by
        roughly ``limit / replica_throughput`` even under sustained
        overload. The request goes to the least-loaded replica and is
        shed only when that one is at the model's admission limit — then
        every replica is. Low-weight models have the smaller limits, so
        they are shed first — weighted admission. A ``model`` that is not
        a fleet model index (``-1``, ``0.5``), or a ``t`` that is not finite
        or runs before the last submit, is refused before anything counts.
        """
        m = self._model_ids.get(model)
        if m is None:
            raise ValueError(f"model index {model!r} outside the "
                             f"{self._n_models} served model(s)")
        if not self._clock <= t < math.inf:
            raise ValueError(f"t must be finite and nondecreasing, got "
                             f"{t!r} after {self._clock}")
        return self._admit(t, request_id, m)

    def _admit(self, t: float, request_id: int, model: int,
               source: Optional[int] = None) -> bool:
        """The one admit body: :meth:`submit` unchecked (the simulators
        call it on their own streams), and a drain's re-route (``source``
        the drained replica: no offer bookkeeping, limit inf). On the
        least (load, index) — the linear scan's pick — shed at the limit,
        else push, publish the fresh :meth:`_value` and push a *changed*
        launch instant (an unchanged one is still pending: every fired
        event re-pushes its replica's in :meth:`_sync`)."""
        limit = math.inf
        if source is None:
            self._clock = t
            self.n_offered += 1
            if not self.replicas:
                # Every replica has failed and no repair has landed: shed.
                return self._shed(request_id)
            le, ce = self._launch_events, self._completion_events
            if le and le[0][0] <= t or ce and ce[0][0] <= t:
                self._sync(t)
            limit = self._limits[model]
        heap, load = self._load_heap, self._load
        value, idx = heap[0]
        while load.get(idx) != value:    # stale entry: retired or restated
            heapq.heappop(heap)
            value, idx = heap[0]
        if value >= limit:
            return self._shed(request_id)
        if source is not None:
            self.requeued[request_id] = t
            if self.tracer is not None:
                self.tracer.emit("reroute", t, request_id=request_id,
                                 replica=source, model=model,
                                 data={"to": idx})
        t_launch = self._live[idx].queue._push(t, request_id, model)
        backlog = self._backlog
        backlog[idx] = value = backlog[idx] + 1
        costs = self.model_costs
        if costs is not None:
            counts = self._counts[idx]
            counts[model] += 1
            value = 0                        # :meth:`_value`, inline
            for c, w in zip(counts, costs):
                value += c * w
        load[idx] = value
        heapq.heapreplace(heap, (value, idx))   # the pick is still on top
        if t_launch != self._sched[idx] and t_launch != math.inf:
            heapq.heappush(self._launch_events, (t_launch, idx))
            self._sched[idx] = t_launch
        return True

    # -- live fleet changes ---------------------------------------------------
    def _next_node(self) -> int:
        """Next never-used machine node, extending the contiguous block."""
        if self._placed >= self.machine.n_nodes:
            raise ValueError(
                f"machine exhausted: all {self.machine.n_nodes} nodes placed")
        placement = self.machine.topology.place(self._placed + 1, 1)
        return int(placement.group_nodes[0][-1])

    def add_replica(self, t: float) -> ReplicaHandle:
        """Scale out: place one new replica at time ``t``.

        The replica lands on the next free node of the contiguous dragonfly
        allocation and starts empty but *busy until* ``t`` — it cannot serve
        work from before it existed.
        """
        handle = self._new_handle(self._placed, self._next_node(), free_at=t)
        self._placed += 1
        self.replicas.append(handle)
        return handle

    def remove_replica(self, t: float,
                       pos: Optional[int] = None) -> ReplicaHandle:
        """Scale in: gracefully drain one replica out of rotation at ``t``.

        By default the emptiest replica goes (fewest outstanding requests,
        ties to the newest placement, so long-lived replicas persist).
        Batches already launched or due before ``t`` finish on the leaving
        replica; its still-unlaunched requests re-route one at a time to the
        least-loaded survivor (heap pick — each re-route lands on the
        survivor the counters say is emptiest *after* the previous one).
        Re-routed requests bypass the admission limits — they were admitted
        once and a voluntary scale-in must not turn into a drop — and keep
        their original ids, so end-to-end latency still counts the time
        spent waiting on the drained replica.
        """
        if len(self.replicas) <= 1:
            raise ValueError("cannot remove the last replica")
        self._sync(t)
        if pos is None:
            pos = min(range(len(self.replicas)),
                      key=lambda p: (self._backlog[self.replicas[p].index],
                                     -self.replicas[p].index))
        replica = self.replicas.pop(pos)
        del self._live[replica.index], self._load[replica.index]
        if self.tracer is not None:
            self.tracer.emit("drain", t, replica=replica.index)
        for _, rid, model in replica.queue.evict_queued(t):
            self._admit(t, rid, model, replica.index)
        self.retired.append(replica)
        return replica

    def fail_replica(self, t: float, pos: int) -> Tuple[ReplicaHandle, int]:
        """Node death at ``t``: the replica at ``pos`` dies mid-service.

        Unlike :meth:`remove_replica` nothing is saved: queued requests and
        every batch still in flight at ``t`` are lost (their ids join
        :attr:`failed_ids`); work that completed before ``t`` stands. Returns
        the dead handle and the number of requests lost with it.
        """
        if not self.replicas:
            raise ValueError("no replicas left to fail")
        replica = self.replicas.pop(pos % len(self.replicas))
        del self._live[replica.index], self._load[replica.index]
        lost = replica.queue.abort_after(t)
        self.failed_ids.update(lost)
        if self.tracer is not None:
            for b in replica.queue.aborted:
                self.tracer.emit(
                    "batch_abort", t, replica=replica.index, model=b.model,
                    data={"launch": b.start, "completion": b.completion,
                          "size": b.size, "request_ids": b.request_ids})
            self.tracer.emit("replica_fail", t, replica=replica.index,
                             data={"lost": len(lost)})
            for rid in lost:
                # beats the "complete" its aborted batch recorded (a
                # trace's terminal state is by precedence)
                self.tracer.emit("fail", t, request_id=rid,
                                 replica=replica.index)
        self.retired.append(replica)
        return replica, len(lost)

    def degrade_replica(self, t: float, pos: int,
                        slow_factor: float) -> ReplicaHandle:
        """Node slowdown at ``t``: the replica at ``pos`` stays in rotation
        but every batch it commits after ``t`` serves ``slow_factor`` times
        slower (thermal throttling, a failing DIMM, a noisy neighbor — the
        paper's "degraded" nodes, as opposed to fail-stop deaths).

        Events due by ``t`` are played first, so batches already committed
        — including full batches whose membership and launch instant were
        already determined — keep their healthy timing; the multiplier
        applies from the next commit on and persists for the replica's
        lifetime (repeat degrades compound). Routing is unaffected: the
        load ledger still counts healthy-estimate seconds, so a degraded
        node keeps receiving its share of traffic and its backlog drains
        slower — exactly the doomed-request pressure the autoscaler's
        attainment signal is built to notice.
        """
        if not self.replicas:
            raise ValueError("no replicas left to degrade")
        self._sync(t)
        replica = self.replicas[pos % len(self.replicas)]
        replica.queue.degrade(slow_factor)
        if self.tracer is not None:
            self.tracer.emit("replica_degrade", t, replica=replica.index,
                             data={"slow_factor": float(slow_factor)})
        return replica

    def repair_replica(self, t: float, pos: int) -> ReplicaHandle:
        """Node repair at ``t``: the replica at ``pos`` serves at healthy
        speed again — the undo of :meth:`degrade_replica` (the compounded
        slow factor resets in one step; a repaired node is *fixed*, not
        incrementally less broken).

        Symmetric with degrade: events due by ``t`` are played first, so
        batches already committed keep the degraded timing they were
        priced at; the restored speed applies from the next commit on.
        Repairing a healthy replica is a no-op (idempotent — a repair
        schedule need not know whether the degrade it undoes ever fired).
        """
        if not self.replicas:
            raise ValueError("no replicas left to repair")
        self._sync(t)
        replica = self.replicas[pos % len(self.replicas)]
        undone = replica.queue.repair()
        if self.tracer is not None:
            self.tracer.emit("replica_repair", t, replica=replica.index,
                             data={"undone_slow_factor": float(undone)})
        return replica

    def drain(self) -> None:
        """Flush all replica queues (end of the arrival stream)."""
        for r in self.replicas:
            r.queue.drain()

    def completions(self) -> Dict[int, float]:
        """request_id -> completion time across live and retired replicas,
        built from their batch lists when called."""
        return {rid: b.completion for r in self.replicas + self.retired
                for b in r.queue.batches for rid in b.request_ids}

    def batches(self) -> List[Batch]:
        """Every launched micro-batch across replicas, in launch order.

        The size distribution is the batching mode's fingerprint: windowed
        batches cluster near ``max_batch`` (the hold window fills them),
        continuous ones shrink toward singletons as load drops. Batches
        completed on since-retired replicas are included.
        """
        out = [b for r in self.replicas + self.retired
               for b in r.queue.batches]
        out.sort(key=lambda b: (b.start, b.completion))
        return out
