"""Replica placement and request routing with admission control.

Replicas are placed on :class:`repro.cluster.machine.CoriMachine` nodes the
same way the training simulators place compute groups (one contiguous
dragonfly allocation, paper Fig 3). The router sends each request to the
replica with the fewest outstanding requests; when every replica is at the
admission limit (``max_queue`` outstanding each), the request is rejected
up front — a shed request costs the client a retry, a queued-forever
request costs every client behind it.

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

Completions land in one ``request_id -> completion`` ledger per fleet: the
router hands it to every replica queue it creates and :meth:`Router.
completions` returns it as is, so reading it costs nothing per replica.

``submit`` first syncs the heaps to the arrival time, then reads the
heap top — the same decision the pre-PR linear scan made (the differential
tests pin bit-identical completions against
:class:`repro.serve.reference.LinearRouter`, the O(R) original kept as the
behavioral oracle).

The replica fleet is *live*: :meth:`Router.add_replica` places a new
replica on the next free machine node mid-stream, :meth:`remove_replica`
gracefully drains one (unlaunched requests re-route to the survivors,
in-flight batches finish where they started, nothing is dropped), and
:meth:`fail_replica` models a node death (in-flight and queued requests
are lost and counted in :attr:`Router.n_failed`), and
:meth:`degrade_replica` a slow node (still answering, every batch a
constant factor slower). The autoscaler in :mod:`repro.serve.autoscale`
drives all four; a fixed-fleet simulation simply never calls them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.machine import CoriMachine, cori
from repro.serve.batching import Batch, BatchingPolicy, ReplicaBatchQueue
from repro.serve.cache import require_count


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

    Multi-model serving shares the one replica pool: pass ``service_times``
    (one batched-forward latency callable per model index) and route with
    ``submit(t, rid, model)``. Each replica keeps per-model batch lanes
    (batches never mix models); replica selection still reads the O(log R)
    load heap. With **weighted admission** (``model_weights``), model
    ``m``'s effective admission limit is ``ceil(max_queue * w_m /
    max(w))`` — under overload the backlog keeps growing only for the
    highest-weight models while low-weight traffic is shed early, which is
    what keeps the high-weight SLO intact through a burst.

    **Cost-aware mode** (``model_costs``, per-model estimated seconds per
    request): the load value routed and admitted on becomes *estimated
    service seconds* instead of a request count — a queued climate scan
    (~140x an HEP event) weighs what it actually costs, so least-loaded
    becomes shortest-expected-work. The ledger stays integer per-model
    counts per replica; every published load value is recomputed as the
    dot product of counts and costs (never accumulated in floats), so
    load values are exact and replica ordering is deterministic. With
    ``max_queue_seconds``, admission limits are seconds too:
    ``max_queue_seconds * w_m / max(w)`` — any positive limit admits at
    an empty queue, so no model can be starved by its weight.
    ``policies`` / ``order`` / ``model_slos`` are handed down to every
    replica queue for per-model batching and EDF launch ordering
    (:class:`~repro.serve.batching.ReplicaBatchQueue`). All of these
    default off, preserving the count-based scheduler bit for bit.
    """

    def __init__(self, machine: Optional[CoriMachine], n_replicas: int,
                 policy: BatchingPolicy,
                 service_time: Callable[[int], float],
                 max_queue: Optional[int] = 64,
                 on_commit: Optional[Callable[[int, Batch], None]] = None,
                 service_times: Optional[
                     List[Callable[[int], float]]] = None,
                 model_weights: Optional[List[float]] = None,
                 tracer=None,
                 policies: Optional[List[BatchingPolicy]] = None,
                 order: str = "fifo",
                 model_slos: Optional[List[float]] = None,
                 model_costs: Optional[List[float]] = None,
                 max_queue_seconds: Optional[float] = None,
                 admission_floor_seconds: Optional[List[float]] = None
                 ) -> None:
        n_replicas = require_count("n_replicas", n_replicas)
        max_queue = require_count("max_queue", max_queue, none_ok=True)
        self.machine = machine or cori(seed=0, jitter=False)
        if n_replicas > self.machine.n_nodes:
            raise ValueError(
                f"{n_replicas} replicas > machine size "
                f"{self.machine.n_nodes}")
        self.policy = policy
        self.service_time = service_time
        self.service_times = (None if service_times is None
                              else list(service_times))
        n_models = 1 if self.service_times is None else len(
            self.service_times)
        if model_weights is not None:
            if len(model_weights) != n_models:
                raise ValueError(
                    f"{len(model_weights)} model weights for {n_models} "
                    f"model(s)")
            if any(not 0 < w < math.inf for w in model_weights):
                raise ValueError(f"model weights must be positive and "
                                 f"finite, got {model_weights}")
        self.model_weights = (None if model_weights is None
                              else [float(w) for w in model_weights])
        self.max_queue = max_queue
        self._n_models = n_models
        for seq, what in ((policies, "batching policies"),
                          (model_slos, "model SLOs"),
                          (model_costs, "model costs")):
            if seq is not None and len(seq) != n_models:
                raise ValueError(
                    f"{len(seq)} {what} for {n_models} model(s)")
        #: per-model batching policies handed to every replica queue
        self.policies = None if policies is None else list(policies)
        #: cross-lane launch ordering on every replica queue
        self.order = order
        #: per-model SLOs — deadline source for edf queue ordering
        self.model_slos = (None if model_slos is None
                           else [float(s) for s in model_slos])
        if model_costs is not None and any(not c > 0 for c in model_costs):
            raise ValueError(
                f"model costs must be positive seconds, got {model_costs}")
        #: per-model estimated seconds per request; set => cost-aware mode
        self.model_costs = (None if model_costs is None
                            else [float(c) for c in model_costs])
        if max_queue_seconds is not None:
            if self.model_costs is None:
                raise ValueError(
                    "max_queue_seconds needs model_costs (the seconds "
                    "ledger admission is judged against)")
            if not max_queue_seconds > 0:
                raise ValueError(f"max_queue_seconds must be positive, "
                                 f"got {max_queue_seconds}")
        self.max_queue_seconds = max_queue_seconds
        if admission_floor_seconds is not None:
            if max_queue_seconds is None:
                raise ValueError(
                    "admission_floor_seconds only applies to seconds-based "
                    "admission (set max_queue_seconds)")
            if len(admission_floor_seconds) != n_models:
                raise ValueError(
                    f"{len(admission_floor_seconds)} admission floors for "
                    f"{n_models} model(s)")
            if any(f < 0 for f in admission_floor_seconds):
                raise ValueError(
                    "admission floors must be non-negative seconds, got "
                    f"{admission_floor_seconds}")
        #: per-model lower bound on the seconds admission limit — see
        #: :meth:`_admission_limits` for why a weighted share can starve
        self.admission_floor_seconds = (
            None if admission_floor_seconds is None
            else [float(f) for f in admission_floor_seconds])
        #: per-model admission limit: the weighted share of ``max_queue``
        #: requests (or ``max_queue_seconds`` seconds of estimated work;
        #: highest-weight model gets the full queue — see class docstring)
        self._limits: List[Optional[float]] = self._admission_limits(
            n_models)
        self.on_commit = on_commit
        #: opt-in :class:`repro.serve.obs.Tracer` (duck-typed), handed down
        #: to every replica queue; ``None`` is the exact pre-trace path
        self.tracer = tracer
        #: per-request-model offer/drop tallies (key: model index)
        self.offered_by_model: Dict[int, int] = {}
        self.dropped_by_model: Dict[int, int] = {}
        # Incremental event state (see module docstring).
        self._backlog: Dict[int, int] = {}
        #: cost-aware ledger: replica index -> per-model outstanding
        #: request counts. Load values are recomputed from these integers
        #: on every publish (dot with model_costs) — floats are never
        #: accumulated, so equal states always produce equal load values.
        self._counts: Dict[int, List[int]] = {}
        #: replica index -> its last published load value (`_push_load`)
        self._load: Dict[int, float] = {}
        #: request_id -> completion time: the fleet's one ledger
        self._completions: Dict[int, float] = {}
        self._live: Dict[int, ReplicaHandle] = {}
        self._load_heap: List[Tuple[float, int]] = []
        #: (completion, replica, model, size) — one decrement per batch
        self._completion_events: List[Tuple[float, int, int, int]] = []
        self._launch_events: List[Tuple[float, int]] = []
        #: replica index -> launch instant last pushed (see :meth:`_assign`)
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
        self.n_dropped = 0
        #: requests lost to replica failures (admitted, never answered)
        self.n_failed = 0
        #: their ids — so observers can tell dead from still-pending
        self.failed_ids: set = set()

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def node_ids(self) -> List[int]:
        return [r.node_id for r in self.replicas]

    def _admission_limits(self, n_models: int) -> List[Optional[float]]:
        """Per-model admission limit on a replica's outstanding work.

        Without weights every model shares ``max_queue`` — the unweighted
        (single-model) behavior, unchanged. With weights, model ``m`` is
        admitted only while the target backlog is under
        ``ceil(max_queue * w_m / max(w))``: the highest-weight model keeps
        the whole queue, lower-weight ones are shed progressively earlier
        as backlog builds, so overload evicts cheap traffic first.

        Every limit is floored at one request: weights are validated
        positive (here and at ``register()``), but even an arbitrarily
        tiny weight must admit at an empty queue — a zero limit would
        shed a model's every request unconditionally, which is a
        misconfiguration, not a policy. (The floor also makes the
        weight-0 corner — ``ceil(0) == 0`` — structurally impossible
        should validation ever be bypassed.)

        With ``max_queue_seconds`` the limits are *seconds of estimated
        work* (``max_queue_seconds * w_m / max(w)``) judged against the
        replica's cost-weighted backlog; any positive limit admits at an
        empty queue, so the floor is inherent — *at an empty replica*.
        But the seconds limit is judged against the replica's **total**
        cost-weighted backlog, all models included: a low-weight model
        whose per-request cost exceeds its seconds share is admitted only
        while the replica is (nearly) idle, and under sustained cheap
        traffic that never happens — the model starves even though its own
        lane is empty. ``admission_floor_seconds`` guards that mode: model
        ``m``'s limit is raised to at least ``floor_m`` (the serving
        simulator derives one max-size batch of the model's own work, so a
        skewed mix can always get a batch in). Floors are opt-in; an
        explicit ``max_queue_seconds`` with no floors is taken verbatim.
        """
        if self.max_queue_seconds is not None:
            if self.model_weights is None:
                base = [self.max_queue_seconds] * n_models
            else:
                w_max = max(self.model_weights)
                base = [self.max_queue_seconds * w / w_max
                        for w in self.model_weights]
            if self.admission_floor_seconds is None:
                return base
            return [b if b > f else f
                    for b, f in zip(base, self.admission_floor_seconds)]
        if self.model_weights is None or self.max_queue is None:
            return [self.max_queue] * n_models
        w_max = max(self.model_weights)
        return [max(1, int(math.ceil(self.max_queue * w / w_max)))
                for w in self.model_weights]

    # -- incremental event state ----------------------------------------------
    def _new_handle(self, index: int, node_id: int,
                    free_at: float) -> ReplicaHandle:
        queue = ReplicaBatchQueue(
            self.policy, self.service_time, free_at=free_at,
            on_commit=self._commit_feed(index),
            service_times=self.service_times,
            tracer=self.tracer, replica=index,
            policies=self.policies, order=self.order,
            slos=self.model_slos)
        queue.completions = self._completions
        handle = ReplicaHandle(index, node_id, queue)
        self._live[index] = handle
        self._backlog[index] = 0
        self._sched[index] = math.inf
        if self.model_costs is not None:
            self._counts[index] = [0] * self._n_models
        self._push_load(index, self._value(index))
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

    def _push_load(self, index: int, backlog: int) -> None:
        """Publish a replica's new backlog to the load heap."""
        self._load[index] = backlog
        heapq.heappush(self._load_heap, (backlog, index))

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
        O(log R) per event; each arrival generates O(1) events."""
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
                self._push_load(idx, self._value(idx))

    def _assign(self, handle: ReplicaHandle, t: float, request_id: int,
                model: int = 0) -> None:
        """Push one request and keep counters and launch events current.
        An unchanged launch instant pushes no event: one is still pending,
        since every fired event re-pushes its replica's in :meth:`_sync`."""
        idx = handle.index
        t_launch = handle.queue.push(t, request_id, model)
        self._backlog[idx] += 1
        if self.model_costs is not None:
            self._counts[idx][model] += 1
        self._push_load(idx, self._value(idx))
        if t_launch != self._sched[idx] and t_launch != math.inf:
            heapq.heappush(self._launch_events, (t_launch, idx))
            self._sched[idx] = t_launch

    def _least_loaded(self) -> ReplicaHandle:
        """Live replica with the minimum (backlog, index) — ties broken by
        replica index for determinism, exactly like the linear scan."""
        heap = self._load_heap
        while heap:
            backlog, idx = heap[0]
            handle = self._live.get(idx)
            if handle is None or self._load[idx] != backlog:
                heapq.heappop(heap)      # stale entry: retired or restated
                continue
            return handle
        raise RuntimeError("no live replicas in the load heap")

    def sync(self, t: float) -> None:
        """Play every scheduled event due by ``t`` (public form of the
        per-arrival catch-up that :meth:`submit` performs). The coalescing
        serving path calls this for arrivals that never reach
        :meth:`submit` — batch commits must still fire on time or the
        in-flight ledger and cache fills would stall until the next
        admitted request."""
        self._sync(t)

    # -- routing -------------------------------------------------------------
    def _full(self, handle: ReplicaHandle, model: int = 0) -> bool:
        limit = self._limits[model]
        if limit is None:
            return False
        if self.max_queue_seconds is not None:
            # seconds-based admission: cost-weighted backlog vs a seconds
            # limit — an empty replica (0.0) always clears a positive one
            return self._load[handle.index] >= limit
        return self._backlog[handle.index] >= limit

    def total_backlog(self, t: float) -> float:
        """Fleet-wide outstanding work at ``t``: estimated service seconds
        in cost-aware mode, a plain request count otherwise — the queue
        pressure signal the autoscaler records per epoch."""
        self._sync(t)
        return float(sum(self._load[r.index] for r in self.replicas))

    def _shed(self, t: float, request_id: int, model: int) -> bool:
        self.n_dropped += 1
        self.dropped_by_model[model] = \
            self.dropped_by_model.get(model, 0) + 1
        if self.tracer is not None:
            self.tracer.emit_raw((t, "shed", request_id, None, model, None))
        return False

    def submit(self, t: float, request_id: int, model: int = 0) -> bool:
        """Route one arrival; returns False if admission control shed it.

        ``max_queue`` bounds each replica's *outstanding* requests (queued
        plus launched-but-unfinished), so per-request latency is bounded by
        roughly ``max_queue / replica_throughput`` even under sustained
        overload. The request goes to the least-loaded replica and is
        shed only when that one is at the model's admission limit — then
        every replica is. With ``model_weights``, low-weight models hit
        their (smaller) limit first — weighted admission.
        """
        self.n_offered += 1
        self.offered_by_model[model] = \
            self.offered_by_model.get(model, 0) + 1
        if not self.replicas:
            # Every replica has failed and no repair has landed yet: shed.
            return self._shed(t, request_id, model)
        self._sync(t)
        replica = self._least_loaded()
        if self._full(replica, model):
            return self._shed(t, request_id, model)
        self._assign(replica, t, request_id, model)
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
        Re-routed requests bypass ``max_queue`` — they were admitted once
        and a voluntary scale-in must not turn into a drop — and keep their
        original ids, so end-to-end latency still counts the time spent
        waiting on the drained replica.
        """
        if len(self.replicas) <= 1:
            raise ValueError("cannot remove the last replica")
        self._sync(t)
        if pos is None:
            pos = min(range(len(self.replicas)),
                      key=lambda p: (self._backlog[self.replicas[p].index],
                                     -self.replicas[p].index))
        replica = self.replicas.pop(pos)
        del self._live[replica.index]
        if self.tracer is not None:
            self.tracer.emit("drain", t, replica=replica.index)
        for _, rid, model in replica.queue.evict_queued(t):
            target = self._least_loaded()
            if self.tracer is not None:
                self.tracer.emit("reroute", t, request_id=rid,
                                 replica=replica.index, model=model,
                                 data={"to": target.index})
            self._assign(target, t, rid, model)
        self.retired.append(replica)
        return replica

    def fail_replica(self, t: float, pos: int) -> Tuple[ReplicaHandle, int]:
        """Node death at ``t``: the replica at ``pos`` dies mid-service.

        Unlike :meth:`remove_replica` nothing is saved: queued requests and
        every batch still in flight at ``t`` are lost (counted in
        :attr:`n_failed`); work that completed before ``t`` stands. Returns
        the dead handle and the number of requests lost with it.
        """
        if not self.replicas:
            raise ValueError("no replicas left to fail")
        replica = self.replicas.pop(pos % len(self.replicas))
        del self._live[replica.index]
        lost = replica.queue.abort_after(t)
        self.n_failed += len(lost)
        self.failed_ids.update(lost)
        if self.tracer is not None:
            self.tracer.emit("replica_fail", t, replica=replica.index,
                             data={"lost": len(lost)})
            for rid in lost:
                # Strikes any optimistic "complete" the request's batch
                # emitted at commit (terminal state is last-emitted).
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

    def completions(self) -> dict:
        """request_id -> completion time across live and retired replicas:
        the fleet's live ledger, not a copy — read it, do not mutate it."""
        return self._completions

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
