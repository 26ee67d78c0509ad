"""Dynamic micro-batching: coalesce single requests into batched forwards.

The efficiency model behind the whole subsystem is the paper's own (SII-A,
DeepBench): KNL kernel efficiency collapses at minibatch 1-4 and saturates
around 32, so a server that forwards each request alone throws away an order
of magnitude of throughput. The scheduler here implements the standard
max-batch/max-wait policy in two flavors, selected by
``BatchingPolicy.mode``:

- ``"windowed"`` — launch a batch when either ``max_batch`` requests are
  queued or the oldest request has waited ``max_wait`` seconds;
- ``"continuous"`` — vLLM-style: the moment the replica is free and any
  request is queued, launch the partial batch immediately instead of
  holding it for ``max_wait``.  Coalescing still happens, but only behind
  a *busy* replica — whatever queued during a batch's service launches
  together the instant it completes, so the replica never idles while
  work waits.

In both modes, when the replica is busy, whatever queued in the meantime
launches together as soon as it frees up.  Continuous mode trades batch
occupancy for latency: at low load it serves mostly singletons (no
``max_wait`` floor under p50), while at high load the busy replica makes
the two modes converge to the same full-batch schedule.

Two consumers share the policy:

- :class:`ReplicaBatchQueue` runs it over *virtual* time inside the SLO
  simulator (:mod:`repro.serve.slo_sim`);
- :class:`BatchExecutor` runs real coalesced forwards on a loaded replica
  for actual inference (:mod:`repro.serve.registry`).
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.cache import ResultCache, content_key, require_count

BATCHING_MODES = ("windowed", "continuous")

#: how a multi-lane replica orders launch-ready batches across lanes:
#:
#: - ``"fifo"`` — strictly by launch instant, ties broken full batch
#:   first then lowest model index (the pre-deadline scheduler);
#: - ``"edf"`` — earliest deadline first: ties at one launch instant go
#:   to the lane whose *oldest queued request* has the earliest deadline
#:   (its arrival plus its model's SLO).
LAUNCH_ORDERS = ("fifo", "edf")


@dataclass(frozen=True)
class BatchingPolicy:
    """Launch a batch at ``max_batch`` queued requests or ``max_wait`` s.

    ``mode="windowed"`` (default) holds a partial batch until the oldest
    request has waited ``max_wait``; ``mode="continuous"`` launches a
    partial batch the moment the replica is free (``max_wait`` is kept for
    bookkeeping but never delays a launch).
    """

    max_batch: int = 32
    max_wait: float = 0.010
    mode: str = "windowed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_batch",
                           require_count("max_batch", self.max_batch))
        if math.isnan(self.max_wait) or self.max_wait < 0:
            raise ValueError(
                f"max_wait must be non-negative, got {self.max_wait}")
        if self.mode not in BATCHING_MODES:
            raise ValueError(f"unknown batching mode {self.mode!r}; "
                             f"have {BATCHING_MODES}")

    @property
    def launch_wait(self) -> float:
        """Effective partial-batch hold time: continuous mode never holds."""
        return 0.0 if self.mode == "continuous" else self.max_wait

    def with_mode(self, mode: str) -> "BatchingPolicy":
        """Same batching knobs under a different launch mode."""
        return replace(self, mode=mode)


@dataclass(frozen=True)
class Batch:
    """One launched micro-batch (virtual-time record).

    ``model`` identifies which registered model the batch ran — batches
    never mix models (one forward pass is one set of weights), so a
    multi-model replica serializes per-model batches on one timeline.
    """

    start: float                   # launch time (s)
    completion: float              # start + service time (s)
    request_ids: Tuple[int, ...]   # members, FIFO order
    model: int = 0                 # index of the model the batch ran

    @property
    def size(self) -> int:
        return len(self.request_ids)


class ReplicaBatchQueue:
    """Per-model FIFO lanes + batching policy for one replica, virtual time.

    Drive it with nondecreasing ``push(t, request_id, model)`` calls and a
    final :meth:`drain`; it records every launched :class:`Batch` and each
    request's completion time. ``service_time(batch_size) -> seconds`` is
    the replica's batched-forward latency model; for a multi-model replica
    pass ``service_times`` (one callable per model index) instead — each
    model has its own service curve, and batches never mix models.

    The replica is one shared execution resource: every lane's batches
    serialize on the same ``free_at`` timeline. Launch order across lanes
    is by launch instant — each :meth:`advance` step commits the lane
    with the globally earliest launch key. How ties (and near-ties) break
    is the ``order`` knob (:data:`LAUNCH_ORDERS`): ``"fifo"`` (default)
    breaks full batch first then lowest model index — the pre-deadline
    scheduler, bit for bit; ``"edf"`` breaks by each lane head's
    *deadline* (its arrival plus its model's SLO, from ``slos``),
    so a tight-SLO model's batch launches ahead of a loose-SLO one that
    became ready at the same instant. With a single lane every order
    reduces exactly to the classic max-batch/max-wait schedule — the
    single-model differential tests pin that bit for bit.

    ``policies`` (one :class:`BatchingPolicy` per model index) overrides
    ``policy`` per lane: each model batches under its own ``max_batch``/
    ``max_wait``, so a slow scan model can run short batches (bounding
    the head-of-line block it inflicts) while a fast one fills deep ones.
    """

    def __init__(self, policy: BatchingPolicy,
                 service_time: Callable[[int], float],
                 free_at: float = 0.0,
                 on_commit: Optional[Callable[[Batch], None]] = None,
                 service_times: Optional[
                     Sequence[Callable[[int], float]]] = None,
                 tracer=None, replica: Optional[int] = None,
                 policies: Optional[Sequence[BatchingPolicy]] = None,
                 order: str = "fifo",
                 slos: Optional[Sequence[float]] = None) -> None:
        self.policy = policy
        #: opt-in :class:`repro.serve.obs.Tracer` (duck-typed; ``None``
        #: keeps every push/launch on the exact pre-trace instruction path)
        self.tracer = tracer
        #: this queue's replica index, stamped on its trace events
        self.replica = replica
        self.service_time = service_time
        #: per-model service-time callables (None: every lane uses
        #: ``service_time`` — the single-model case)
        self.service_times = (None if service_times is None
                              else list(service_times))
        if order not in LAUNCH_ORDERS:
            raise ValueError(f"unknown launch order {order!r}; "
                             f"have {LAUNCH_ORDERS}")
        if order != "fifo" and slos is None:
            raise ValueError(
                f"order={order!r} needs per-model slos (each lane head's "
                f"deadline is its arrival + its model's SLO)")
        #: cross-lane launch ordering (see :data:`LAUNCH_ORDERS`)
        self.order = order
        #: per-model SLOs — the deadline source for edf ordering
        self.slos = None if slos is None else [float(s) for s in slos]
        if self.slos is not None and any(
                not s > 0 for s in self.slos):
            raise ValueError(f"slos must be positive, got {self.slos}")
        #: per-model batching policies (None: every lane uses ``policy``)
        self.policies = None if policies is None else list(policies)
        for seq, what in ((self.policies, "policies"),
                          (self.slos, "slos")):
            if seq is not None and self.service_times is not None \
                    and len(seq) != len(self.service_times):
                raise ValueError(
                    f"{len(seq)} {what} for "
                    f"{len(self.service_times)} service models")
        self.free_at = free_at
        #: called with each :class:`Batch` the instant it is committed —
        #: the router's event feed (backlog decrements, cache fills)
        self.on_commit = on_commit
        #: model index -> FIFO lane of (arrival, request_id)
        self.lanes: Dict[int, List[Tuple[float, int]]] = {}
        #: model index -> its lane's current launch key (:meth:`_key`): a
        #: push recomputes that lane's, a launch (``free_at`` moves) drops
        #: all
        self._keys: Dict[int, Tuple[float, float, int, int]] = {}
        self.batches: List[Batch] = []
        #: request_id -> completion; a :class:`~repro.serve.router.Router`
        #: swaps in the one ledger its whole fleet writes to
        self.completions: Dict[int, float] = {}
        #: launched but not yet completed batches: (completion, size), FIFO
        self._in_flight: Deque[Tuple[float, int]] = deque()
        # Tracks the last push time only — arrivals may well precede
        # free_at (requests queuing while the replica is still busy).
        # The lowest finite float, so push's one range check also rejects
        # a first arrival at -inf.
        self._clock = -sys.float_info.max
        #: batch-time multiplier of a degraded node (1.0 = healthy). The
        #: ``!= 1.0`` guard keeps the healthy path's float ops untouched,
        #: so undegraded runs stay bit-identical to the pre-degrade code.
        self.slow_factor = 1.0

    def degrade(self, slow_factor: float) -> None:
        """Slow every batch committed from now on by ``slow_factor`` >= 1
        (a throttled or half-broken node, not a dead one). Repeat degrades
        compound multiplicatively; :meth:`repair` is the undo — until one
        arrives the node stays slow (or the autoscaler retires it)."""
        if not slow_factor >= 1.0:
            raise ValueError(
                f"slow_factor must be >= 1.0, got {slow_factor}")
        self.slow_factor = self.slow_factor * float(slow_factor)

    def repair(self) -> float:
        """Restore healthy speed: every batch committed from now on serves
        at the base service time again. Returns the compounded slow factor
        that was undone (1.0 if the node was already healthy). Batches
        already committed keep their degraded timing — a repair is not
        retroactive, mirroring how :meth:`degrade` spares in-flight work.
        """
        undone, self.slow_factor = self.slow_factor, 1.0
        return undone

    def _svc(self, model: int, size: int) -> float:
        if self.service_times is not None:
            base = self.service_times[model](size)
        else:
            base = self.service_time(size)
        if self.slow_factor != 1.0:
            return base * self.slow_factor
        return base

    def _policy(self, model: int) -> BatchingPolicy:
        """Model ``model``'s batching policy (the shared one by default)."""
        if self.policies is not None:
            return self.policies[model]
        return self.policy

    # -- state ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet launched (all lanes)."""
        return sum(len(lane) for lane in self.lanes.values())

    def outstanding(self, t: float) -> int:
        """Requests admitted but not yet *completed* at time ``t``: the
        unlaunched queue plus every launched batch still in service. This is
        the load signal for both routing and admission — committed batches
        are still work the replica owes."""
        while self._in_flight and self._in_flight[0][0] <= t:
            self._in_flight.popleft()
        return self.queue_depth + sum(size for _, size in self._in_flight)

    def backlog(self, t: float) -> int:
        """Routing load signal; alias of :meth:`outstanding` (one unit —
        requests — so replicas with early-committed batches don't look
        idle)."""
        return self.outstanding(t)

    def _lane_key(self, model: int,
                  lane: List[Tuple[float, int]]
                  ) -> Tuple[float, float, int, int]:
        """Launch-order key of one nonempty lane:
        ``(launch instant, urgency, partial?, model)``.

        ``urgency`` is the deadline-scheduling axis: ``0.0`` under
        ``"fifo"`` (a constant — ordering falls through to the classic
        full-before-partial, then model-index tie-breaks, exactly the
        pre-deadline key) and the lane head's deadline under ``"edf"``
        (arrival of the oldest queued request plus its model's SLO)."""
        pol = self.policies[model] if self.policies is not None \
            else self.policy
        B = pol.max_batch
        if len(lane) >= B:
            launch, partial = max(self.free_at, lane[B - 1][0]), 0
        else:
            launch, partial = max(self.free_at,
                                  lane[0][0] + pol.launch_wait), 1
        if self.order == "fifo":
            return (launch, 0.0, partial, model)
        return (launch, lane[0][0] + self.slos[model], partial, model)

    def _key(self, model: int, lane: List[Tuple[float, int]]
             ) -> Tuple[float, float, int, int]:
        """:meth:`_lane_key` on a ``_keys`` miss, so a key is computed
        once per queue state."""
        key = self._keys[model] = self._lane_key(model, lane)
        return key

    def next_launch(self) -> float:
        """Launch instant of the next uncommitted batch (+inf if none).

        State-determined: a full batch launches at ``max(free_at, B-th
        arrival)``, a partial one at its head's hold deadline — and a
        multi-lane replica's next launch is the earliest over its lanes.
        :meth:`push` and :meth:`advance` return this value as a by-product
        of their own lane scan, which is what the router schedules launch
        events from; this full scan is the definition they are held to.
        """
        t, keys = math.inf, self._keys
        for model, lane in self.lanes.items():
            if lane:
                t = min(t, (keys.get(model) or self._key(model, lane))[0])
        return t

    # -- event loop -----------------------------------------------------------
    def push(self, t: float, request_id: int, model: int = 0) -> float:
        """Admit a ``model`` request arriving at time ``t`` (finite and
        nondecreasing across all models — one replica sees one arrival
        clock); return the replica's new :meth:`next_launch`: the earlier
        of what the advance to ``t`` left and the pushed lane's own key,
        as an append never moves a lane's launch later (a partial lane the
        advance deferred launches at or after ``t``; a lane the append
        fills, at ``max(free_at, t)``)."""
        if not self._clock <= t < math.inf:
            raise ValueError(f"arrivals must be finite and nondecreasing: "
                             f"{t} after {self._clock}")
        if self.service_times is not None and \
                not 0 <= model < len(self.service_times):
            raise ValueError(
                f"model index {model} outside the {len(self.service_times)} "
                f"registered service models")
        left = self.advance(t)
        self._clock = t
        # no trace emission here: the tracer synthesizes each member's
        # "enqueue" from the lane slice handed over at batch commit, so
        # admission costs the traced hot path nothing
        lane = self.lanes.setdefault(model, [])
        lane.append((t, request_id))
        launch = self._key(model, lane)[0]      # replaces the lane's key
        return launch if launch < left else left

    def advance(self, until: float) -> float:
        """Launch every batch whose launch instant falls before ``until``;
        return the replica's :meth:`next_launch` (+inf with no work left).

        Partial-batch launches at or after ``until`` are deferred: the next
        arrival (which is what ``until`` represents) may still join them.
        A full batch — membership (first B of the lane, FIFO) and launch
        time both already determined, no future arrival can change
        either — commits whenever it holds the globally earliest lane
        key, even past ``until``; once the earliest key belongs to a
        deferred partial lane, the loop stops (any full lane behind it
        launches later anyway, so nothing determined is being held back
        out of order).
        """
        keys = self._keys
        while True:
            best: Optional[Tuple[float, float, int, int]] = None
            for model, lane in self.lanes.items():
                if lane:
                    key = keys.get(model) or self._key(model, lane)
                    if best is None or key < best:
                        best = key
            if best is None:
                return math.inf
            launch, _, partial, model = best
            if partial and launch >= until:
                return launch
            self._launch(model,
                         min(self._policy(model).max_batch,
                             len(self.lanes[model])),
                         launch)

    def _launch(self, model: int, take: int, launch: float) -> None:
        """Commit the first ``take`` requests of ``model``'s lane as one
        batch."""
        lane = self.lanes[model]
        members = lane[:take]
        del lane[:take]
        completion = launch + self._svc(model, take)
        self.free_at = completion
        self._keys.clear()
        self._in_flight.append((completion, take))
        ids = tuple([rid for _, rid in members])
        batch = Batch(start=launch, completion=completion, request_ids=ids,
                      model=model)
        self.batches.append(batch)
        self.completions.update(dict.fromkeys(ids, completion))
        if self.tracer is not None:
            # Emitted at commit, timestamped per the batch's (future)
            # completion; a later node death strikes these with "fail".
            # The lane slice carries each member's (enqueue_t, rid) —
            # the tracer synthesizes their enqueue/complete events from
            # it lazily, so commit stores one tuple, not 3x batch size.
            info = None
            if self.slos is not None:
                deadline = members[0][0] + self.slos[model]
                info = (deadline, deadline - completion)
            self.tracer.batch_launch(launch, self.replica, model,
                                     completion, members, info)
        if self.on_commit is not None:
            self.on_commit(batch)

    def _queued(self) -> List[Tuple[float, int, int]]:
        """Every unlaunched ``(arrival, request_id, model)``, merged across
        lanes in arrival order (ties by model index; stable within a lane,
        so a single-lane queue keeps its exact FIFO order)."""
        return sorted(
            ((a, rid, model) for model, lane in self.lanes.items()
             for a, rid in lane),
            key=lambda e: (e[0], e[2]))

    # -- live-scaling support -------------------------------------------------
    def evict_queued(self, t: float) -> List[Tuple[float, int, int]]:
        """Hand back every still-unlaunched request at time ``t``.

        Graceful-drain primitive for live replica removal: first advance to
        ``t`` so any batch whose launch instant has already passed departs
        normally (it was committed before the removal decision), then strip
        the remaining ``(arrival, request_id, model)`` triples in arrival
        order for the caller to re-route onto the right model lane
        elsewhere. In-flight batches are untouched — they complete on this
        replica; only unlaunched work moves.
        """
        self.advance(t)
        evicted = self._queued()
        self.lanes.clear()
        self._keys.clear()
        return evicted

    def abort_after(self, t: float) -> List[int]:
        """Fail-stop the replica at time ``t``; returns the lost request ids.

        Models a node death: every batch still in service at ``t`` (or
        committed to launch after it) is aborted and its requests are
        struck from :attr:`completions`, along with everything queued but
        unlaunched. Batches that completed at or before ``t`` stand — those
        responses already left the node. The queue is unusable afterwards
        (``free_at`` pinned to infinity).
        """
        self.advance(t)
        lost = [rid for _, rid, _ in self._queued()]
        self.lanes.clear()
        self._keys.clear()
        survived = []
        for b in self.batches:
            if b.completion > t:
                lost.extend(b.request_ids)
                for rid in b.request_ids:
                    del self.completions[rid]
                if self.tracer is not None:
                    self.tracer.emit(
                        "batch_abort", t, replica=self.replica,
                        model=b.model,
                        data={"launch": b.start, "completion": b.completion,
                              "size": b.size, "request_ids": b.request_ids})
            else:
                survived.append(b)
        self.batches = survived
        self._in_flight.clear()
        self.free_at = math.inf
        return lost

    def drain(self) -> None:
        """Flush all remaining requests (no further arrivals).

        A windowed policy with a non-finite ``max_wait`` ("launch full
        batches only") gives the final partial batch a deadline that never
        fires; :meth:`advance` would hold it forever and its requests would
        silently vanish from :attr:`completions`. Once the stream has ended
        no future arrival can top the batch up, so fire the remainder as
        soon as the replica frees — held lanes in head-arrival order (ties
        to the lowest model index), or by head deadline under ``"edf"``
        ordering.
        """
        self.advance(math.inf)
        while True:
            if self.order == "fifo":
                held = [(lane[0][0], model)
                        for model, lane in self.lanes.items() if lane]
            else:
                held = [(lane[0][0] + self.slos[model], model)
                        for model, lane in self.lanes.items() if lane]
            if not held:
                return
            _, model = min(held)
            lane = self.lanes[model]
            take = min(self._policy(model).max_batch, len(lane))
            self._launch(model, take, max(self.free_at, lane[take - 1][0]))


def plan_batches(arrivals: Sequence[float], policy: BatchingPolicy,
                 service_time: Callable[[int], float],
                 free_at: float = 0.0) -> List[Batch]:
    """Batch schedule of one replica for a sorted arrival sequence.

    Request ids are the arrival indices. This is the single-replica
    closed-form of the simulator's event loop, mainly useful for reasoning
    about and testing the policy itself.
    """
    q = ReplicaBatchQueue(policy, service_time, free_at=free_at)
    for i, t in enumerate(arrivals):
        q.push(float(t), i)
    q.drain()
    return q.batches


class BatchExecutor:
    """Real coalesced execution: stack requests, one forward, split results.

    Per-sample results agree with unbatched forwards to float32 rounding
    (BLAS may block the GEMM differently per batch shape, so agreement is
    ~1e-6 rather than bitwise) — batching is a throughput decision, not an
    accuracy trade.

    With a :class:`~repro.serve.cache.ResultCache`, repeated inputs skip
    the forward entirely: a hit returns the memoized prediction
    *bitwise-identically* (stored read-only, so a caller cannot corrupt
    what later hits will see). Cache keys are prefixed with the replica's
    identity (:attr:`~repro.serve.registry.ServableModel.cache_scope`)
    when it has one, so one cache shared across models or versions cannot
    serve v1's prediction for a v2 request.
    """

    def __init__(self, net, cache: Optional[ResultCache] = None) -> None:
        self.net = net
        self.cache = cache
        self._scope = getattr(net, "cache_scope", ())

    def _key(self, sample: np.ndarray):
        return (self._scope,
                content_key(np.asarray(sample, dtype=np.float32)))

    @staticmethod
    def _frozen(result):
        """Copy a per-sample result out of its batch and mark it read-only."""
        if isinstance(result, dict):
            return {k: BatchExecutor._frozen(v) for k, v in result.items()}
        arr = np.array(result)
        arr.flags.writeable = False
        return arr

    def run_batch(self, samples: Sequence[np.ndarray]) -> List:
        """Forward a list of single-sample arrays (no batch dim) together.

        Returns one result per sample; dict-valued nets (e.g. ``ClimateNet``)
        yield per-sample dicts.
        """
        if not samples:
            return []
        batch = np.stack([np.asarray(s, dtype=np.float32) for s in samples])
        out = self.net.forward(batch)
        n = len(samples)
        if isinstance(out, dict):
            return [{k: v[i] for k, v in out.items()} for i in range(n)]
        return [out[i] for i in range(n)]

    def run(self, samples: Sequence[np.ndarray],
            policy: BatchingPolicy) -> List:
        """Serve a request list in policy-sized chunks (arrival order).

        With a cache attached, only misses are forwarded — they coalesce
        into policy-sized batches across the hit gaps (cache-deflected
        load is capacity the batcher gets back). Results are returned in
        arrival order regardless; a repeated input later in the stream
        returns the first occurrence's stored prediction.
        """
        if self.cache is None:
            results = []
            for lo in range(0, len(samples), policy.max_batch):
                results.extend(
                    self.run_batch(samples[lo:lo + policy.max_batch]))
            return results
        results: List = [None] * len(samples)
        # Misses awaiting a forward, with the content key already hashed
        # by the lookup (hashing the tensor is the per-miss overhead).
        pending: List[Tuple[int, object]] = []

        def flush() -> None:
            batch_out = self.run_batch([samples[i] for i, _ in pending])
            for (i, key), out in zip(pending, batch_out):
                frozen = self._frozen(out)
                self.cache.put(key, frozen)
                results[i] = frozen
            pending.clear()

        for i, sample in enumerate(samples):
            key = self._key(sample)
            hit, value = self.cache.get(key)
            if hit:
                results[i] = value
            else:
                pending.append((i, key))
                if len(pending) == policy.max_batch:
                    flush()
        if pending:
            flush()
        return results
