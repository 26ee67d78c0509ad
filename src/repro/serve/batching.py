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
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.cache import ResultCache, content_key
from repro.utils.checks import require_count, require_real

BATCHING_MODES = ("windowed", "continuous")

#: how the simulators' replicas order launch-ready batches across lanes
#: (their ``order=``):
#:
#: - ``"fifo"`` — strictly by launch instant, ties broken full batch
#:   first then lowest model index;
#: - ``"edf"`` — earliest deadline first: ties at one launch instant go
#:   to the lane whose *oldest queued request* has the earliest deadline
#:   (its arrival plus its model's SLO). A :class:`ReplicaBatchQueue`
#:   launches this way exactly when it is given ``slos``.
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
        # inf: never launch a partial batch on a timer
        require_real("max_wait", self.max_wait, "[0, inf]")
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
    final :meth:`drain`; every launched :class:`Batch` is the one record
    of its requests' completion. ``policies`` and ``service_times``
    (``batch_size -> seconds``) hold one entry per model index: a
    single-model queue is the one-lane case, ``([policy],
    [service_time])``. Each model batches on its own service curve and
    ``max_batch``/``max_wait`` (a slow scan model can run short batches
    while a fast one fills deep ones); batches never mix models.

    The replica is one shared execution resource: every lane's batches
    serialize on the same ``free_at`` timeline. Launch order across lanes
    is by launch instant — each :meth:`advance` step commits the lane
    with the globally earliest launch key. Ties (and near-ties) break
    full batch first then lowest model index; a queue given per-model
    ``slos`` breaks them by each lane head's *deadline* instead (its
    arrival plus its model's SLO — the ``"edf"`` order of
    :data:`LAUNCH_ORDERS`), so a tight-SLO model's batch launches ahead of
    a loose-SLO one that became ready at the same instant. With a single
    lane both reduce exactly to the classic max-batch/max-wait schedule.
    """

    def __init__(self, policies: Sequence[BatchingPolicy],
                 service_times: Sequence[Callable[[int], float]],
                 free_at: float = 0.0,
                 on_commit: Optional[Callable[[Batch], None]] = None,
                 slos: Optional[Sequence[float]] = None) -> None:
        #: per-model batching policies, one per model index
        self.policies = list(policies)
        #: per-model service-time callables, one per model index
        self.service_times = list(service_times)
        n_models = len(self.service_times)
        #: per-model SLOs, the lane heads' deadline source; set, lanes
        #: launch earliest deadline first
        self.slos = None if slos is None else [
            float(require_real("slos", s, "(0, inf]")) for s in slos]
        for seq, what in ((self.policies, "policies"), (self.slos, "slos")):
            if seq is not None and len(seq) != n_models:
                raise ValueError(
                    f"{len(seq)} {what} for {n_models} service models")
        self.free_at = require_real("free_at", free_at, "(-inf, inf)")
        #: called with each :class:`Batch` the instant it is committed —
        #: the router's event feed (backlog decrements, cache fills)
        self.on_commit = on_commit
        #: model index -> FIFO lane of (arrival, request_id)
        self.lanes: Dict[int, List[Tuple[float, int]]] = {}
        #: model index -> its lane's current launch key (:meth:`_key`): a
        #: push that adds a lane head or fills the batch recomputes that
        #: lane's, a launch (``free_at`` moves) drops all
        self._keys: Dict[int, Tuple[float, float, int, int]] = {}
        #: lanes holding a full batch, and the :meth:`next_launch` the last
        #: push or advance returned (batches commit only inside an advance,
        #: or a drain, which leaves the +inf its advance returned): a push
        #: skips an advance that could commit nothing (``fast_core``'s
        #: ``nfull`` / ``sched``)
        self._nfull = 0
        self._next = math.inf
        self.batches: List[Batch] = []
        #: the batches :meth:`abort_after` struck (in flight or committed
        #: past the node death): out of :attr:`batches`, kept for the record
        self.aborted: List[Batch] = []
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
        require_real("slow_factor", slow_factor, "[1, inf)")
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
        base = self.service_times[model](size)
        if self.slow_factor != 1.0:
            return base * self.slow_factor
        return base

    # -- state ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet launched (all lanes)."""
        return sum(len(lane) for lane in self.lanes.values())

    @property
    def completions(self) -> Dict[int, float]:
        """request_id -> completion, built from :attr:`batches` when read."""
        return {rid: b.completion for b in self.batches
                for rid in b.request_ids}

    def outstanding(self, t: float) -> int:
        """Requests admitted but not yet *completed* at time ``t``: the
        unlaunched queue plus every launched batch still in service. This is
        the load signal for both routing and admission — committed batches
        are still work the replica owes. Each launch waits for ``free_at``,
        so the batches in service are the suffix of :attr:`batches` that
        completes after ``t``."""
        n = self.queue_depth
        for b in reversed(self.batches):
            if b.completion <= t:
                break
            n += len(b.request_ids)
        return n

    def _lane_key(self, model: int,
                  lane: List[Tuple[float, int]]
                  ) -> Tuple[float, float, int, int]:
        """Launch-order key of one nonempty lane:
        ``(launch instant, urgency, partial?, model)``.

        ``urgency`` is the deadline-scheduling axis: ``0.0`` without
        ``slos`` (a constant — ordering falls through to the classic
        full-before-partial, then model-index tie-breaks) and the lane
        head's deadline with them (arrival of the oldest queued request
        plus its model's SLO)."""
        pol = self.policies[model]
        B = pol.max_batch
        if len(lane) >= B:
            launch, partial = max(self.free_at, lane[B - 1][0]), 0
        else:
            launch, partial = max(self.free_at,
                                  lane[0][0] + pol.launch_wait), 1
        if self.slos is None:
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
        of their own lane scan (or the kept one, when a push skips its
        advance), which is what the router schedules launch events from;
        this full scan is the definition they are held to.
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
        fills, at ``max(free_at, t)``).

        A push does only work that can change state: it advances only when
        a lane holds a full batch or the kept instant is before ``t`` (else
        the advance commits nothing), and rebuilds the pushed lane's key
        only for a new lane head or a fill, the only appends that move it.
        The router pushes through :meth:`_push`, the body unchecked."""
        if not self._clock <= t < math.inf:
            raise ValueError(f"t must be finite and nondecreasing, got "
                             f"{t!r} after {self._clock}")
        # a Python int takes the cheapest test; another integer (NumPy's)
        # goes through require_count, as 0.5 does
        if not (model.__class__ is int
                and 0 <= model < len(self.service_times)):
            model = require_count("model", model, least=0)
            if model >= len(self.service_times):
                raise ValueError(
                    f"model index {model} outside the "
                    f"{len(self.service_times)} registered service models")
        return self._push(t, request_id, model)

    def _push(self, t: float, request_id: int, model: int) -> float:
        """:meth:`push` on a checked arrival (``model`` a Python int)."""
        left = (self.advance(t) if self._nfull > 0 or self._next < t
                else self._next)
        self._clock = t
        lane = self.lanes.setdefault(model, [])
        lane.append((t, request_id))
        n, B = len(lane), self.policies[model].max_batch
        if n == B:
            self._nfull += 1
        if n == 1 or n == B:
            launch = self._key(model, lane)[0]  # replaces the lane's key
            if launch < left:
                left = launch
        self._next = left
        return left

    def advance(self, until: float) -> float:
        """Launch every batch whose launch instant falls before ``until``;
        return the replica's :meth:`next_launch` (+inf with no work left),
        which the queue also keeps for the next :meth:`push`.

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
                self._next = math.inf
                return math.inf
            launch, _, partial, model = best
            if partial and launch >= until:
                self._next = launch
                return launch
            self._launch(model,
                         min(self.policies[model].max_batch,
                             len(self.lanes[model])),
                         launch)

    def _launch(self, model: int, take: int, launch: float) -> None:
        """Commit the first ``take`` requests of ``model``'s lane as one
        batch."""
        lane = self.lanes[model]
        # a full lane grows past max_batch behind an earlier-deadline
        # partial lane: it stays full unless fewer than max_batch remain
        if len(lane) >= self.policies[model].max_batch > len(lane) - take:
            self._nfull -= 1
        members = lane[:take]
        del lane[:take]
        completion = launch + self._svc(model, take)
        self.free_at = completion
        self._keys.clear()
        ids = tuple([rid for _, rid in members])
        batch = Batch(start=launch, completion=completion, request_ids=ids,
                      model=model)
        self.batches.append(batch)
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

    def _clear_lanes(self) -> None:
        self.lanes.clear()
        self._keys.clear()
        self._nfull, self._next = 0, math.inf

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
        self._clear_lanes()
        return evicted

    def abort_after(self, t: float) -> List[int]:
        """Fail-stop the replica at time ``t``; returns the lost request ids.

        Models a node death: every batch still in service at ``t`` (or
        committed to launch after it) is aborted — moved from
        :attr:`batches` to :attr:`aborted` — and its requests are lost,
        along with everything queued but unlaunched. Batches that completed
        at or before ``t`` stand — those responses already left the node.
        The queue is unusable afterwards (``free_at`` pinned to infinity).
        """
        self.advance(t)
        lost = [rid for _, rid, _ in self._queued()]
        self._clear_lanes()
        survived = []
        for b in self.batches:
            if b.completion > t:
                lost.extend(b.request_ids)
                self.aborted.append(b)
            else:
                survived.append(b)
        self.batches = survived
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
        to the lowest model index), or by head deadline when the queue
        holds ``slos``.
        """
        self.advance(math.inf)
        slos = self.slos or [0.0] * len(self.service_times)
        while True:
            held = [(lane[0][0] + slos[model], model)
                    for model, lane in self.lanes.items() if lane]
            if not held:
                return
            _, model = min(held)
            lane = self.lanes[model]
            take = min(self.policies[model].max_batch, len(lane))
            self._launch(model, take, max(self.free_at, lane[take - 1][0]))


def plan_batches(arrivals: Sequence[float], policy: BatchingPolicy,
                 service_time: Callable[[int], float],
                 free_at: float = 0.0) -> List[Batch]:
    """Batch schedule of one replica for a sorted arrival sequence.

    Request ids are the arrival indices. This is the single-replica
    closed-form of the simulator's event loop, mainly useful for reasoning
    about and testing the policy itself.
    """
    q = ReplicaBatchQueue([policy], [service_time], free_at=free_at)
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
