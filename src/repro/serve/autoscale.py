"""Burst-aware autoscaling: drive ``n_replicas`` from SLO attainment.

The paper's production context (sustained work on ~9600 Cori KNL nodes)
holds up because capacity adapts to failures and load shifts; a serving
fleet sized once and left alone either wastes nodes or breaks its SLO the
first time an MMPP burst arrives. The PR 2 sweeps showed exactly why the
obvious control signal is wrong: under bursty arrivals, attainment breaks
*below* the uniform-arrival saturation rate, so a controller keyed on
"offered rate vs saturation" would sit still while the tail burns. The
controller here never looks at the saturation rate. It keys on the two
signals the sweeps produced:

- **scale out** when observed SLO attainment in a control epoch drops below
  ``target_attainment`` — the bursty-attainment signal;
- **scale in** when mean batch occupancy (``mean_batch_size / max_batch``)
  stays below ``scale_in_occupancy`` for ``idle_epochs`` consecutive epochs
  while the SLO is met — sustained idle capacity, not a momentary lull.

Voluntary decisions respect a cooldown (``cooldown_epochs`` epochs of
silence after each one) so the loop cannot flap on its own transients.
Node failures are different: a dead replica is an *involuntary* scale-in,
and replacing it is repair, not a control decision — repairs bypass the
cooldown, because waiting out a timer while capacity is gone is how real
outages compound.

:class:`AutoscalingSimulator` extends :class:`ServingSimulator` rather
than forking it: with the controller pinned (``min_replicas ==
max_replicas``) and no failures, it produces bit-identical
:class:`LatencyStats` to the static simulator — enforced by the
differential test in ``tests/test_autoscale_properties.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.failures import FailureEvent, FailureModel
from repro.cluster.machine import CoriMachine
from repro.serve.batching import BatchingPolicy
from repro.serve.latency import ServiceTimeModel
from repro.serve.metrics import (
    EpochRecord,
    LatencyStats,
    ScaleEvent,
    ScaleReason,
)
from repro.serve.router import Router
from repro.serve.slo_sim import ServingSimulator
from repro.serve.arrivals import PopularityLike, ProcessLike
from repro.sim.workload import Workload
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the discrete-time replica controller.

    ``epoch`` is the control period in (virtual) seconds; ``None`` derives
    it from the run's SLO (two SLO windows — long enough for completions to
    accumulate, short enough to catch a burst while it is still bursting).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    target_attainment: float = 0.99
    scale_in_occupancy: float = 0.25
    epoch: Optional[float] = None
    cooldown_epochs: int = 1
    idle_epochs: int = 3
    step_out: int = 1
    step_in: int = 1

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) < min_replicas "
                f"({self.min_replicas})")
        if not 0.0 < self.target_attainment <= 1.0:
            raise ValueError(
                f"target_attainment must be in (0, 1], "
                f"got {self.target_attainment}")
        if not 0.0 <= self.scale_in_occupancy < 1.0:
            raise ValueError(
                f"scale_in_occupancy must be in [0, 1), "
                f"got {self.scale_in_occupancy}")
        if self.epoch is not None and not self.epoch > 0:
            raise ValueError(f"epoch must be positive, got {self.epoch}")
        if self.cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be non-negative")
        if self.idle_epochs < 1:
            raise ValueError("idle_epochs must be >= 1")
        if self.step_out < 1 or self.step_in < 1:
            raise ValueError("scale steps must be >= 1")


@dataclass(frozen=True)
class ScaleDecision:
    """One controller verdict: signed fleet delta plus its justification.

    ``reason`` is structured (:class:`~repro.serve.metrics.ScaleReason`):
    the cause plus the signals observed at decision time, so tests and
    traces assert on *why* instead of string-matching. Holds carry a
    reason too (``cooldown`` / ``steady``)."""

    delta: int
    action: str    # "scale_out" | "scale_in" | "repair" | "hold"
    reason: Optional[ScaleReason] = None


class Autoscaler:
    """Pure decision logic over :class:`EpochRecord` observations.

    Stateless with respect to the simulator — it sees only what an epoch
    record carries, which is only what was causally observable at the epoch
    boundary. It tracks its own *desired* fleet size so that a replica the
    fleet is missing (a node death) is detected as ``actual < desired`` and
    repaired immediately, cooldown or not.
    """

    def __init__(self, policy: AutoscalePolicy,
                 initial: Optional[int] = None, tracer=None) -> None:
        self.policy = policy
        n0 = policy.min_replicas if initial is None else initial
        if not policy.min_replicas <= n0 <= policy.max_replicas:
            raise ValueError(
                f"initial fleet {n0} outside "
                f"[{policy.min_replicas}, {policy.max_replicas}]")
        self.desired = n0
        #: opt-in :class:`repro.serve.obs.Tracer`: every verdict (holds
        #: included) is emitted as a ``decision`` event with its signals
        self.tracer = tracer
        self._next_voluntary = 0     # first epoch index allowed to act
        self._idle_streak = 0

    def _verdict(self, rec: EpochRecord, delta: int, action: str,
                 reason: ScaleReason) -> ScaleDecision:
        if self.tracer is not None:
            self.tracer.emit(
                "decision", rec.t_end,
                data={"epoch": rec.index, "action": action, "delta": delta,
                      "idle_streak": self._idle_streak,
                      **reason.signals()})
        return ScaleDecision(delta, action, reason)

    def decide(self, rec: EpochRecord) -> ScaleDecision:
        p = self.policy
        n = rec.n_replicas
        if n < self.desired:
            # Involuntary scale-in (node death): replace, don't deliberate.
            delta = self.desired - n
            return self._verdict(rec, delta, "repair", ScaleReason(
                "replace_failed", attainment=rec.control_attainment,
                occupancy=rec.occupancy, n_doomed=rec.n_doomed,
                n_shed=rec.n_shed,
                detail=f"replacing {delta} failed replica(s)"))
        # Idle bookkeeping runs every epoch, even inside cooldown, so the
        # streak reflects sustained idleness rather than post-cooldown luck.
        # An epoch with no batches at all is idle only if nothing arrived
        # and nothing is queued — a stalled epoch is the opposite of idle.
        # A scale-in that turns out premature is not fatal: the doomed-
        # request attainment signal re-triggers scale-out within an epoch
        # or two, which is what keeps this loop simple instead of guarded.
        idle = ((not math.isnan(rec.occupancy)
                 and rec.occupancy < p.scale_in_occupancy)
                or (math.isnan(rec.occupancy) and rec.queue_depth == 0
                    and rec.n_arrived == 0))
        self._idle_streak = self._idle_streak + 1 if idle else 0
        signals = dict(attainment=rec.control_attainment,
                       occupancy=rec.occupancy, n_doomed=rec.n_doomed,
                       n_shed=rec.n_shed)
        if rec.index < self._next_voluntary:
            return self._verdict(rec, 0, "hold", ScaleReason(
                "cooldown", detail="cooldown", **signals))
        # Multi-model epochs judge each model against its own SLO; the
        # controller keys on the *worst* per-model attainment (a shared
        # pool provisions for its most broken model). Single-model
        # records carry no per-model slice, so this is the aggregate.
        att = rec.control_attainment
        if not math.isnan(att) and att < p.target_attainment \
                and n < p.max_replicas:
            delta = min(p.step_out, p.max_replicas - n)
            self.desired = n + delta
            self._next_voluntary = rec.index + 1 + p.cooldown_epochs
            self._idle_streak = 0
            return self._verdict(rec, delta, "scale_out", ScaleReason(
                "attainment_below_target",
                detail=f"attainment {att:.3f} < {p.target_attainment:.3f}",
                **signals))
        if (self._idle_streak >= p.idle_epochs and n > p.min_replicas
                and (math.isnan(att) or att >= p.target_attainment)):
            delta = min(p.step_in, n - p.min_replicas)
            self.desired = n - delta
            self._next_voluntary = rec.index + 1 + p.cooldown_epochs
            self._idle_streak = 0
            return self._verdict(rec, -delta, "scale_in", ScaleReason(
                "sustained_idle",
                detail=f"occupancy < {p.scale_in_occupancy:.2f} for "
                       f"{p.idle_epochs} epochs",
                **signals))
        return self._verdict(rec, 0, "hold",
                             ScaleReason("steady", **signals))


class AutoscalingSimulator(ServingSimulator):
    """:class:`ServingSimulator` with the control loop switched on.

    Same arrival streams, same router, same latency accounting — plus, at
    every ``epoch`` boundary, one controller observation and (maybe) one
    fleet change, and, at failure times, node deaths that kill the mapped
    replica mid-service. Failures come either from ``failure_events`` (an
    explicit list, for targeted injection) or a ``failures``
    :class:`FailureModel` sampled over ``max_replicas`` slots for the span
    of the arrival stream; an event's ``node_id`` maps onto the current
    fleet as ``node_id % n_replicas``, so the failure process stays
    meaningful while the fleet resizes. ``degrade`` events slow the mapped
    replica: every batch it commits from the event on serves
    ``slow_factor`` times longer (repeat degrades compound; a later
    ``repair`` event on the same node resets it to full speed in one
    step — recorded as a ``delta == 0`` ``"repair"`` event with cause
    ``"node_repair"`` and counted in the epoch's ``n_repaired``).
    A degraded node keeps routing weight, so its backlog drains
    slower, completions arrive later, and the controller sees the damage
    through the same attainment/doomed signals as any other capacity
    loss — each event is recorded as a ``delta == 0`` ``"degrade"``
    :class:`ScaleEvent` and the epoch records count the currently slow
    replicas in ``n_degraded``.

    The returned :class:`LatencyStats` carries ``epochs``,
    ``scale_events``, and ``mean_replicas`` (time-averaged fleet over the
    arrival span — the controlled window), so every latency is attributable
    to the fleet that produced it.
    """

    def __init__(self, workload: Optional[Workload] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 machine: Optional[CoriMachine] = None,
                 n_replicas: Optional[int] = None,
                 policy: Optional[BatchingPolicy] = None,
                 max_queue: Optional[int] = 256,
                 service_model: Optional[ServiceTimeModel] = None,
                 failures: Optional[FailureModel] = None,
                 failure_events: Optional[Sequence[FailureEvent]] = None,
                 cache_size: int = 0,
                 models=None, model_mix=None,
                 service_models: Optional[Sequence] = None,
                 coalesce: bool = False,
                 order: str = "fifo",
                 cost_aware: bool = False,
                 engine: str = "event") -> None:
        self.autoscale = autoscale or AutoscalePolicy()
        initial = (self.autoscale.min_replicas if n_replicas is None
                   else n_replicas)
        if not (self.autoscale.min_replicas <= initial
                <= self.autoscale.max_replicas):
            raise ValueError(
                f"initial fleet {initial} outside "
                f"[{self.autoscale.min_replicas}, "
                f"{self.autoscale.max_replicas}]")
        super().__init__(workload, machine=machine, n_replicas=initial,
                         policy=policy, max_queue=max_queue,
                         service_model=service_model, cache_size=cache_size,
                         models=models, model_mix=model_mix,
                         service_models=service_models, coalesce=coalesce,
                         order=order, cost_aware=cost_aware, engine=engine)
        if failures is not None and failure_events is not None:
            raise ValueError(
                "pass either a FailureModel or explicit failure_events, "
                "not both")
        self.failures = failures
        self.failure_events = (None if failure_events is None
                               else sorted(failure_events,
                                           key=lambda e: e.time))

    # -- runs -----------------------------------------------------------------
    def run(self, rate: float, n_requests: int = 512,
            process: ProcessLike = "uniform", seed: SeedLike = None,
            slo: Optional[float] = None,
            popularity: PopularityLike = None,
            tracer=None, profiler=None) -> LatencyStats:
        """One autoscaled run; ``slo`` is the controller's attainment
        yardstick (default: :meth:`default_slo` of the *initial* fleet's
        batching policy, same as the static simulator). With a result
        cache (``cache_size > 0``) the controller sees only post-cache
        traffic: hits never reach the router, never appear in an epoch
        record, and never hold a replica — the fleet is provisioned for
        misses.

        Multi-model runs judge each model against its own SLO (profile
        ``slo`` or per-model default); an explicit ``slo`` here overrides
        every model with one uniform target. The controller reacts to the
        worst per-model attainment."""
        explicit = slo is not None
        if slo is None:
            slo = self.default_slo()
        elif not slo > 0:
            raise ValueError(f"slo must be positive, got {slo}")
        self._run_slo = float(slo)
        self._run_slos = (None if self.models is None
                          else [float(slo)] * len(self.models) if explicit
                          else self.model_slos())
        try:
            return super().run(rate, n_requests=n_requests, process=process,
                               seed=seed, popularity=popularity,
                               tracer=tracer, profiler=profiler)
        finally:
            del self._run_slo
            del self._run_slos

    def _run_point(self, rate: float, n_requests: int, process: ProcessLike,
                   seed: SeedLike, slo: float,
                   popularity: PopularityLike = None) -> LatencyStats:
        # Multi-model sweeps keep per-model control: the sweep's scalar
        # ``slo`` is the report's aggregate yardstick, but forwarding it
        # here would override every profile's own SLO with the loosest
        # one — the controller and the per-model slices judge against
        # :meth:`model_slos` instead.
        return self.run(rate, n_requests=n_requests, process=process,
                        seed=seed, slo=slo if self.models is None else None,
                        popularity=popularity)

    # -- the control loop -----------------------------------------------------
    def _failure_schedule(self, t0: float,
                          t_end: float) -> List[FailureEvent]:
        """Failure events inside the controlled window, time-ordered —
        all kinds: ``"fail"`` (fail-stop node death), ``"degrade"`` (the
        node slows by ``slow_factor`` but keeps serving), and ``"repair"``
        (a degraded node restored to full speed).

        Only the arrival span is exposed to failures: once the stream ends
        there is no controller awake to repair, so a post-stream death
        would just punch an unattributable hole in the drain.
        """
        if self.failure_events is not None:
            return [e for e in self.failure_events
                    if t0 < e.time <= t_end]
        if self.failures is not None:
            return [FailureEvent(e.time + t0, e.node_id, e.kind,
                                 e.slow_factor)
                    for e in self.failures.sample_events(
                        self.autoscale.max_replicas, t_end - t0)]
        return []

    def _observe(self, router: Router, open_reqs: dict, cursors: dict,
                 t_start: float, t_end: float, index: int, slos: List[float],
                 rtts: List[float], floors: List[float], n_shed: int,
                 shed_by_model: Optional[List[int]] = None,
                 n_repaired: int = 0) -> EpochRecord:
        """One causal epoch observation.

        Completions whose (virtual) completion time falls inside the window
        are judged against the SLO directly. On top of those, two kinds of
        already-knowable violations count now:

        - *doomed* requests — admitted but not yet answered, whose latency
          is already lower-bounded past the SLO (a queued request's age
          plus the best possible remaining service, or a launched batch's
          known completion). Without them attainment is a lagging
          indicator: under a burst the queue builds for several epochs
          while every completion still (barely) meets the SLO, and the
          controller would learn about the breakage only afterwards;
        - *shed* requests — rejected by admission control this epoch
          (``n_shed``). Without them a saturated ``max_queue`` masks
          overload completely: every admitted request sails through, the
          drop counter does the suffering, and attainment reads 1.0 while
          half the offered traffic bounces.

        Everything here is knowable at ``t_end``; nothing peeks at future
        arrivals.

        Degraded nodes feed the doomed signal: when *every* live replica
        is serving slowed (``n_degraded == n_replicas``), the best
        possible remaining service is the healthy floor's service part
        times the fleet's smallest slow factor — queued requests cross
        the doomed threshold earlier, so the controller reacts to a
        fleet-wide slowdown an epoch or two sooner. With any healthy
        replica left the floors stand: a queued request *could* still be
        served at full speed, and the doomed count must stay a sound
        lower bound on violations (the slowdown then shows up through
        late completions instead).

        Windows are half-open ``(t_start, t_end]`` so consecutive epochs
        partition the timeline — except epoch 0, whose start is the first
        arrival itself and therefore closed, so that arrival (and a batch
        launched at that exact instant) is not invisible to the controller.

        Multi-model runs judge each admitted request against *its own
        model's* SLO, transport cost, and doomed floor; the aggregate
        fields are the per-model sums and ``model_attainment`` carries the
        per-model signals the controller's worst-case rule consumes. With
        one model the sums degenerate to exactly the single-model
        arithmetic (the pinned differential).

        An epoch costs what is outstanding, not what the run has seen.
        ``open_reqs`` (request id -> arrival) holds every admission not yet
        seen answered or lost: a request leaves it in the epoch that finds
        its completion at or before ``t_end`` or its id among the failed,
        and no later epoch could count it (a completion never moves; a
        node death strikes only completions after its own time, which no
        closed epoch has seen). Those admitted since the last epoch are
        the only ones arriving at or after ``t_start``. ``cursors``
        (replica index -> position) resumes each replica's batch list
        where the last epoch stopped: a replica launches in ``start``
        order, so all before the first batch starting after ``t_end`` is
        judged for good (a dead replica's list shrinks to a prefix and
        stays there, leaving its cursor past the end: nothing to scan).
        """
        on_start = t_start if index == 0 else math.inf
        n_degraded = 0
        slow_min = math.inf
        for r in router.replicas:
            f = r.queue.slow_factor
            if f != 1.0:
                n_degraded += 1
            if f < slow_min:
                slow_min = f
        if n_degraded and slow_min != 1.0:
            # Every live replica is slow: raise the doomed floors (the
            # guard keeps degrade-free runs off this arithmetic entirely,
            # preserving their bit-identical floors).
            floors = [(fl - rtt) * slow_min + rtt
                      for fl, rtt in zip(floors, rtts)]
        completions = router.completions()
        mids = self._mids
        M = len(slos)
        n_completed = [0] * M
        n_ok = [0] * M
        n_doomed = [0] * M
        n_arrived = 0
        closed = []
        for rid, a in open_reqs.items():
            if t_start < a <= t_end or a == on_start:
                n_arrived += 1
            m = 0 if mids is None else mids[rid]
            c = completions.get(rid)
            if c is None:
                # Queued. Requests lost to a failure are excluded: they
                # took their attainment hit while queued (doomed) or not at
                # all, and must not depress the signal forever after.
                if rid in router.failed_ids:
                    closed.append(rid)
                elif a <= t_end and t_end - a + floors[m] > slos[m]:
                    n_doomed[m] += 1
            elif c <= t_end:
                closed.append(rid)
                if t_start < c:
                    n_completed[m] += 1
                    if c - a + rtts[m] <= slos[m]:
                        n_ok[m] += 1
            elif t_end >= a and c - a + rtts[m] > slos[m]:
                n_doomed[m] += 1    # launched; completion known and late
        for rid in closed:
            del open_reqs[rid]
        queue_depth = sum(r.queue.outstanding(t_end)
                          for r in router.replicas)
        # This epoch's batches, replica by replica in launch order (the
        # per-model occupancy below is a float mean: keep the order). A
        # batch at or before ``t_start`` can still turn up here — a full
        # one commits the moment it fills, whenever it starts — and was
        # never counted, so the window test stays on every batch.
        epoch_batches = []
        for r in router.replicas + router.retired:
            batches = r.queue.batches
            i = cursors.get(r.index, 0)
            while i < len(batches) and batches[i].start <= t_end:
                b = batches[i]
                if t_start < b.start or b.start == on_start:
                    epoch_batches.append(b)
                i += 1
            cursors[r.index] = i
        sizes = [b.size for b in epoch_batches]
        mean_batch = float(np.mean(sizes)) if sizes else float("nan")
        pols = self.model_policies()
        if not sizes:
            occupancy = float("nan")
        elif pols is None:
            occupancy = mean_batch / self.policy.max_batch
        else:
            # Per-model policies: a full batch of a small-max_batch model
            # must read as full, so occupancy is the mean of each batch's
            # fill fraction against *its own* model's max_batch.
            occupancy = float(np.mean(
                [b.size / pols[b.model].max_batch for b in epoch_batches]))
        # Cost-aware routers expose fleet backlog in estimated service
        # seconds — the leading queue-pressure signal for heterogeneous
        # traffic, where a short queue of scans outweighs a long one of
        # cheap events. NaN on count-based runs (no honest conversion).
        queue_seconds = (router.total_backlog(t_end)
                         if router.model_costs is not None
                         else float("nan"))
        tot_completed, tot_ok = sum(n_completed), sum(n_ok)
        tot_doomed = sum(n_doomed)
        if tot_completed or tot_doomed or n_shed:
            attainment = tot_ok / (tot_completed + tot_doomed + n_shed)
        elif queue_depth > 0:
            attainment = 0.0        # stalled: backlog, nothing finishing
        else:
            attainment = float("nan")
        model_attainment = None
        if mids is not None:
            shed_m = shed_by_model or [0] * M
            per = []
            for m in range(M):
                judged = n_completed[m] + n_doomed[m] + shed_m[m]
                per.append(n_ok[m] / judged if judged else float("nan"))
            model_attainment = tuple(per)
        return EpochRecord(index=index, t_start=t_start, t_end=t_end,
                           n_replicas=router.n_replicas,
                           n_arrived=n_arrived, n_completed=tot_completed,
                           n_ok=tot_ok, n_doomed=tot_doomed, n_shed=n_shed,
                           attainment=attainment,
                           mean_batch_size=mean_batch, occupancy=occupancy,
                           queue_depth=queue_depth,
                           queue_seconds=queue_seconds,
                           model_attainment=model_attainment,
                           n_degraded=n_degraded,
                           n_repaired=n_repaired)

    def _drive(self, arrivals: np.ndarray, router: Router,
               admitted: dict) -> None:
        # The control loop is object-event only: fleets change size, so
        # the flat array core (fixed-fleet by construction) never applies.
        self.last_run_engine = "event"
        slo = getattr(self, "_run_slo", None) or self.default_slo()
        if self.models is None:
            slos = [slo]
        else:
            slos = (getattr(self, "_run_slos", None) or self.model_slos())
        cfg = self.autoscale
        epoch_s = cfg.epoch if cfg.epoch is not None else 2.0 * slo
        tracer = self._tracer
        controller = Autoscaler(cfg, initial=router.n_replicas,
                                tracer=tracer)
        rtts = self._request_rtts()
        # Doomed-request floors come from the service-cost API: no
        # scheduler can answer below a batch-of-one service time plus
        # transport, whatever the launch order or admission unit.
        if self.models is None:
            floors = [self.service.batch_time(1) + rtts[0]]
        else:
            floors = self.services.min_request_seconds(rtts)
        n_models = len(slos)
        t0, t_end = float(arrivals[0]), float(arrivals[-1])
        failures = self._failure_schedule(t0, t_end)
        epochs: List[EpochRecord] = []
        events: List[ScaleEvent] = []
        # Time-integral of the fleet size, for mean_replicas.
        area, mark = 0.0, t0

        def advance_area(t: float) -> None:
            nonlocal area, mark
            area += router.n_replicas * (t - mark)
            mark = t

        epoch_idx, fi = 0, 0
        next_epoch = t0 + epoch_s
        prev_epoch_t = t0
        dropped_mark = router.n_dropped
        dropped_marks = [router.dropped_by_model.get(m, 0)
                         for m in range(n_models)]
        repaired_in_epoch = 0
        # what _observe carries from one epoch to the next (see there)
        open_reqs: dict = {}
        cursors: dict = {}

        def close_epoch(t: float) -> None:
            nonlocal epoch_idx, prev_epoch_t, dropped_mark, \
                repaired_in_epoch
            advance_area(t)
            for r in router.replicas:
                r.queue.advance(t)
            n_shed = router.n_dropped - dropped_mark
            dropped_mark = router.n_dropped
            shed_by_model = None
            if self.models is not None:
                shed_by_model = []
                for m in range(n_models):
                    now = router.dropped_by_model.get(m, 0)
                    shed_by_model.append(now - dropped_marks[m])
                    dropped_marks[m] = now
            rec = self._observe(router, open_reqs, cursors, prev_epoch_t,
                                t, epoch_idx, slos, rtts, floors, n_shed,
                                shed_by_model,
                                n_repaired=repaired_in_epoch)
            repaired_in_epoch = 0
            if tracer is not None:
                tracer.emit(
                    "epoch", t,
                    data={"index": rec.index, "n_replicas": rec.n_replicas,
                          "n_arrived": rec.n_arrived,
                          "n_completed": rec.n_completed,
                          "n_ok": rec.n_ok, "n_doomed": rec.n_doomed,
                          "n_shed": rec.n_shed,
                          "attainment": rec.attainment,
                          "control_attainment": rec.control_attainment,
                          "occupancy": rec.occupancy,
                          "queue_depth": rec.queue_depth,
                          "n_degraded": rec.n_degraded,
                          "n_repaired": rec.n_repaired})
            decision = controller.decide(rec)
            if decision.delta > 0:
                for _ in range(decision.delta):
                    router.add_replica(t)
            elif decision.delta < 0:
                for _ in range(-decision.delta):
                    router.remove_replica(t)
            if decision.delta:
                events.append(ScaleEvent(
                    time=t, epoch=epoch_idx, action=decision.action,
                    delta=decision.delta, n_replicas=router.n_replicas,
                    reason=decision.reason))
                if tracer is not None:
                    tracer.emit(
                        "scale", t,
                        data={"epoch": epoch_idx,
                              "action": decision.action,
                              "delta": decision.delta,
                              "n_replicas": router.n_replicas,
                              **decision.reason.signals()})
            epochs.append(rec)
            prev_epoch_t = t
            epoch_idx += 1

        def apply_failure(ev: FailureEvent) -> None:
            nonlocal repaired_in_epoch
            if router.n_replicas == 0:
                return
            if ev.kind == "repair":
                # The undo of a degrade: same node index mapping, slow
                # factor reset in place — capacity returns without a
                # fleet-size change, so no area breakpoint, and the
                # controller sees the recovery through n_degraded
                # dropping and attainment/doomed signals easing.
                pos = ev.node_id % router.n_replicas
                was_slow = router.replicas[pos].queue.slow_factor != 1.0
                fixed = router.repair_replica(ev.time, pos)
                if was_slow:
                    repaired_in_epoch += 1
                reason = ScaleReason(
                    "node_repair",
                    detail=f"node {fixed.node_id} repaired, batches back "
                           f"at full speed")
                events.append(ScaleEvent(
                    time=ev.time, epoch=epoch_idx, action="repair",
                    delta=0, n_replicas=router.n_replicas, reason=reason))
                if tracer is not None:
                    tracer.emit(
                        "scale", ev.time,
                        data={"epoch": epoch_idx, "action": "repair",
                              "delta": 0, "n_replicas": router.n_replicas,
                              "node_id": fixed.node_id,
                              **reason.signals()})
                return
            if ev.kind == "degrade":
                # Capacity loss without a fleet-size change: no area
                # breakpoint needed, the replica stays in rotation.
                slowed = router.degrade_replica(
                    ev.time, ev.node_id % router.n_replicas, ev.slow_factor)
                reason = ScaleReason(
                    "node_degrade",
                    detail=f"node {slowed.node_id} degraded, batches "
                           f"{ev.slow_factor:g}x slower")
                events.append(ScaleEvent(
                    time=ev.time, epoch=epoch_idx, action="degrade",
                    delta=0, n_replicas=router.n_replicas, reason=reason))
                if tracer is not None:
                    tracer.emit(
                        "scale", ev.time,
                        data={"epoch": epoch_idx, "action": "degrade",
                              "delta": 0, "n_replicas": router.n_replicas,
                              "node_id": slowed.node_id,
                              "slow_factor": float(ev.slow_factor),
                              **reason.signals()})
                return
            advance_area(ev.time)
            dead, lost = router.fail_replica(
                ev.time, ev.node_id % router.n_replicas)
            reason = ScaleReason(
                "node_death",
                detail=f"node {dead.node_id} died, {lost} requests lost")
            events.append(ScaleEvent(
                time=ev.time, epoch=epoch_idx, action="failure", delta=-1,
                n_replicas=router.n_replicas, reason=reason))
            if tracer is not None:
                tracer.emit(
                    "scale", ev.time,
                    data={"epoch": epoch_idx, "action": "failure",
                          "delta": -1, "n_replicas": router.n_replicas,
                          "node_id": dead.node_id, "lost": lost,
                          **reason.signals()})

        if self._prof is not None:
            close_epoch = self._prof.wrap("autoscale.close_epoch",
                                          close_epoch)
            apply_failure = self._prof.wrap("autoscale.apply_failure",
                                            apply_failure)

        for i, t in enumerate(arrivals.astype(np.float64).tolist()):
            # Everything scheduled before this arrival happens first, in
            # time order; a failure tied with an epoch boundary lands
            # first so the controller sees it immediately.
            while True:
                t_fail = failures[fi].time if fi < len(failures) else math.inf
                if min(t_fail, next_epoch) > t:
                    break
                if t_fail <= next_epoch:
                    apply_failure(failures[fi])
                    fi += 1
                else:
                    close_epoch(next_epoch)
                    next_epoch += epoch_s
            self._offer(router, admitted, t, i)
            if i in admitted:
                open_reqs[i] = t
        advance_area(t_end)
        span = t_end - t0
        # run()/collect handoff: ServingSimulator.run calls _drive then
        # _collect on the same router; the epoch records, scale events,
        # and fleet-size time average accumulated here have nowhere to go
        # through _drive's (None) return, so they ride this attribute for
        # exactly the window between the two calls. _collect consumes and
        # deletes it, so a stale accumulation can never leak into a later
        # run. (Named _epoch_accum — NOT _trace — to keep it unconfusable
        # with the per-request obs tracer threaded through the same runs.)
        self._epoch_accum = (
            epochs, events,
            area / span if span > 0 else float(router.n_replicas))

    def _collect(self, arrivals: np.ndarray, router: Router,
                 admitted: dict) -> LatencyStats:
        stats = super()._collect(arrivals, router, admitted)
        epochs, events, mean_replicas = self._epoch_accum
        del self._epoch_accum
        stats.epochs = epochs
        stats.scale_events = events
        stats.mean_replicas = mean_replicas
        return stats
