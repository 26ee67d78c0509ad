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
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.failures import FailureEvent, FailureModel
from repro.cluster.machine import CoriMachine
from repro.serve.batching import BatchingPolicy
from repro.serve.metrics import (
    EpochRecord,
    LatencyStats,
    ScaleEvent,
    ScaleReason,
)
from repro.serve.router import Router
from repro.serve.slo_sim import ServingSimulator, _Run
from repro.serve.arrivals import PopularityLike, ProcessLike
from repro.sim.workload import Workload
from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, spawn_rngs


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
        # A count that is not an integer is refused, not compared: a NaN
        # step or cooldown silently disables its rule, and a fractional
        # one crashes mid-run when the fleet changes by it.
        for name, least in (("min_replicas", 1), ("max_replicas", 1),
                            ("cooldown_epochs", 0), ("idle_epochs", 1),
                            ("step_out", 1), ("step_in", 1)):
            label = (f"{name} (scale steps)" if name.startswith("step_")
                     else name)
            object.__setattr__(self, name, require_count(
                label, getattr(self, name), least=least))
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) < min_replicas "
                f"({self.min_replicas})")
        require_real("target_attainment", self.target_attainment, "(0, 1]")
        require_real("scale_in_occupancy", self.scale_in_occupancy,
                     "[0, 1)")
        require_real("epoch", self.epoch, "(0, inf)", none_ok=True)

    def initial_fleet(self, name: str, n: Optional[int]) -> int:
        """``n`` replicas to start with (None: ``min_replicas``), refused
        by ``name`` unless a count within the policy's bounds."""
        n = self.min_replicas if n is None else require_count(name, n)
        if not self.min_replicas <= n <= self.max_replicas:
            raise ValueError(f"{name}: initial fleet {n} outside "
                             f"[{self.min_replicas}, {self.max_replicas}]")
        return n


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
        self.desired = policy.initial_fleet("initial", initial)
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

    Like the base simulator's, a run's state is its run value
    (``slo_sim._Run``): :meth:`run` puts the SLOs the epochs judge by on
    it, ``_drive`` the doomed floors, the batch cursors ``_observe``
    resumes from and the results ``_collect`` reads. A
    :class:`FailureModel` draws each run's events from the model's seed
    and the run's, so the same seeded run replays the same failures.
    """

    def __init__(self, workload: Optional[Workload] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 machine: Optional[CoriMachine] = None,
                 n_replicas: Optional[int] = None,
                 policy: Optional[BatchingPolicy] = None,
                 max_queue: Optional[int] = 256,
                 failures: Optional[FailureModel] = None,
                 failure_events: Optional[Sequence[FailureEvent]] = None,
                 cache_size: int = 0,
                 models=None, model_mix=None,
                 service_models: Optional[Sequence] = None,
                 coalesce: bool = False,
                 order: str = "fifo",
                 cost_aware: bool = False) -> None:
        self.autoscale = autoscale or AutoscalePolicy()
        initial = self.autoscale.initial_fleet("n_replicas", n_replicas)
        super().__init__(workload, machine=machine, n_replicas=initial,
                         policy=policy, max_queue=max_queue,
                         cache_size=cache_size,
                         models=models, model_mix=model_mix,
                         service_models=service_models, coalesce=coalesce,
                         order=order, cost_aware=cost_aware)
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
        slos = ([float(require_real("slo", slo, "(0, inf]"))]
                * len(self.services) if slo is not None
                else self.model_slos())
        return self._serve(_Run(tracer, profiler, slos), rate, n_requests,
                           process, seed, popularity)

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
    def _failure_schedule(self, t0: float, t_end: float,
                          seed: SeedLike) -> List[FailureEvent]:
        """Failure events inside the controlled window, time-ordered —
        all kinds: ``"fail"`` (fail-stop node death), ``"degrade"`` (the
        node slows by ``slow_factor`` but keeps serving), and ``"repair"``
        (a degraded node restored to full speed).

        Only the arrival span is exposed to failures: once the stream ends
        there is no controller awake to repair, so a post-stream death
        would just punch an unattributable hole in the drain.

        A :class:`FailureModel` draws each run's events afresh from the
        model's seed and the run's ``seed`` (its child stream 3: arrivals
        use the seed itself, content ids child 1, model ids child 2), so
        the same ``run(seed=s)`` replays its failures and two model seeds
        still differ; an unseeded model stays unseeded.
        """
        if self.failure_events is not None:
            return [e for e in self.failure_events
                    if t0 < e.time <= t_end]
        if self.failures is not None:
            streams = (spawn_rngs(self.failures.seed, 1)[0],
                       spawn_rngs(seed if seed is not None else 0, 4)[3])
            model = replace(self.failures, seed=np.random.default_rng(
                [int(g.integers(2**63)) for g in streams]))
            return [FailureEvent(e.time + t0, e.node_id, e.kind,
                                 e.slow_factor)
                    for e in model.sample_events(
                        self.autoscale.max_replicas, t_end - t0)]
        return []

    def _observe(self, router: Router, run: _Run, n_arrived: int,
                 t_start: float, t_end: float, index: int, n_shed: int,
                 shed_by_model: List[int],
                 n_repaired: int = 0) -> EpochRecord:
        """One causal epoch observation of the run ``run``, judged by its
        ``slos``, ``rtts`` and doomed ``floors``.

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

        Consecutive windows partition the timeline: arrivals and launches
        count in ``[t_start, t_end)`` (one on a control instant happens
        after that epoch closed; epoch 0 opens at the first arrival),
        completions in ``(t_start, t_end]`` (one on ``t_start`` that the
        last epoch could not see yet goes uncounted).

        Each admitted request is judged against *its own model's* SLO,
        transport cost, and doomed floor — the model of the batch or the
        lane that holds it; the aggregate fields are the per-model sums,
        and on ``models=`` runs ``model_attainment`` carries the per-model
        signals the controller's worst-case rule consumes.

        The batch lists and lanes are the only record read, and an epoch
        costs what is outstanding, not what the run has seen. The run's
        ``cursors`` (replica index -> [launch, completion] positions)
        resume each batch list where the last epoch stopped: a replica
        launches and, each launch waiting for ``free_at``, completes in
        list order, so all past the completion cursor is in service at
        ``t_end`` (a death cuts a list to a prefix). The rest sits in live
        lanes (a drain re-routes them, a death loses them: a lost request
        stops counting), judged by its arrival time ``run.ts[rid]`` (a
        re-routed entry's lane time is the drain instant). ``n_arrived``
        is the drive loop's count of admissions since the last control
        instant.
        """
        arrivals, cursors = run.ts, run.cursors
        slos, rtts, floors = run.slos, run.rtts, run.floors
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
        M = len(slos)
        n_completed = [0] * M
        n_ok = [0] * M
        n_doomed = [0] * M
        # This epoch's launches, replica by replica in launch order (the
        # per-model occupancy below is a float mean: keep the order). The
        # last epoch committed every launch before ``t_start``, so none
        # past the launch cursor starts before it.
        epoch_batches = []
        for r in router.replicas + router.retired:
            batches = r.queue.batches
            nb = len(batches)
            cur = cursors.setdefault(r.index, [0, 0])
            i = cur[0]
            while i < nb and batches[i].start < t_end:
                epoch_batches.append(batches[i])
                i += 1
            cur[0] = i
            i = cur[1]
            while i < nb:
                b = batches[i]
                c = b.completion
                if c > t_end:
                    break
                if t_start < c:
                    m = b.model
                    slo, rtt = slos[m], rtts[m]
                    n_completed[m] += len(b.request_ids)
                    for rid in b.request_ids:
                        if c - arrivals[rid] + rtt <= slo:
                            n_ok[m] += 1
                i += 1
            cur[1] = i
            # launched, still in service at t_end: completion known
            for b in batches[i:]:
                c, m = b.completion, b.model
                slo, rtt = slos[m], rtts[m]
                for rid in b.request_ids:
                    if c - arrivals[rid] + rtt > slo:
                        n_doomed[m] += 1
            # queued, no batch yet: a lower bound on the latency
            for m, lane in r.queue.lanes.items():
                slo, floor = slos[m], floors[m]
                for _, rid in lane:
                    if t_end - arrivals[rid] + floor > slo:
                        n_doomed[m] += 1
        queue_depth = sum(r.queue.outstanding(t_end)
                          for r in router.replicas)
        sizes = [b.size for b in epoch_batches]
        # exact integer sum over the count: np.mean's float, bit for bit
        mean_batch = sum(sizes) / len(sizes) if sizes else float("nan")
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
        if self.models is not None:
            per = []
            for m in range(M):
                judged = n_completed[m] + n_doomed[m] + shed_by_model[m]
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

    def _drive(self, run: _Run, router: Router) -> None:
        # The control loop is object-event only: fleets change size, so
        # the flat array core (fixed-fleet by construction) never applies.
        # Its results go on the run, for _collect.
        self.last_run_engine = "event"
        cfg = self.autoscale
        # two windows of the run's aggregate SLO, the loosest model's
        epoch_s = cfg.epoch if cfg.epoch is not None else 2.0 * max(run.slos)
        tracer = run.tracer
        controller = Autoscaler(cfg, initial=router.n_replicas,
                                tracer=tracer)
        # Doomed-request floors come from the service-cost API: no
        # scheduler can answer below a batch-of-one service time plus
        # transport, whatever the launch order or admission unit.
        run.floors = self.services.min_request_seconds(run.rtts)
        n_models = len(run.slos)
        arrivals = run.arrivals
        t0, t_end = float(arrivals[0]), float(arrivals[-1])
        failures = self._failure_schedule(t0, t_end, run.seed)
        epochs: List[EpochRecord] = []
        events: List[ScaleEvent] = []
        run.epochs, run.scale_events = epochs, events
        # Time-integral of the fleet size, for mean_replicas.
        area, mark = 0.0, t0

        def advance_area(t: float) -> None:
            nonlocal area, mark
            area += router.n_replicas * (t - mark)
            mark = t

        epoch_idx, fi = 0, 0
        next_epoch = t0 + epoch_s
        prev_epoch_t = t0
        shed_mark = 0
        mids = None if run.mids is None else memoryview(run.mids)
        repaired_in_epoch = 0
        n_admitted = 0

        def record(t: float, action: str, delta: int, reason: ScaleReason,
                   **data) -> None:
            """One fleet event: a :class:`ScaleEvent` and its ``scale``
            trace, ``data`` between the fleet size and the signals."""
            events.append(ScaleEvent(
                time=t, epoch=epoch_idx, action=action, delta=delta,
                n_replicas=router.n_replicas, reason=reason))
            if tracer is not None:
                tracer.emit(
                    "scale", t,
                    data={"epoch": epoch_idx, "action": action,
                          "delta": delta, "n_replicas": router.n_replicas,
                          **data, **reason.signals()})

        def close_epoch(t: float) -> None:
            nonlocal epoch_idx, prev_epoch_t, shed_mark, \
                repaired_in_epoch, n_admitted
            advance_area(t)
            for r in router.replicas:
                r.queue.advance(t)
            shed = router.shed_ids[shed_mark:]
            shed_mark += len(shed)
            shed_by_model = [0] * n_models
            for rid in shed:
                shed_by_model[0 if mids is None else mids[rid]] += 1
            rec = self._observe(router, run, n_admitted, prev_epoch_t, t,
                                epoch_idx, len(shed), shed_by_model,
                                n_repaired=repaired_in_epoch)
            repaired_in_epoch = n_admitted = 0
            if tracer is not None:
                tracer.emit("epoch", t, data={f: getattr(rec, f) for f in (
                    "index", "n_replicas", "n_arrived", "n_completed", "n_ok",
                    "n_doomed", "n_shed", "attainment", "control_attainment",
                    "occupancy", "queue_depth", "n_degraded", "n_repaired")})
            decision = controller.decide(rec)
            if decision.delta > 0:
                for _ in range(decision.delta):
                    router.add_replica(t)
            elif decision.delta < 0:
                for _ in range(-decision.delta):
                    router.remove_replica(t)
            if decision.delta:
                record(t, decision.action, decision.delta, decision.reason)
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
                record(ev.time, "repair", 0, ScaleReason(
                    "node_repair",
                    detail=f"node {fixed.node_id} repaired, batches back "
                           f"at full speed"), node_id=fixed.node_id)
                return
            if ev.kind == "degrade":
                # Capacity loss without a fleet-size change: no area
                # breakpoint needed, the replica stays in rotation.
                slowed = router.degrade_replica(
                    ev.time, ev.node_id % router.n_replicas, ev.slow_factor)
                record(ev.time, "degrade", 0, ScaleReason(
                    "node_degrade",
                    detail=f"node {slowed.node_id} degraded, batches "
                           f"{ev.slow_factor:g}x slower"),
                    node_id=slowed.node_id,
                    slow_factor=float(ev.slow_factor))
                return
            advance_area(ev.time)
            dead, lost = router.fail_replica(
                ev.time, ev.node_id % router.n_replicas)
            record(ev.time, "failure", -1, ScaleReason(
                "node_death",
                detail=f"node {dead.node_id} died, {lost} requests lost"),
                node_id=dead.node_id, lost=lost)

        if run.prof is not None:
            close_epoch = run.prof.wrap("autoscale.close_epoch",
                                        close_epoch)
            apply_failure = run.prof.wrap("autoscale.apply_failure",
                                          apply_failure)

        run.ts = memoryview(arrivals)
        stream, serve = self._feed(run, router)
        t_fail = failures[0].time if failures else math.inf
        next_control = min(t_fail, next_epoch)
        for t, i, model in stream:
            # Everything scheduled before this arrival happens first, in
            # time order; a failure tied with an epoch boundary lands
            # first so the controller sees it immediately.
            while next_control <= t:
                if t_fail <= next_epoch:
                    apply_failure(failures[fi])
                    fi += 1
                    t_fail = (failures[fi].time if fi < len(failures)
                              else math.inf)
                else:
                    close_epoch(next_epoch)
                    next_epoch += epoch_s
                next_control = min(t_fail, next_epoch)
            if serve(t, i, model):
                n_admitted += 1
        advance_area(t_end)
        span = t_end - t0
        run.mean_replicas = (area / span if span > 0
                             else float(router.n_replicas))

    def _collect(self, run: _Run, record) -> LatencyStats:
        stats = super()._collect(run, record)
        stats.epochs = run.epochs
        stats.scale_events = run.scale_events
        stats.mean_replicas = run.mean_replicas
        return stats
