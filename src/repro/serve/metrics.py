"""Latency/throughput accounting for the serving layer.

A serving run produces one :class:`LatencyStats` (per-request latencies plus
drop counts); a request-rate sweep stacks them into a :class:`SweepReport`
whose p50/p99 and SLO-attainment curves are the serving analogue of the
paper's scaling figures. :class:`PolicyComparison` pairs two sweeps of the
same setup under different batching modes (windowed vs continuous) and
exposes the per-rate latency win.

Autoscaled runs (:mod:`repro.serve.autoscale`) attribute the same stats per
control epoch: each :class:`EpochRecord` is one controller observation
window, each :class:`ScaleEvent` one fleet change (voluntary scale-out /
scale-in, node failure, repair), and :attr:`LatencyStats.mean_replicas` is
the time-averaged fleet size the run actually paid for — the number that
makes "met the SLO with fewer replicas than worst-case provisioning" a
checkable claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: every way the serving fleet can change mid-run (``"degrade"`` is the
#: one action that changes *capacity* without changing the replica count:
#: a slow node stays in rotation, so its event carries ``delta == 0``)
SCALE_ACTIONS = ("scale_out", "scale_in", "failure", "repair", "degrade")

#: every trigger a :class:`ScaleReason` can name. The first five justify
#: fleet changes (one per :data:`SCALE_ACTIONS` entry); the last two
#: justify holds (:class:`~repro.serve.autoscale.ScaleDecision` carries a
#: reason even when the fleet does not move).
SCALE_CAUSES = (
    "attainment_below_target",  # scale_out: observed attainment < target
    "sustained_idle",           # scale_in: occupancy low for idle_epochs
    "node_death",               # failure: a replica's node fail-stopped
    "replace_failed",           # repair: actual fleet < desired fleet
    "node_degrade",             # degrade: a replica's node slowed down
    "node_repair",              # repair: a degraded node restored to speed
    "cooldown",                 # hold: inside post-decision cooldown
    "steady",                   # hold: no signal crossed a threshold
)


@dataclass(frozen=True)
class ScaleReason:
    """*Why* the controller acted: the cause plus the signals it saw.

    Replaces the old free-text reason string so traces and tests assert on
    the cause and the observed signals (attainment, occupancy, doomed and
    shed counts at decision time) instead of string-matching. ``detail``
    keeps a human-readable phrase for ledgers; ``str(reason)`` renders it
    (or the cause when no detail was given), so f-string printing sites
    read exactly as before.
    """

    cause: str
    attainment: float = float("nan")   # control attainment at decision
    occupancy: float = float("nan")    # mean_batch/max_batch at decision
    n_doomed: int = 0                  # known-late pending at decision
    n_shed: int = 0                    # shed inside the decision's epoch
    detail: str = ""                   # human phrasing for ledgers

    def __post_init__(self) -> None:
        if self.cause not in SCALE_CAUSES:
            raise ValueError(f"unknown scale cause {self.cause!r}; "
                             f"have {SCALE_CAUSES}")

    def signals(self) -> dict:
        """The observed-signal payload (what trace events carry)."""
        return {"cause": self.cause, "attainment": self.attainment,
                "occupancy": self.occupancy, "n_doomed": self.n_doomed,
                "n_shed": self.n_shed}

    def __str__(self) -> str:
        return self.detail if self.detail else self.cause


@dataclass(frozen=True)
class ScaleEvent:
    """One fleet change during an autoscaled run.

    Every action changes the replica count except ``"degrade"``, which
    changes capacity instead (a slow node keeps serving): a degrade event
    must carry ``delta == 0``, every other action must not — with one
    more exception: a ``"repair"`` with cause ``"node_repair"`` undoes a
    degrade in place (same node, restored speed), so it too keeps the
    fleet size, while a ``"repair"`` that *replaces* a dead replica
    (cause ``"replace_failed"``) still adds one."""

    time: float          # virtual time of the change (s)
    epoch: int           # control epoch it happened in
    action: str          # one of SCALE_ACTIONS
    delta: int           # signed replica-count change (0 for degrades)
    n_replicas: int      # fleet size after the change
    #: controller's trigger and observed signals (None: not recorded)
    reason: Optional[ScaleReason] = None

    def __post_init__(self) -> None:
        if self.action not in SCALE_ACTIONS:
            raise ValueError(f"unknown scale action {self.action!r}; "
                             f"have {SCALE_ACTIONS}")
        if self.action == "degrade":
            if self.delta != 0:
                raise ValueError(
                    "a degrade event keeps the fleet size (delta must be 0)")
        elif self.action == "repair":
            if self.delta < 0:
                raise ValueError(
                    "a repair event cannot shrink the fleet (delta >= 0: "
                    "0 un-degrades in place, positive replaces a death)")
        elif self.delta == 0:
            raise ValueError("a scale event must change the fleet size")
        if self.n_replicas < 0:
            raise ValueError("n_replicas cannot go negative")


@dataclass(frozen=True)
class EpochRecord:
    """What the controller could causally observe in one control epoch.

    Attainment here is judged over requests whose *completion* fell inside
    the epoch, plus two kinds of already-knowable violations: the *doomed*
    (still pending but with latency already lower-bounded past the SLO —
    what makes the signal lead a building backlog instead of lagging it)
    and the *shed* (bounced by admission control this epoch — what keeps a
    saturated ``max_queue`` from masking overload entirely). It is ``0.0``
    when the epoch is stalled (backlog but nothing completed) and ``NaN``
    when there was genuinely nothing to judge. ``occupancy`` is
    ``mean_batch_size / max_batch`` — the idle-capacity signal scale-in
    keys on.
    """

    index: int
    t_start: float
    t_end: float
    n_replicas: int        # fleet size at observation (before the decision)
    n_arrived: int         # admitted arrivals inside the epoch
    n_completed: int       # completions recorded inside the epoch
    n_ok: int              # of those, completions within the SLO
    n_doomed: int          # pending with a known-late latency lower bound
    n_shed: int            # dropped by admission control inside the epoch
    attainment: float
    mean_batch_size: float  # mean size of the epoch's launches (NaN if none)
    occupancy: float        # mean_batch_size / max_batch (NaN if none)
    queue_depth: int        # outstanding requests at t_end
    #: outstanding work at ``t_end`` in *estimated service seconds* —
    #: the cost-aware router's backlog unit, where one queued climate
    #: scan outweighs many HEP events. NaN on count-based runs: a
    #: request count has no honest seconds conversion after the fact.
    queue_seconds: float = float("nan")
    #: per-model attainment against each model's own SLO (None on
    #: single-model runs — the aggregate IS the one model's signal)
    model_attainment: Optional[Tuple[float, ...]] = None
    #: live replicas serving slower than healthy at ``t_end`` (degraded
    #: nodes — see :meth:`repro.serve.router.Router.degrade_replica`)
    n_degraded: int = 0
    #: degraded replicas restored to full speed inside the epoch
    #: (``FailureEvent(kind="repair")`` — the undo of a degrade)
    n_repaired: int = 0

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError("epoch must have positive duration")
        if self.n_ok > self.n_completed:
            raise ValueError("n_ok cannot exceed n_completed")

    @property
    def control_attainment(self) -> float:
        """What the autoscaler keys on: the *worst* per-model attainment
        when the epoch judged any model, else the aggregate. A shared pool
        must provision for its most broken model — averaging two models'
        attainments would let a healthy high-traffic model mask a broken
        low-traffic one."""
        if self.model_attainment is None:
            return self.attainment
        judged = [a for a in self.model_attainment if not math.isnan(a)]
        return min(judged) if judged else self.attainment


class _LatencySample:
    """Shared latency-sample accessors for :class:`LatencyStats` and its
    per-model slices — one implementation of the percentile and hit-rate
    arithmetic, so the aggregate and the slices can never diverge.

    **Degenerate-run contract** (pinned by ``tests/test_serve_metrics``):
    every accessor returns a documented value instead of raising on
    zero-completion, all-shed, or single-request runs —

    - undefined *statistics* are ``NaN``: ``percentile``/``p50``/``p99``
      and ``mean`` with an empty latency sample, ``mean_batch_size``
      with no recorded batches (you cannot summarize what never
      happened);
    - undefined *rates* are ``0.0``: ``hit_rate``/``drop_rate`` with
      nothing offered, ``throughput``/``deflected_load`` with a
      non-positive horizon (nothing happened per unit of nothing);
    - ``attainment`` with nothing offered is vacuously ``1.0`` (no
      request missed its SLO); an all-shed run is ``0.0`` (every offered
      request counts as a violation).

    A single completed request is a full sample: every percentile is
    that one latency, never an interpolation artifact.

    The contract is engine-independent: stats assembled by the flat
    array core (:mod:`repro.serve.fast_core`) and by the event loop hit
    the same degenerate cases — all-shed runs, empty streams — and must
    satisfy the same table bit for bit, which the engine differential
    suite pins."""

    @property
    def n_completed(self) -> int:
        return int(self.latencies.size)

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] over completed requests."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.latencies.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else float(
            "nan")

    @property
    def hit_rate(self) -> float:
        """Fraction of this sample's *offered* requests the result cache
        answered. The denominator is this run's own offered count —
        curves that stack several runs (e.g. :class:`CacheSizeSweep`)
        compare per-run fractions, not one pooled ratio."""
        return self.n_cache_hits / self.n_offered if self.n_offered else 0.0


@dataclass
class PerModelStats(_LatencySample):
    """One model's slice of a multi-model serving run.

    Same accounting as the aggregate :class:`LatencyStats`, restricted to
    the requests that asked for this model, and judged against *this
    model's* SLO — per-model attainment is what the weighted-admission and
    shared-vs-partitioned benchmarks compare. Conservation holds per
    model: every offered request completes (replica, cache hit, or
    coalesced ride-along), is shed by admission, or dies with a replica.
    """

    name: str
    slo: float                     # this model's latency target (s)
    weight: float                  # its admission weight
    latencies: np.ndarray          # completed requests of this model (s)
    n_offered: int
    n_dropped: int = 0
    n_failed: int = 0
    n_cache_hits: int = 0
    n_coalesced: int = 0

    def __post_init__(self) -> None:
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if self.slo <= 0:
            raise ValueError(f"slo must be positive, got {self.slo}")
        if min(self.n_offered, self.n_dropped, self.n_failed,
               self.n_cache_hits, self.n_coalesced) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_completed + self.n_dropped + self.n_failed \
                > self.n_offered:
            raise ValueError(
                f"model {self.name!r}: completed ({self.n_completed}) + "
                f"dropped ({self.n_dropped}) + failed ({self.n_failed}) "
                f"exceed offered ({self.n_offered})")
        if self.n_cache_hits + self.n_coalesced > self.n_completed:
            raise ValueError(
                f"model {self.name!r}: hits ({self.n_cache_hits}) + "
                f"coalesced ({self.n_coalesced}) exceed completed "
                f"({self.n_completed})")

    @property
    def attainment(self) -> float:
        """Fraction of this model's offered requests answered within its
        own SLO (drops and failures count as violations)."""
        if self.n_offered == 0:
            return 1.0
        return int((self.latencies <= self.slo).sum()) / self.n_offered


@dataclass
class LatencyStats(_LatencySample):
    """Outcome of serving one request stream at a fixed offered rate."""

    latencies: np.ndarray          # seconds, one entry per completed request
    n_offered: int                 # requests that arrived at the front door
    n_dropped: int = 0             # rejected by admission control
    horizon: float = 0.0           # first arrival -> last completion (s)
    #: size of each launched micro-batch, launch order (None: not recorded)
    batch_sizes: Optional[np.ndarray] = None
    #: admitted but lost to a replica failure (never answered)
    n_failed: int = 0
    #: requests answered by the result cache (never reached a replica)
    n_cache_hits: int = 0
    #: duplicate in-flight misses that completed by riding the first
    #: miss's forward (a follower whose leader died counts in n_failed)
    n_coalesced: int = 0
    #: time-averaged replica count over the run (None: fixed fleet)
    mean_replicas: Optional[float] = None
    #: per-control-epoch observations (None: not an autoscaled run)
    epochs: Optional[List[EpochRecord]] = None
    #: fleet changes in time order (None: not an autoscaled run)
    scale_events: Optional[List[ScaleEvent]] = None
    #: per-model slices, profile order (None: single-model run)
    models: Optional[List[PerModelStats]] = None

    def __post_init__(self) -> None:
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if min(self.n_offered, self.n_dropped, self.n_failed,
               self.n_cache_hits, self.n_coalesced) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_cache_hits + self.n_coalesced > self.n_completed:
            raise ValueError(
                f"cache hits ({self.n_cache_hits}) + coalesced "
                f"({self.n_coalesced}) exceed completed "
                f"({self.n_completed}) — each is a completion")
        if self.n_completed + self.n_dropped + self.n_failed > self.n_offered:
            raise ValueError(
                f"completed ({self.n_completed}) + dropped ({self.n_dropped})"
                f" + failed ({self.n_failed}) exceed offered "
                f"({self.n_offered})")
        if self.batch_sizes is not None:
            self.batch_sizes = np.asarray(self.batch_sizes, dtype=np.int64)
            on_replicas = (self.n_completed - self.n_cache_hits
                           - self.n_coalesced)
            if int(self.batch_sizes.sum()) != on_replicas:
                raise ValueError(
                    f"batch sizes sum to {int(self.batch_sizes.sum())} but "
                    f"{on_replicas} requests completed on replicas (cache "
                    f"hits and coalesced rides launch no batch)")

    def model(self, name: str) -> PerModelStats:
        """The per-model slice for ``name`` (multi-model runs only)."""
        for m in self.models or []:
            if m.name == name:
                return m
        raise KeyError(
            f"no per-model stats for {name!r}; have "
            f"{[m.name for m in self.models or []]}")

    @property
    def drop_rate(self) -> float:
        return self.n_dropped / self.n_offered if self.n_offered else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per second over the run's makespan."""
        if self.horizon <= 0:
            return 0.0
        return self.n_completed / self.horizon

    @property
    def deflected_load(self) -> float:
        """Requests/second the cache kept off the replicas — capacity the
        fleet did not have to provision (the autoscaler never sees it).

        Normalized by *this run's own horizon* (first arrival to last
        response). Runs in a sweep generally have different horizons —
        overload stretches the makespan — so cross-run comparisons of
        this number compare per-run rates over per-run windows; it is not
        additive across runs. :class:`CacheSizeSweep` therefore refuses
        runs with a non-positive horizon up front instead of letting this
        quietly read 0.0.
        """
        if self.horizon <= 0:
            return 0.0
        return self.n_cache_hits / self.horizon

    @property
    def n_batches(self) -> int:
        return 0 if self.batch_sizes is None else int(self.batch_sizes.size)

    @property
    def mean_batch_size(self) -> float:
        """Mean launched batch occupancy — the throughput/latency dial the
        batching mode turns (continuous mode trades it for low-load p50)."""
        if self.batch_sizes is None or self.batch_sizes.size == 0:
            return float("nan")
        return float(self.batch_sizes.mean())

    def attainment(self, slo: float) -> float:
        """Fraction of *offered* requests answered within ``slo`` seconds.

        Drops and failure-lost requests count as violations — an operator
        cares about the requests users sent, not the ones the system
        deigned (or survived) to serve.
        """
        if not slo > 0:
            raise ValueError(f"slo must be positive, got {slo}")
        if self.n_offered == 0:
            return 1.0
        ok = int((self.latencies <= slo).sum())
        return ok / self.n_offered

    def scale_timeline(self) -> str:
        """Human-readable ledger of the run's fleet changes and epochs."""
        if self.epochs is None and self.scale_events is None:
            return "(fixed fleet: no scale events recorded)"
        rows = [f"{'epoch':>5s} {'window (s)':>17s} {'repl':>4s} "
                f"{'arriv':>5s} {'compl':>5s} {'attain':>6s} "
                f"{'occ':>5s} {'queue':>5s}  events"]
        by_epoch: dict = {}
        for ev in self.scale_events or []:
            by_epoch.setdefault(ev.epoch, []).append(ev)
        seen = set()
        for rec in self.epochs or []:
            seen.add(rec.index)
            evs = "; ".join(
                f"{ev.action} {ev.delta:+d} -> {ev.n_replicas} ({ev.reason})"
                for ev in by_epoch.get(rec.index, []))
            att = ("  --  " if math.isnan(rec.attainment)
                   else f"{rec.attainment:6.3f}")
            occ = ("  -- " if math.isnan(rec.occupancy)
                   else f"{rec.occupancy:5.2f}")
            rows.append(
                f"{rec.index:>5d} {rec.t_start:>8.3f}-{rec.t_end:<8.3f} "
                f"{rec.n_replicas:>4d} {rec.n_arrived:>5d} "
                f"{rec.n_completed:>5d} {att} {occ} "
                f"{rec.queue_depth:>5d}  {evs}")
        # Events past the last closed epoch (e.g. a failure between the
        # final boundary and the end of the stream) still belong in the
        # ledger — a timeline that contradicts n_failed is worse than none.
        for epoch in sorted(set(by_epoch) - seen):
            for ev in by_epoch[epoch]:
                rows.append(
                    f"{epoch:>5d} {'(after last closed epoch)':>17s}"
                    f"{'':>31s}  {ev.action} {ev.delta:+d} -> "
                    f"{ev.n_replicas} ({ev.reason})")
        return "\n".join(rows)


@dataclass(frozen=True)
class RatePoint:
    """One point of a request-rate sweep."""

    rate: float                    # offered requests/second
    stats: LatencyStats


@dataclass
class SweepReport:
    """SLO-attainment and tail-latency curves across offered rates."""

    slo: float                     # latency target (s)
    points: List[RatePoint] = field(default_factory=list)

    def add(self, rate: float, stats: LatencyStats) -> None:
        self.points.append(RatePoint(rate, stats))

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    @property
    def p50_curve(self) -> np.ndarray:
        return np.array([p.stats.p50 for p in self.points])

    @property
    def p99_curve(self) -> np.ndarray:
        return np.array([p.stats.p99 for p in self.points])

    @property
    def throughput_curve(self) -> np.ndarray:
        return np.array([p.stats.throughput for p in self.points])

    @property
    def mean_batch_curve(self) -> np.ndarray:
        return np.array([p.stats.mean_batch_size for p in self.points])

    @property
    def mean_replica_curve(self) -> np.ndarray:
        """Time-averaged fleet size per rate (NaN for fixed-fleet sweeps).

        This is the autoscaler's cost axis: attainment restored at a lower
        mean fleet than static worst-case provisioning is the whole win.
        """
        return np.array([np.nan if p.stats.mean_replicas is None
                         else p.stats.mean_replicas for p in self.points])

    @property
    def hit_rate_curve(self) -> np.ndarray:
        """Result-cache hit rate per offered rate (zero when uncached)."""
        return np.array([p.stats.hit_rate for p in self.points])

    @property
    def attainment_curve(self) -> np.ndarray:
        return np.array([p.stats.attainment(self.slo) for p in self.points])

    def model_attainment_curve(self, name: str) -> np.ndarray:
        """One model's attainment (against its own SLO) per offered rate —
        multi-model sweeps only."""
        return np.array([p.stats.model(name).attainment
                         for p in self.points])

    def p99_is_monotone(self, rel_tol: float = 5e-3) -> bool:
        """Check that p99 latency never decreases as offered load rises.

        This is a *check*, not a universal law: it holds for sweeps whose
        batching ``max_wait`` is at or below the full-batch service time
        (see :meth:`ServingSimulator.sweep`); wait-dominated configs can
        legitimately fail it. ``rel_tol`` absorbs percentile-interpolation
        noise on the flat sub-saturation part of the curve.
        """
        c = self.p99_curve
        return bool(np.all(c[1:] >= c[:-1] * (1.0 - rel_tol)))

    def attainment_is_monotone(self, tol: float = 1e-9) -> bool:
        """SLO attainment never improves as offered load rises."""
        c = self.attainment_curve
        return bool(np.all(c[1:] <= c[:-1] + tol))

    def table(self) -> str:
        rows = [f"{'rate (req/s)':>12s} {'goodput':>9s} {'p50 (ms)':>9s} "
                f"{'p99 (ms)':>9s} {'attain':>7s} {'drops':>6s}"]
        for p in self.points:
            s = p.stats
            rows.append(
                f"{p.rate:>12.2f} {s.throughput:>9.2f} {s.p50 * 1e3:>9.1f} "
                f"{s.p99 * 1e3:>9.1f} {s.attainment(self.slo):>7.3f} "
                f"{s.n_dropped:>6d}")
        return "\n".join(rows)


@dataclass
class CacheSizeSweep:
    """Hit-rate vs tail-latency/attainment trade across cache capacities.

    One identical trace (same arrivals, same content ids, same fleet) run
    once per cache size at a fixed offered ``rate`` — size 0 is the
    uncached baseline. The curves answer the capacity-planning question
    the ROADMAP poses: how many cache entries buy back the SLO that the
    offered rate alone would break.

    Each point's rate-like numbers (``deflected_load``, ``throughput``)
    are normalized by that point's *own* horizon — the runs share a trace
    but not a makespan (a bigger cache finishes the same trace sooner).
    Every point must therefore have a positive horizon, which is checked
    here at construction: a zero-horizon run (nothing completed) would
    silently flatten the deflected-load curve to 0.0 instead of failing.
    """

    slo: float                     # latency target (s)
    rate: float                    # fixed offered rate (req/s)
    sizes: List[int] = field(default_factory=list)
    points: List[LatencyStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.points):
            raise ValueError(
                f"{len(self.sizes)} sizes but {len(self.points)} runs")
        for size, point in zip(self.sizes, self.points):
            if point.horizon <= 0:
                raise ValueError(
                    f"cache size {size}: run has non-positive horizon "
                    f"({point.horizon}); its per-horizon rates would "
                    f"silently read 0.0 — the run served nothing")

    @property
    def hit_rate_curve(self) -> np.ndarray:
        return np.array([s.hit_rate for s in self.points])

    @property
    def p99_curve(self) -> np.ndarray:
        return np.array([s.p99 for s in self.points])

    @property
    def attainment_curve(self) -> np.ndarray:
        return np.array([s.attainment(self.slo) for s in self.points])

    @property
    def deflected_curve(self) -> np.ndarray:
        return np.array([s.deflected_load for s in self.points])

    def table(self) -> str:
        rows = [f"{'cache size':>10s} {'hit rate':>9s} {'deflect/s':>10s} "
                f"{'p99 (ms)':>9s} {'attain':>7s} {'drops':>6s}"]
        for size, s in zip(self.sizes, self.points):
            rows.append(
                f"{size:>10d} {s.hit_rate:>9.3f} {s.deflected_load:>10.1f} "
                f"{s.p99 * 1e3:>9.1f} {s.attainment(self.slo):>7.3f} "
                f"{s.n_dropped:>6d}")
        return "\n".join(rows)


@dataclass
class PolicyComparison:
    """Windowed vs continuous batching, swept over identical offered rates.

    Both sweeps must share the rate grid and the SLO — the comparison is
    meaningless otherwise, so that's enforced. The ``*_win_curve`` arrays
    are windowed-minus-continuous latency (positive = continuous is
    faster); ``attainment_gain_curve`` is continuous-minus-windowed (a
    hold-free launch can only add attainment under a shared SLO at low
    load, while under saturation both modes degenerate to full batches).
    """

    windowed: "SweepReport"
    continuous: "SweepReport"

    def __post_init__(self) -> None:
        w, c = self.windowed.rates, self.continuous.rates
        # Shape check first: np.allclose broadcasts, so mismatched lengths
        # would crash (or, for length-1 grids, silently pass).
        if w.shape != c.shape or not np.allclose(w, c):
            raise ValueError("sweeps cover different rate grids; "
                             "compare at identical offered rates")
        if not np.isclose(self.windowed.slo, self.continuous.slo):
            raise ValueError(
                f"sweeps judge different SLOs ({self.windowed.slo} vs "
                f"{self.continuous.slo}); use one target for both")

    @property
    def rates(self) -> np.ndarray:
        return self.windowed.rates

    @property
    def slo(self) -> float:
        return self.windowed.slo

    @property
    def p50_win_curve(self) -> np.ndarray:
        return self.windowed.p50_curve - self.continuous.p50_curve

    @property
    def p99_win_curve(self) -> np.ndarray:
        return self.windowed.p99_curve - self.continuous.p99_curve

    @property
    def attainment_gain_curve(self) -> np.ndarray:
        return (self.continuous.attainment_curve
                - self.windowed.attainment_curve)

    def table(self) -> str:
        rows = [f"{'rate (req/s)':>12s} {'p50 win':>12s} {'p99 win':>12s} "
                f"{'batch w/c':>11s} {'attain w':>8s} {'attain c':>8s}"]
        for i, rate in enumerate(self.rates):
            w = self.windowed.points[i].stats
            c = self.continuous.points[i].stats
            rows.append(
                f"{rate:>12.2f} "
                f"{self.p50_win_curve[i] * 1e3:>9.1f} ms "
                f"{self.p99_win_curve[i] * 1e3:>9.1f} ms "
                f"{w.mean_batch_size:>5.1f}/{c.mean_batch_size:<5.1f} "
                f"{w.attainment(self.slo):>8.3f} "
                f"{c.attainment(self.slo):>8.3f}")
        return "\n".join(rows)
