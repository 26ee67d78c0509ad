"""Metrics registry: labeled counters/gauges/histograms for serving runs.

The serving stats (:class:`~repro.serve.metrics.LatencyStats`,
:class:`~repro.serve.metrics.PerModelStats`) are *post-hoc aggregates*,
computed once, at collection. The registry here is the *streaming* view:
named series with labels (per model, per replica), in the shape a real
metrics pipeline (Prometheus-style) would scrape.

The two views must agree. :func:`registry_from_trace` builds the series
from a :class:`~repro.serve.obs.trace.Tracer`'s run-record columns and
live fleet events, never from its event stream, and :func:`reconcile`
asserts the trace-derived totals against a run's stats: the conservation
identity ``hits + completions + shed + failed == offered``, per model and
in aggregate. :exc:`ReconciliationError` names every diverging series.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.utils.checks import require_count, require_real


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotone event count (one labeled series)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += require_count(
            f"{self.name}: counters only go up, by whole events, so the "
            f"amount", amount, least=0)


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Observed-value distribution with exact quantiles.

    Simulator scale (thousands to a few hundred thousand observations)
    makes storing the raw samples affordable, and exact percentiles are
    what the latency assertions need — bucketed approximations would
    reintroduce the very "which bucket did p99 land in" ambiguity the
    trace layer exists to remove.
    """

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(require_real(self.name, value)))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else float("nan")

    def percentile(self, q: float) -> float:
        """Exact linear-interpolation percentile, ``q`` in [0, 100]."""
        require_real("q", q, "[0, 100]")
        if not self.values:
            return float("nan")
        xs = sorted(self.values)
        pos = (len(xs) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class MetricsRegistry:
    """Get-or-create store of labeled metric series.

    ``registry.counter("serve_requests_offered_total", model="hep")``
    returns the one series for that (name, labels) pair, creating it on
    first use — the Prometheus client idiom. A name is bound to one
    metric kind; asking for the same name as a different kind raises.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, tuple], Any] = {}
        self._kinds: Dict[str, str] = {}

    def _get(self, cls, kind: str, name: str, labels: Dict[str, Any]):
        bound = self._kinds.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} is a {bound}, not a {kind}")
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = cls(name, labels)
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, "gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, "histogram", name, labels)

    # -- read side ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._series)

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def series(self, name: str) -> List[Any]:
        """Every labeled series registered under ``name``."""
        return [s for (n, _), s in sorted(self._series.items(),
                                          key=lambda kv: kv[0])
                if n == name]

    def value(self, name: str, **labels: Any) -> Any:
        """One series' current value (counters/gauges) or count
        (histograms); raises ``KeyError`` if the series doesn't exist."""
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            raise KeyError(f"no series {name!r} with labels {labels}")
        if isinstance(series, Histogram):
            return series.count
        return series.value

    def total(self, name: str) -> float:
        """Sum of a counter family across all its labeled series."""
        return sum(s.value for s in self.series(name))

    def collect(self) -> Dict[str, Any]:
        """Flat ``{"name{k=v,...}": value}`` snapshot (histograms report
        count/sum/p50/p99) — the scrape-shaped view."""
        out: Dict[str, Any] = {}
        for (name, labels), series in sorted(self._series.items(),
                                             key=lambda kv: kv[0]):
            tag = ",".join(f"{k}={v}" for k, v in labels)
            full = f"{name}{{{tag}}}" if tag else name
            if isinstance(series, Histogram):
                out[full] = {"count": series.count, "sum": series.sum,
                             "p50": series.percentile(50.0),
                             "p99": series.percentile(99.0)}
            else:
                out[full] = series.value
        return out

    def render(self) -> str:
        """Text exposition of every series, one per line."""
        lines = []
        for full, value in self.collect().items():
            if isinstance(value, dict):
                lines.append(f"{full} count={value['count']} "
                             f"sum={value['sum']:.6g} "
                             f"p50={value['p50']:.6g} "
                             f"p99={value['p99']:.6g}")
            else:
                lines.append(f"{full} {value}")
        return "\n".join(lines)


#: the counter families :func:`registry_from_trace` builds per model —
#: (metric name, Tracer.counts key) pairs, reconciled against the stats
TRACE_COUNTERS = (
    ("serve_requests_offered_total", "offered"),
    ("serve_requests_shed_total", "shed"),
    ("serve_cache_hits_total", "cache_hits"),
    ("serve_requests_coalesced_total", "coalesced"),
    ("serve_requests_completed_total", "completed"),
    ("serve_requests_failed_total", "failed"),
)


def registry_from_trace(tracer) -> MetricsRegistry:
    """Build a :class:`MetricsRegistry` from a trace's columns, without
    building its event stream.

    Per-model lifecycle counters (:data:`TRACE_COUNTERS`, labeled
    ``model=<index>``: :meth:`Tracer.counts`, what :func:`reconcile`
    checks); per-replica batch counters and batch-size histograms from the
    record's batch columns (a batch's model is its first member's; struck
    batches count); and, from the live events in canonical order,
    scale-event counters by action, a fleet-size gauge (last observed) and
    the epoch attainment histogram.
    """
    reg = MetricsRegistry()
    for model in (tracer.models() or [0]):
        counts = tracer.counts(model)
        for metric, key in TRACE_COUNTERS:
            reg.counter(metric, model=model).inc(counts[key])
    rec = tracer._record
    if rec is not None:
        run = rec.run
        bmodel = rec.models[run.members[run.bfirst]]
        for rep in np.unique(run.brep).tolist():
            on = run.brep == rep
            for m, n in zip(*(c.tolist() for c in np.unique(
                    bmodel[on], return_counts=True))):
                reg.counter("serve_batches_total",
                            replica=rep, model=m).inc(n)
            sizes = reg.histogram("serve_batch_size", replica=rep)
            for size in run.bsize[on].tolist():
                sizes.observe(size)
    for _, ev in tracer._keyed(record=False):
        if ev.kind == "scale":
            reg.counter("serve_scale_events_total",
                        action=ev.data["action"]).inc()
            reg.gauge("serve_fleet_size").set(ev.data["n_replicas"])
        elif ev.kind == "epoch":
            reg.gauge("serve_fleet_size").set(ev.data["n_replicas"])
            att = ev.data.get("attainment")
            if att is not None and not math.isnan(att):
                reg.histogram("serve_epoch_attainment").observe(att)
    return reg


class ReconciliationError(AssertionError):
    """A trace-derived total disagrees with the run's stats."""


#: (:meth:`Tracer.counts` key, the stats field it must equal) pairs
_STATS_FIELDS = (("offered", "n_offered"), ("shed", "n_dropped"),
                 ("cache_hits", "n_cache_hits"), ("coalesced", "n_coalesced"),
                 ("completed", "n_completed"), ("failed", "n_failed"))


def _check(errors: List[str], what: str, trace_val, stats_val) -> None:
    if trace_val != stats_val:
        errors.append(f"{what}: trace says {trace_val}, "
                      f"stats say {stats_val}")


def reconcile(tracer, stats) -> MetricsRegistry:
    """Assert trace-derived totals equal the run's stats, exactly.

    Per model (when ``stats.models`` is present) and in aggregate, each
    :data:`_STATS_FIELDS` count must equal its stats field, and ``completed
    + shed + failed == offered`` must hold on the trace side. Returns
    :func:`registry_from_trace`'s registry; raises
    :exc:`ReconciliationError` naming every diverging series otherwise.
    """
    errors: List[str] = []

    def check_sample(label: str, counts: Dict[str, int], sample) -> None:
        for key, field in _STATS_FIELDS:
            _check(errors, f"{label} {key}", counts[key],
                   getattr(sample, field))
        conserved = (counts["completed"] + counts["shed"]
                     + counts["failed"])
        _check(errors, f"{label} conservation (completed+shed+failed)",
               conserved, counts["offered"])

    check_sample("aggregate", tracer.counts(), stats)
    for m, per in enumerate(stats.models or []):
        check_sample(f"model {m} ({per.name})", tracer.counts(m), per)
    if errors:
        raise ReconciliationError(
            "trace/stats reconciliation failed:\n  " + "\n  ".join(errors))
    return registry_from_trace(tracer)
