"""Frozen pre-optimization serving core, kept as the behavioral oracle.

The heap-based :class:`repro.serve.router.Router` and the incremental
:meth:`~repro.serve.latency.ServiceTimeModel.batch_time` clamp are claimed
to be *behavior-identical* rewrites of the original O(R)-per-arrival code —
a claim worth enforcing, not assuming. This module preserves the original
implementations verbatim in semantics:

- :class:`LinearRouter` — routing by advancing every replica queue at
  every arrival and linearly scanning backlogs (the pre-PR ``submit`` /
  ``remove_replica``);
- :class:`LinearServiceTimeModel` — the monotone batch-time clamp that
  rescans every smaller batch size on each new size;
- :class:`LinearServingSimulator` / :class:`LinearAutoscalingSimulator` —
  the simulators wired to the above, with the original per-arrival
  ``float(numpy_scalar)`` drive loop.

It also holds :class:`EventLoopSimulator`, the current simulator pinned to
its object event loop: no caller picks an engine, so the engine
differential tests and the router benchmarks reach the event loop through
this subclass alone.

``tests/test_serve_cache_properties.py`` pins the optimized path
bit-identical to this one across random traces (including live scaling and
failures), and ``benchmarks/test_serve_cache.py`` times the two on a
100k-request trace — the >=5x wall-clock claim is measured against this
module, not remembered from a previous checkout.

Do not "fix" or optimize this code: its value is that it stays exactly as
slow and exactly as correct as the original.
"""

from __future__ import annotations

from typing import List

from repro.serve.latency import ServiceTimeModel
from repro.serve.router import ReplicaHandle, Router
from repro.serve.slo_sim import ServingSimulator
from repro.serve.autoscale import AutoscalingSimulator
from repro.utils.checks import require_count


class LinearRouter(Router):
    """The pre-PR router: O(R) advance-and-scan at every arrival.

    Inherits placement, fleet bookkeeping, failure handling, and the
    commit hook from :class:`Router` (none of which changed); overrides
    exactly the two methods the heap rewrite touched. The incremental
    counters the base class maintains are left to go stale — nothing here
    reads them.
    """

    @staticmethod
    def _least_loaded_scan(replicas: List[ReplicaHandle],
                           t: float) -> ReplicaHandle:
        # Ties broken by replica index for determinism.
        return min(replicas, key=lambda r: (r.queue.outstanding(t), r.index))

    def _full_scan(self, replica: ReplicaHandle, t: float) -> bool:
        return replica.queue.outstanding(t) >= self._limits[0]

    def submit(self, t: float, request_id: int, model: int = 0) -> bool:
        # ``model`` passes through to the queue lane (always 0 on the
        # pre-multi-model single-model runs this oracle is kept for).
        self.n_offered += 1
        if not self.replicas:
            return self._shed(request_id)
        for r in self.replicas:
            r.queue.advance(t)
        replica = self._least_loaded_scan(self.replicas, t)
        if self._full_scan(replica, t):
            open_replicas = [r for r in self.replicas
                             if not self._full_scan(r, t)]
            if not open_replicas:
                return self._shed(request_id)
            replica = self._least_loaded_scan(open_replicas, t)
        replica.queue.push(t, request_id, model)
        return True

    _admit = submit         # the drive loops' entry: the pre-PR submit

    def remove_replica(self, t: float, pos=None) -> ReplicaHandle:
        if len(self.replicas) <= 1:
            raise ValueError("cannot remove the last replica")
        for r in self.replicas:
            r.queue.advance(t)
        if pos is None:
            pos = min(range(len(self.replicas)),
                      key=lambda p: (self.replicas[p].queue.outstanding(t),
                                     -self.replicas[p].index))
        replica = self.replicas.pop(pos)
        self._live.pop(replica.index, None)   # keep base fail/peek coherent
        for _, rid, model in replica.queue.evict_queued(t):
            self._least_loaded_scan(self.replicas, t).queue.push(t, rid,
                                                                 model)
        self.retired.append(replica)
        return replica


class LinearServiceTimeModel(ServiceTimeModel):
    """The pre-PR monotone clamp: re-derive the running max from scratch
    for every new batch size (O(B) per size on the per-arrival hot path)."""

    def batch_time(self, batch: int) -> float:
        require_count("batch", batch)
        if batch not in self._clamped:
            t = max(self._raw_compute(b) for b in range(1, batch + 1))
            self._clamped[batch] = self.dispatch_overhead + t
        return self._clamped[batch]


class LinearServingSimulator(ServingSimulator):
    """:class:`ServingSimulator` on the pre-PR hot path (no cache support:
    this is the *pre-cache* simulator the ``cache_size=0`` differential
    compares against)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.cache_size != 0:
            raise ValueError(
                "the reference simulator predates the result cache; "
                "run it with cache_size=0")
        if self.models is not None or self.coalesce:
            raise ValueError(
                "the reference simulator predates multi-model serving "
                "and request coalescing; run it single-model")
        # Swap the default service model for the pre-PR rescanning clamp;
        # duck-typed stand-ins (the tests' FakeService) pass through.
        if type(self.service) is ServiceTimeModel:
            self.services.models[0] = LinearServiceTimeModel(
                self.workload, node=self.machine.node,
                cost=self.machine.network.cost,
                dispatch_overhead=self.service.dispatch_overhead,
                response_bytes=self.service.response_bytes)

    def _make_router(self, on_commit=None, tracer=None) -> Router:
        return LinearRouter(self.machine, self.n_replicas, [self.policy],
                            [self.service.batch_time],
                            limits=self.admission_limits(),
                            on_commit=on_commit)

    def _drive(self, run, router: Router) -> None:
        # pre-PR: np scalars, float() each
        for i, t in enumerate(run.arrivals):
            router.submit(float(t), i)


class LinearAutoscalingSimulator(AutoscalingSimulator):
    """:class:`AutoscalingSimulator` routed through :class:`LinearRouter`,
    so the heap rewrite is pinned under live scale-out/in and failures too
    (the control loop itself is unchanged and stays shared)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.models is not None or self.coalesce:
            raise ValueError(
                "the reference simulator predates multi-model serving "
                "and request coalescing; run it single-model")

    _make_router = LinearServingSimulator._make_router


class EventLoopSimulator(ServingSimulator):
    """:class:`ServingSimulator` that always runs the object event loop,
    even on a configuration the array core supports."""

    _drive = ServingSimulator._drive_events
