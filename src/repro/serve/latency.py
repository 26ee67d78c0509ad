"""Service-time model: batched inference latency on one KNL node.

Reuses the single-node iteration decomposition behind Fig 5
(:class:`repro.sim.perf_model.SingleNodePerf`) in forward-only mode — the
same kernel-efficiency roll-off that makes small minibatches slow in
training makes unbatched serving slow, which is the entire case for the
micro-batching scheduler. Request/response transport is priced with the
alpha-beta interconnect model (:mod:`repro.comm.cost_model`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.knl import KNLNodeModel
from repro.comm.cost_model import AlphaBetaModel, point_to_point_time
from repro.sim.perf_model import SingleNodePerf
from repro.sim.workload import Workload
from repro.utils.checks import require_count, require_real


class ServiceTimeModel:
    """Latency of one batched forward pass plus request transport.

    ``batch_time(b)`` is the replica-side service time for a batch of ``b``
    requests; ``request_rtt()`` is the per-request network cost of shipping
    the input to the replica's node and the (small) prediction back.
    """

    def __init__(self, workload: Workload,
                 node: Optional[KNLNodeModel] = None,
                 cost: Optional[AlphaBetaModel] = None,
                 dispatch_overhead: float = 5e-4,
                 response_bytes: int = 4096) -> None:
        # a NaN or infinite overhead would make every batch time NaN or
        # infinite: runs that "complete" with NaN latencies, or crash
        require_real("dispatch_overhead", dispatch_overhead, "[0, inf)")
        self.workload = workload
        self.node = node or KNLNodeModel()
        self.cost = cost or AlphaBetaModel()
        #: fixed per-batch overhead: kernel launch, de/serialization, framing
        self.dispatch_overhead = dispatch_overhead
        #: prediction payload (class scores / decoded boxes, not the recon)
        self.response_bytes = require_count("response_bytes", response_bytes,
                                            least=0)
        self._cache: Dict[int, float] = {}      # raw compute per batch size
        self._clamped: Dict[int, float] = {}    # monotone batch_time memo
        self._max_size = 0                      # largest size folded in
        self._running_max = 0.0                 # max raw compute <= _max_size

    def _raw_compute(self, batch: int) -> float:
        if batch not in self._cache:
            perf = SingleNodePerf(self.workload, batch, node=self.node,
                                  training=False)
            self._cache[batch] = perf.compute_time()
        return self._cache[batch]

    def batch_time(self, batch: int) -> float:
        """Seconds one replica spends serving a batch of ``batch`` requests.

        Forward-only compute from the Fig 5 model (eval mode: no solver
        update, and the input arrives over the wire rather than through the
        Lustre input pipeline, so neither overhead applies). The raw
        efficiency model can make a *larger* batch absolutely faster at tiny
        sizes (efficiency grows faster than work below the knee), which no
        real kernel does — clamp to the running max so wall time is
        nondecreasing in batch size.
        """
        t = self._clamped.get(batch)
        if t is None:
            # Memoized: this sits on the router's per-arrival hot path, so a
            # batch size is checked only when it misses the memo. The
            # running max is maintained incrementally — each new batch size
            # folds exactly one raw compute time into the clamp instead of
            # rescanning every smaller size.
            require_count("batch", batch)
            while self._max_size < batch:
                self._max_size += 1
                self._running_max = max(self._running_max,
                                        self._raw_compute(self._max_size))
                self._clamped[self._max_size] = (self.dispatch_overhead
                                                 + self._running_max)
            t = self._clamped[batch]
        return t

    def request_rtt(self) -> float:
        """Per-request transport: input to the node, prediction back."""
        in_bytes = self.workload.input_bytes(1)
        return (point_to_point_time(in_bytes, self.cost)
                + point_to_point_time(self.response_bytes, self.cost))

    def peak_throughput(self, max_batch: int) -> float:
        """Requests/second of one replica running full batches back to back."""
        return max_batch / self.batch_time(max_batch)

    def est_request_cost(self, max_batch: int) -> float:
        """Estimated service seconds one queued request represents:
        amortized full-batch time, ``batch_time(max_batch) / max_batch``.

        This is the unit the cost-aware router weighs backlogs in — an
        optimistic (steady-state, full batches) estimate, so relative
        cost across models (the ~140x HEP/climate gap) is what matters,
        not the absolute value."""
        return self.batch_time(max_batch) / max_batch


class PerModelServiceTime:
    """Service-time models of a multi-model fleet, indexed by model.

    One entry per registered model, in :class:`~repro.serve.registry.
    ModelProfile` order — HEP and climate have very different Fig 5
    forward curves, so a shared replica's batch time depends on *which*
    model the batch ran. The entries are duck-typed (anything with
    ``batch_time``/``request_rtt``/``peak_throughput``), which is what the
    property tests' fake services rely on.
    """

    def __init__(self, models) -> None:
        self.models = list(models)
        if not self.models:
            raise ValueError("need at least one service-time model")

    @classmethod
    def for_workloads(cls, workloads, node=None, cost=None,
                      dispatch_overhead: float = 5e-4,
                      response_bytes: int = 4096) -> "PerModelServiceTime":
        """Build one :class:`ServiceTimeModel` per workload on one node
        model and one interconnect cost model (the shared machine)."""
        return cls([ServiceTimeModel(w, node=node, cost=cost,
                                     dispatch_overhead=dispatch_overhead,
                                     response_bytes=response_bytes)
                    for w in workloads])

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, model: int):
        return self.models[model]

    def __iter__(self):
        return iter(self.models)

    def batch_time_fns(self):
        """Per-model ``batch_time`` callables, the router's wiring."""
        return [m.batch_time for m in self.models]

    def peak_throughput(self, model: int, max_batch: int) -> float:
        return self.models[model].peak_throughput(max_batch)

    def est_request_costs(self, max_batches) -> list:
        """Per-model estimated seconds per queued request (the router's
        ``model_costs``), each at its own policy's ``max_batch``.
        ``max_batches`` is one int per model."""
        return [m.batch_time(b) / b
                for m, b in zip(self.models, max_batches)]

    def min_request_seconds(self, rtts) -> list:
        """Per-model floor on end-to-end latency: a batch-of-one service
        time plus the request's transport RTT. No scheduler can answer
        below this — the autoscaler's doomed-request test."""
        return [m.batch_time(1) + r for m, r in zip(self.models, rtts)]
