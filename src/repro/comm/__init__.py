"""In-process MPI-like communication substrate (the MLSL/MPI substitute).

Two halves:

- **execution** (:mod:`repro.comm.communicator`): mpi4py-idiom communicators
  (``Allreduce``/``Reduce``/``Reduce_scatter``/``Allgather``/``Bcast``/
  ``Send``/``Recv``/``Split``) backed by threads and shared memory, used by
  the *real* distributed trainers and :mod:`repro.comm.model_parallel`;
  :func:`shard_bounds` is the one rule that splits a buffer over ranks;
- **modeling** (:mod:`repro.comm.collectives`, :mod:`repro.comm.cost_model`):
  reference collective algorithms with step/byte accounting and alpha-beta
  time models, used by the *simulated* at-scale runs (Figs 6-7).
"""

from repro.comm.communicator import (
    MAX,
    MIN,
    PROD,
    SUM,
    Communicator,
    ThreadWorld,
    shard_bounds,
)
from repro.comm.collectives import (
    allgather_ring,
    allreduce_rabenseifner,
    allreduce_ring,
    alltoall,
    bcast_binomial,
    reduce_binomial,
    reduce_scatter_ring,
)
from repro.comm.model_parallel import (
    ColumnParallelDense,
    RowParallelDense,
    SpatialParallelConv2D,
    data_parallel_grad_bytes,
    halo_exchange,
    model_parallel_activation_bytes,
)
from repro.comm.cost_model import (
    AlphaBetaModel,
    allreduce_time,
    bcast_time,
    point_to_point_time,
    reduce_time,
)

__all__ = [
    "Communicator",
    "ThreadWorld",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "shard_bounds",
    "allreduce_ring",
    "allreduce_rabenseifner",
    "allgather_ring",
    "bcast_binomial",
    "reduce_binomial",
    "reduce_scatter_ring",
    "alltoall",
    "ColumnParallelDense",
    "RowParallelDense",
    "SpatialParallelConv2D",
    "halo_exchange",
    "data_parallel_grad_bytes",
    "model_parallel_activation_bytes",
    "AlphaBetaModel",
    "allreduce_time",
    "bcast_time",
    "reduce_time",
    "point_to_point_time",
]
