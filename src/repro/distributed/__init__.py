"""Real distributed training — the execution half of the hybrid
architecture (paper SIII-D/E). Every trainer computes its gradients with
:func:`repro.train.step` and differs only in what it does with them.

- :class:`SyncDataParallel` — MLSL-style synchronous data parallelism, one
  thread per rank of a :class:`repro.comm.ThreadWorld` (all-reduced
  gradients, lock-step updates); :class:`ShardedSolverDataParallel` swaps
  the all-reduce for reduce-scatter, a solver shard and all-gather;
- :class:`ParameterServer` / :class:`PSRegistry` — one PS per trainable
  layer, applying solver updates in arrival order with staleness tracking;
- :class:`HybridTrainer` — compute groups co-simulated on a virtual clock:
  synchronous within a group, asynchronous across groups through the
  per-layer PSs; :class:`SSPTrainer` and :class:`ElasticHybridTrainer` run
  the same schedule under a staleness bound or a failure schedule;
- :mod:`repro.distributed.staleness` — staleness statistics and their
  momentum interpretation.

These trainers run *real* SGD/ADAM on real (scaled-down) data — they produce
the statistical-efficiency half of Fig 8; the wall-clock axis comes from
:mod:`repro.sim`.
"""

from repro.distributed.flatten import flatten_grads, flatten_params, unflatten_into
from repro.distributed.sync import SyncDataParallel, SyncTrainResult
from repro.distributed.param_server import ParameterServer, PSRegistry, PSUpdateRecord
from repro.distributed.hybrid import GroupTrace, HybridTrainer, HybridTrainResult
from repro.distributed.ssp import SSPTrainer, SSPTrainResult
from repro.distributed.elastic import (
    ElasticHybridTrainer,
    ElasticTrainResult,
    sync_run_with_failure,
)
from repro.distributed.sharded_solver import (
    ShardedSolverDataParallel,
    shard_bounds,
    solver_time_saving,
)
from repro.distributed.staleness import StalenessStats, staleness_stats

__all__ = [
    "flatten_params",
    "flatten_grads",
    "unflatten_into",
    "SyncDataParallel",
    "SyncTrainResult",
    "ParameterServer",
    "PSRegistry",
    "PSUpdateRecord",
    "HybridTrainer",
    "HybridTrainResult",
    "SSPTrainer",
    "SSPTrainResult",
    "ElasticHybridTrainer",
    "ElasticTrainResult",
    "sync_run_with_failure",
    "ShardedSolverDataParallel",
    "shard_bounds",
    "solver_time_saving",
    "GroupTrace",
    "StalenessStats",
    "staleness_stats",
]
