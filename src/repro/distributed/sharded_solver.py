"""Sharded-solver data parallelism (reduce-scatter + all-gather).

Fig 5a attributes 12.5% of the HEP iteration to the ADAM update — work
every data-parallel rank repeats identically on the full parameter vector.
The reduce-scatter collective MLSL exposes enables the standard fix (today
marketed as ZeRO-1/FSDP optimizer sharding): reduce-scatter the gradient so
each rank owns 1/p of the summed gradient, run the solver on that shard
only, then all-gather the updated weights. Solver time and solver state
shrink by p; the byte traffic is identical to a ring all-reduce (which IS
reduce-scatter + all-gather).

:class:`ShardedSolverDataParallel` runs exactly those two collectives over
the thread communicator (``Reduce_scatter`` into its shard's gradient,
``Allgather`` of the updated shards, 4 barriers a step) and is
step-for-step equivalent to :class:`~repro.distributed.sync.SyncDataParallel`
(tested); the :func:`solver_time_saving` helper quantifies the Fig 5
implication.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.comm.communicator import Communicator, ThreadWorld, shard_bounds
from repro.core.parameter import Parameter
from repro.core.sequential import Sequential
from repro.distributed.flatten import (
    flatten_grads,
    flatten_params,
    unflatten_into,
)
from repro.distributed.sync import SyncDataParallel
from repro.optim.base import Optimizer
from repro.utils.checks import require_count, require_real


class ShardedSolverDataParallel(SyncDataParallel):
    """Data parallelism with the solver state sharded across ranks.

    Same factory interface as :class:`SyncDataParallel`, except
    ``opt_factory`` receives a list holding one flat :class:`Parameter`
    (the rank's shard), so any optimizer in :mod:`repro.optim` works
    unmodified — its state arrays are simply 1/p of the full model.
    """

    def __init__(self, world: ThreadWorld,
                 net_factory: Callable[[], Sequential],
                 opt_factory: Callable[[List[Parameter]], Optimizer],
                 loss_fn) -> None:
        # The solvers step the flat shards built below, not a replica.
        super().__init__(world, net_factory, lambda net: None, loss_fn)
        self._total = sum(p.size for p in self.nets[0].params())
        flat0 = flatten_params(self.nets[0].params())
        self._shards: List[Parameter] = []
        self.opts: List[Optimizer] = []
        for r in range(world.size):
            lo, hi = shard_bounds(self._total, world.size, r)
            shard = Parameter(flat0[lo:hi].copy(), name=f"flat_shard{r}")
            self._shards.append(shard)
            self.opts.append(opt_factory([shard]))

    def solver_state_fraction(self) -> float:
        """Per-rank solver-state size relative to the unsharded solver."""
        return 1.0 / self.world.size

    def _update(self, comm: Communicator, rank: int) -> None:
        """Reduce-scatter the gradient into this rank's shard, step the
        shard's solver, then all-gather every rank's updated shard into
        the replica (2 + 2 barriers)."""
        net, shard = self.nets[rank], self._shards[rank]
        comm.Reduce_scatter(flatten_grads(net.params()), shard.grad)
        shard.grad /= comm.size  # average of shard-mean gradients
        self.opts[rank].step()
        updated = np.empty(self._total, dtype=np.float32)
        comm.Allgather(shard.data, updated)
        unflatten_into(updated, net.params(), target="data")


def solver_time_saving(solver_time: float, p: int) -> float:
    """Per-iteration solver time saved by sharding across ``p`` ranks."""
    require_real("solver_time", solver_time, "[0, inf)")
    p = require_count("p", p)
    return solver_time * (1.0 - 1.0 / p)
