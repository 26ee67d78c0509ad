"""Synchronous data-parallel training over a thread world (paper SIII-D).

Each rank holds a model replica (identically initialized), computes gradients
on its shard of the global minibatch, all-reduces the flat gradient, and
applies the same solver update — the replicas stay bit-identical, exactly
like MLSL-driven IntelCaffe. The key invariant (tested): a p-way sync step
equals a single-process step on the concatenated batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.comm.communicator import Communicator, ThreadWorld
from repro.core.sequential import Sequential
from repro.distributed.flatten import flatten_grads, unflatten_into
from repro.optim.base import Optimizer
from repro.train.loop import step
from repro.utils.checks import require_count


@dataclass
class SyncTrainResult:
    losses: List[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no iterations recorded")
        return self.losses[-1]


class SyncDataParallel:
    """Synchronous data-parallel trainer.

    ``net_factory``/``opt_factory`` build identical replicas per rank (same
    seeds inside the factory!). ``loss_fn(net, x, y) -> (loss, grad_out)``
    computes the loss and the gradient w.r.t. the net output; the trainer
    handles backward, all-reduce and the update.
    """

    def __init__(self, world: ThreadWorld,
                 net_factory: Callable[[], Sequential],
                 opt_factory: Callable[[Sequential], Optimizer],
                 loss_fn) -> None:
        self.world = world
        self.nets = [net_factory() for _ in range(world.size)]
        self.opts = [opt_factory(net) for net in self.nets]
        self.loss_fn = loss_fn
        # Replicas must start identical.
        ref = self.nets[0].state_dict()
        for net in self.nets[1:]:
            net.load_state_dict(ref)

    @property
    def net(self) -> Sequential:
        """Rank-0 replica (all replicas are identical after each step)."""
        return self.nets[0]

    def _update(self, comm: Communicator, rank: int) -> None:
        """Exchange this rank's gradient with the others and update its
        replica: all-reduce, then the solver step."""
        params = self.nets[rank].params()
        flat = flatten_grads(params)
        reduced = np.empty_like(flat)
        comm.Allreduce(flat, reduced)
        reduced /= comm.size  # average of shard-mean gradients
        unflatten_into(reduced, params, target="grad")
        self.opts[rank].step()

    def _worker(self, rank: int, x: np.ndarray, y: np.ndarray,
                n_iterations: int, losses: List[List[float]],
                errors: List) -> None:
        comm = self.world.comm(rank)
        n = x.shape[0]
        shard = n // comm.size
        try:
            for it in range(n_iterations):
                # Iterations cycle through the data, shifted one shard per
                # iteration so ranks see different samples.
                idx = (np.arange(shard) + (it + rank) * shard) % n
                losses[rank].append(
                    step(self.nets[rank], self.loss_fn, x[idx], y[idx]))
                self._update(comm, rank)
        except Exception as exc:  # propagate to the caller
            errors.append((rank, exc))
            # The other ranks would wait forever on this one's contribution.
            comm.Abort()

    def run(self, x: np.ndarray, y: np.ndarray,
            n_iterations: int) -> SyncTrainResult:
        """Train for ``n_iterations``; the global batch is split evenly
        across ranks each iteration (samples cycle through ``x``)."""
        p = self.world.size
        n = x.shape[0]
        if n < p:
            raise ValueError(f"batch of {n} cannot be split over {p} ranks")
        n_iterations = require_count("n_iterations", n_iterations)
        losses: List[List[float]] = [[] for _ in range(p)]
        errors: List = []
        threads = [
            threading.Thread(target=self._worker,
                             args=(r, x, y, n_iterations, losses, errors),
                             daemon=True)
            for r in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            # The failing rank records its error before it aborts, so the
            # first entry is the cause, not a peer's broken barrier.
            rank, exc = errors[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        mean_losses = [float(np.mean([losses[r][i] for r in range(p)]))
                       for i in range(n_iterations)]
        return SyncTrainResult(losses=mean_losses, iterations=n_iterations)
