"""The hybrid trainer: synchronous groups, asynchronous PS updates.

Each compute group runs in its own thread with its own model replica. One
"group iteration" = compute the gradient of the group's minibatch (the
within-group all-reduce is an exact mean, so we evaluate it directly),
then push per-layer gradients to the PS registry and pull fresh weights —
asynchronously with respect to the other groups. ``n_groups=1`` degenerates
to fully synchronous training, which is the knob the paper turns (SIII-E).

Wall-clock semantics: real thread timing on a laptop says nothing about
Cori, so the trainer records *virtual* time — per-group iteration durations
drawn from the machine model (:mod:`repro.sim`) — alongside every loss
sample. Fig 8 plots loss against that virtual clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sequential import Sequential
from repro.distributed.param_server import PSRegistry
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass
class GroupTrace:
    """Per-group training trace: (virtual time, loss) samples."""

    group: int
    times: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)

    def time_to_loss(self, target: float) -> Optional[float]:
        """First virtual time at which the running loss drops to ``target``."""
        for t, l in zip(self.times, self.losses):
            if l <= target:
                return t
        return None


@dataclass
class HybridTrainResult:
    traces: List[GroupTrace]
    staleness: np.ndarray
    n_groups: int

    def merged_curve(self, smooth: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Global loss curve: all groups' samples merged in time order."""
        pairs = sorted(
            (t, l) for tr in self.traces for t, l in zip(tr.times, tr.losses))
        if not pairs:
            return np.zeros(0), np.zeros(0)
        times = np.array([p[0] for p in pairs])
        losses = np.array([p[1] for p in pairs])
        if smooth > 1:
            # Edge-corrected moving average: divide by the number of real
            # samples in each window, not the window size (zero-padding
            # would bias the curve's endpoints low).
            kernel = np.ones(smooth)
            sums = np.convolve(losses, kernel, mode="same")
            counts = np.convolve(np.ones_like(losses), kernel, mode="same")
            losses = sums / counts
        return times, losses

    def time_to_loss(self, target: float, smooth: int = 5
                     ) -> Optional[float]:
        times, losses = self.merged_curve(smooth=smooth)
        hits = np.nonzero(losses <= target)[0]
        return float(times[hits[0]]) if hits.size else None


class HybridTrainer:
    """Compute groups over a shared per-layer PS registry."""

    def __init__(self, net_factory: Callable[[], Sequential],
                 opt_factory, loss_fn, n_groups: int,
                 iteration_time_fn: Optional[Callable[[int], float]] = None,
                 seed: SeedLike = 0) -> None:
        """``iteration_time_fn(group) -> seconds`` supplies virtual durations
        (defaults to 1.0 per iteration); ``loss_fn(net, x, y)`` as in
        :class:`SyncDataParallel`."""
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        self.n_groups = n_groups
        self.loss_fn = loss_fn
        self.iteration_time_fn = iteration_time_fn or (lambda g: 1.0)
        self.nets = [net_factory() for _ in range(n_groups)]
        # One PS per trainable layer, seeded from replica 0's weights.
        self.registry = PSRegistry(self.nets[0].trainable_layers(),
                                   opt_factory)
        self._rngs = spawn_rngs(seed, n_groups)

    def _make_step(self, traces, x, y, group_batch, drift):
        """Build the one-iteration closure used by the virtual scheduler."""
        n = x.shape[0]
        layers = [net.trainable_layers() for net in self.nets]
        versions = [self.registry.pull_into(layers[g])
                    for g in range(self.n_groups)]
        clocks = [0.0] * self.n_groups

        def step(g: int) -> float:
            rng = self._rngs[g]
            net = self.nets[g]
            idx = rng.choice(n, size=group_batch, replace=False)
            net.zero_grad()
            loss, grad_out = self.loss_fn(net, x[idx], y[idx])
            net.backward(grad_out, input_grad=False)
            versions[g] = self.registry.push_from(layers[g], versions[g],
                                                  group=g)
            clocks[g] += self.iteration_time_fn(g) * drift[g]
            traces[g].times.append(clocks[g])
            traces[g].losses.append(loss)
            return clocks[g]

        return step

    def _run_virtual(self, group_worker_step, n_iterations: int) -> None:
        """Advance groups in virtual-time order, one iteration at a time."""
        import heapq

        done = [0] * self.n_groups
        heap = [(0.0, g) for g in range(self.n_groups)]
        heapq.heapify(heap)
        while heap:
            _t, g = heapq.heappop(heap)
            new_t = group_worker_step(g)
            done[g] += 1
            if done[g] < n_iterations:
                heapq.heappush(heap, (new_t, g))

    def run(self, x: np.ndarray, y: np.ndarray, group_batch: int,
            n_iterations: int, drift: Optional[Sequence[float]] = None
            ) -> HybridTrainResult:
        """Train: each group runs ``n_iterations`` over random minibatches of
        ``group_batch`` samples. ``drift`` optionally scales each group's
        iteration duration (a lagging group, paper SVIII-A)."""
        n = x.shape[0]
        if group_batch <= 0 or group_batch > n:
            raise ValueError(
                f"group_batch must be in [1, {n}], got {group_batch}")
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        use_virtual_schedule = drift is not None
        if drift is None:
            drift = [1.0] * self.n_groups
        if len(drift) != self.n_groups:
            raise ValueError("drift needs one factor per group")
        traces = [GroupTrace(group=g) for g in range(self.n_groups)]
        errors: List = []

        def group_worker(g: int) -> None:
            try:
                net = self.nets[g]
                rng = self._rngs[g]
                layers = net.trainable_layers()
                versions = self.registry.pull_into(layers)
                clock = 0.0
                for _ in range(n_iterations):
                    idx = rng.choice(n, size=group_batch, replace=False)
                    net.zero_grad()
                    loss, grad_out = self.loss_fn(net, x[idx], y[idx])
                    net.backward(grad_out, input_grad=False)
                    # Within-group all-reduce is exact (mean over the group
                    # batch already); push to the PSs, pull fresh weights.
                    versions = self.registry.push_from(layers, versions,
                                                       group=g)
                    clock += self.iteration_time_fn(g) * drift[g]
                    traces[g].times.append(clock)
                    traces[g].losses.append(loss)
            except Exception as exc:
                errors.append((g, exc))
                raise

        if use_virtual_schedule:
            # Deterministic virtual-time co-simulation: always advance the
            # group whose clock is furthest behind. This is how drift gets
            # real semantics — a lagging group genuinely interleaves less
            # often, so its PS updates really are staler (the Fig 8 loss
            # "jumps" mechanism).
            self._run_virtual(group_worker_step=self._make_step(
                traces, x, y, group_batch, drift), n_iterations=n_iterations)
        elif self.n_groups == 1:
            group_worker(0)
        else:
            threads = [threading.Thread(target=group_worker, args=(g,),
                                        daemon=True)
                       for g in range(self.n_groups)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            g, exc = errors[0]
            raise RuntimeError(f"group {g} failed: {exc!r}") from exc
        return HybridTrainResult(traces=traces,
                                 staleness=self.registry.all_staleness(),
                                 n_groups=self.n_groups)
