"""The hybrid trainer: synchronous groups, asynchronous PS updates.

Each compute group has its own replica state and its own virtual clock. One
"group iteration" = compute the gradient of the group's minibatch (the
within-group all-reduce is an exact mean, so we evaluate it directly),
then push per-layer gradients to the PS registry and pull fresh weights —
asynchronously with respect to the other groups. ``n_groups=1`` degenerates
to fully synchronous training, which is the knob the paper turns (SIII-E).

On Cori each group runs on its own nodes; here the groups take turns on one
compute net. A group keeps only what it carries from one of its iterations
to the next — the weights it last pulled, its buffers (BatchNorm running
statistics) and its layers' random generators (Dropout's masks) — and that
state is copied into the compute net when the group's turn comes. So a run
holds one replica's activations, however many groups it simulates, and
every loss is the one a net per group would give.

Wall-clock semantics: real thread timing on a laptop says nothing about
Cori, so the trainer records *virtual* time — per-group iteration durations
drawn from the machine model (:mod:`repro.sim`) — alongside every loss
sample. Fig 8 plots loss against that virtual clock, and the groups are
co-simulated on it one iteration at a time: the group furthest behind runs
next, so a lagging group interleaves less often and its PS updates are
staler (the Fig 8 loss "jumps"), and a run is reproducible from its seed.
The SSP and elastic trainers add a gate to this schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sequential import Sequential
from repro.distributed.param_server import PSRegistry
from repro.train.loop import step
from repro.utils.checks import require_count, require_real
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


class _Run:
    """One ``run()``'s schedule state: per-group virtual clocks, completed
    iterations and traces, plus what the subclasses' gates record."""

    def __init__(self, n_groups: int, n_iterations: int) -> None:
        self.n_iterations = n_iterations
        self.traces = [GroupTrace(group=g) for g in range(n_groups)]
        self.clocks = [0.0] * n_groups
        self.done = [0] * n_groups
        self.waits = [0.0] * n_groups  # SSP: virtual time blocked
        self.blocked: List[int] = []   # SSP: held back at the last pick
        self.last = 0                  # SSP: the group picked last
        self.dead: Dict[int, float] = {}  # elastic: group -> failure time


def _generator_slots(module) -> List[Tuple[object, str]]:
    """``(module, attribute)`` of every random generator ``module`` and its
    children draw from (Dropout's masks), in one fixed walk order."""
    slots = [(module, key) for key, value in vars(module).items()
             if isinstance(value, np.random.Generator)]
    for child in module.children():
        slots += _generator_slots(child)
    return slots


class HybridTrainer:
    """Compute groups over a shared per-layer PS registry."""

    def __init__(self, net_factory: Callable[[], Sequential],
                 opt_factory, loss_fn, n_groups: int,
                 iteration_time_fn: Optional[Callable[[int], float]] = None,
                 seed: SeedLike = 0) -> None:
        """``net_factory()`` builds each group's replica, of which the
        trainer keeps one compute net (``nets[0]``) and every group's state;
        ``iteration_time_fn(group) -> seconds`` supplies virtual durations
        (defaults to 1.0 per iteration); ``loss_fn(net, x, y)`` as in
        :class:`SyncDataParallel`."""
        self.n_groups = require_count("n_groups", n_groups)
        self.loss_fn = loss_fn
        self.iteration_time_fn = iteration_time_fn or (lambda g: 1.0)
        net = net_factory()
        self.nets = [net]
        self._live = [arr for _, arr in net._state_items()]
        self._slots = _generator_slots(net)
        # Group g's state; the compute net holds group ``_held``'s, whose
        # entry here is stale until another group takes the net.
        self._replicas = [self._replica(net)] + [
            self._replica(net_factory()) for _ in range(1, self.n_groups)]
        self._held = 0
        # One PS per trainable layer, seeded from group 0's weights.
        self.registry = PSRegistry(net.trainable_layers(), opt_factory)
        self._rngs = spawn_rngs(seed, self.n_groups)

    def _replica(self, net: Sequential
                 ) -> Tuple[List[np.ndarray], List[np.random.Generator]]:
        """Copies of ``net``'s parameters and buffers, and its generators."""
        arrays = [arr.copy() for _, arr in net._state_items()]
        generators = [getattr(m, key) for m, key in _generator_slots(net)]
        if [(a.shape, a.dtype) for a in arrays] != \
                [(a.shape, a.dtype) for a in self._live] \
                or len(generators) != len(self._slots):
            raise ValueError("net_factory must build the same net for "
                             "every group")
        return arrays, generators

    def _hold(self, g: int) -> None:
        """Put group ``g``'s state into the compute net, after copying the
        held group's arrays out of it (its generators advance in place)."""
        if g == self._held:
            return
        for saved, live in zip(self._replicas[self._held][0], self._live):
            saved[...] = live
        arrays, generators = self._replicas[g]
        for live, saved in zip(self._live, arrays):
            live[...] = saved
        for (m, key), generator in zip(self._slots, generators):
            setattr(m, key, generator)
        self._held = g

    def run(self, x: np.ndarray, y: np.ndarray, group_batch: int,
            n_iterations: int, drift: Optional[Sequence[float]] = None
            ) -> HybridTrainResult:
        """Train: each group runs ``n_iterations`` over random minibatches of
        ``group_batch`` samples. ``drift`` optionally scales each group's
        iteration duration (a lagging group, paper SVIII-A); ``None`` is
        uniform."""
        n = x.shape[0]
        if require_count("group_batch", group_batch) > n:
            raise ValueError(
                f"group_batch must be in [1, {n}], got {group_batch}")
        n_iterations = require_count("n_iterations", n_iterations)
        if drift is None:
            drift = [1.0] * self.n_groups
        drift = [require_real("drift", d, "[0, inf)") for d in drift]
        if len(drift) != self.n_groups:
            raise ValueError("drift needs one factor per group")
        run = _Run(self.n_groups, n_iterations)
        net = self.nets[0]
        layers = net.trainable_layers()
        versions = []
        for g in range(self.n_groups):
            self._hold(g)
            versions.append(self.registry.pull_into(layers))
        while (g := self._next(run)) is not None:
            self._hold(g)
            idx = self._rngs[g].choice(n, size=group_batch, replace=False)
            loss = step(net, self.loss_fn, x[idx], y[idx])
            # Within-group all-reduce is exact (mean over the group batch
            # already); push to the PSs, pull fresh weights.
            versions[g] = self.registry.push_from(layers, versions[g],
                                                  group=g)
            seconds = require_real(f"iteration_time_fn({g})",
                                   self.iteration_time_fn(g), "[0, inf)")
            run.clocks[g] += seconds * drift[g]
            run.done[g] += 1
            run.traces[g].times.append(run.clocks[g])
            run.traces[g].losses.append(loss)
        # Between runs the compute net is group 0's replica.
        self._hold(0)
        return self._result(run)

    def _next(self, run: _Run) -> Optional[int]:
        """The group that runs the next iteration (``None``: the run is
        over): of the groups still running, the one furthest behind in
        virtual time, ties to the lower index. Subclasses gate it."""
        ready = [g for g in range(self.n_groups)
                 if run.done[g] < run.n_iterations and g not in run.dead]
        return min(ready, key=lambda g: (run.clocks[g], g), default=None)

    def _result(self, run: _Run) -> HybridTrainResult:
        return HybridTrainResult(traces=run.traces,
                                 staleness=self.registry.all_staleness(),
                                 n_groups=self.n_groups)
