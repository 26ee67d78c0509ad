"""Learning-rate schedules."""

from __future__ import annotations

from repro.utils.checks import require_count, require_real


class ConstantLR:
    def __init__(self, lr: float) -> None:
        self.lr = require_real("lr", lr, "(0, inf)")

    def __call__(self, iteration: int) -> float:
        return self.lr


class StepLR:
    """Multiply the LR by ``gamma`` every ``step_size`` iterations."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1) -> None:
        self.lr = require_real("lr", lr, "(0, inf)")
        self.step_size = require_count("step_size", step_size)
        self.gamma = require_real("gamma", gamma, "(0, 1]")

    def __call__(self, iteration: int) -> float:
        require_count("iteration", iteration, least=0)
        return self.lr * self.gamma ** (iteration // self.step_size)


class ExponentialDecayLR:
    """lr * decay^(iteration / decay_steps), continuous exponential decay."""

    def __init__(self, lr: float, decay: float, decay_steps: int) -> None:
        self.lr = require_real("lr", lr, "(0, inf)")
        self.decay = require_real("decay", decay, "(0, 1]")
        self.decay_steps = require_count("decay_steps", decay_steps)

    def __call__(self, iteration: int) -> float:
        require_count("iteration", iteration, least=0)
        return self.lr * self.decay ** (iteration / self.decay_steps)


class WarmupLR:
    """Linear warmup into any base schedule (Goyal et al.'s large-batch fix).

    Large synchronous batches destabilize early training (the paper's SII-B1a
    convergence concern); ramping the LR linearly over the first
    ``warmup_iters`` iterations is the standard mitigation and composes with
    any of the schedules here::

        sched = WarmupLR(StepLR(0.1, step_size=100), warmup_iters=20)
    """

    def __init__(self, base, warmup_iters: int,
                 start_factor: float = 0.1) -> None:
        self.base = base
        self.warmup_iters = require_count("warmup_iters", warmup_iters)
        self.start_factor = require_real("start_factor", start_factor,
                                         "[0, 1)")

    def __call__(self, iteration: int) -> float:
        require_count("iteration", iteration, least=0)
        target = self.base(iteration)
        if iteration >= self.warmup_iters:
            return target
        frac = iteration / self.warmup_iters
        scale = self.start_factor + (1.0 - self.start_factor) * frac
        return target * scale
