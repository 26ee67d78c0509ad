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
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
        return self.lr * self.gamma ** (iteration // self.step_size)


class ExponentialDecayLR:
    """lr * decay^(iteration / decay_steps), continuous exponential decay."""

    def __init__(self, lr: float, decay: float, decay_steps: int) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0 < decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if decay_steps <= 0:
            raise ValueError(f"decay_steps must be positive, got {decay_steps}")
        self.lr = lr
        self.decay = decay
        self.decay_steps = decay_steps

    def __call__(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
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
        if warmup_iters <= 0:
            raise ValueError(
                f"warmup_iters must be positive, got {warmup_iters}")
        if not 0 <= start_factor < 1:
            raise ValueError(
                f"start_factor must be in [0, 1), got {start_factor}")
        self.base = base
        self.warmup_iters = warmup_iters
        self.start_factor = start_factor

    def __call__(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(
                f"iteration must be non-negative, got {iteration}")
        target = self.base(iteration)
        if iteration >= self.warmup_iters:
            return target
        frac = iteration / self.warmup_iters
        scale = self.start_factor + (1.0 - self.start_factor) * frac
        return target * scale
