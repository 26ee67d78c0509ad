"""Hyper-parameter search (the Spearmint stand-in, paper SVIII-B).

The paper: "With hyper-parameter tuning taken care of, higher-level
libraries such as Spearmint [49] can be used for automating the search" —
and stresses that hybrid schemes "add an extra parameter to be tuned"
(the group count), motivating principled tuning.

:func:`random_search` draws configurations from a declarative space and
returns the best; it is enough to automate the paper's (groups, momentum,
learning-rate) sweep, and deliberately has Spearmint's interface shape
(space -> objective -> best observed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: a dimension is either an explicit choice list or a (lo, hi, "linear" |
#: "log") continuous range
Dimension = Union[Sequence, Tuple[float, float, str]]


@dataclass
class Trial:
    config: Dict[str, Any]
    value: float


@dataclass
class SearchResult:
    trials: List[Trial] = field(default_factory=list)

    @property
    def best(self) -> Trial:
        if not self.trials:
            raise ValueError("no trials recorded")
        return min(self.trials, key=lambda t: t.value)

    def top(self, k: int = 3) -> List[Trial]:
        return sorted(self.trials, key=lambda t: t.value)[:k]


def _sample(dim: Dimension, rng: np.random.Generator):
    if isinstance(dim, tuple) and len(dim) == 3 and dim[2] in ("linear",
                                                               "log"):
        lo, hi, scale = dim
        # a log range needs positive bounds
        require_real("lo", lo, "(0, inf)" if scale == "log" else "(-inf, inf)")
        if require_real("hi", hi, "(-inf, inf)") <= lo:
            raise ValueError(f"empty range ({lo}, {hi})")
        if scale == "log":
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        return float(rng.uniform(lo, hi))
    if isinstance(dim, Sequence) and len(dim) > 0:
        return dim[int(rng.integers(0, len(dim)))]
    raise ValueError(f"invalid dimension spec: {dim!r}")


def random_search(space: Dict[str, Dimension],
                  objective: Callable[[Dict[str, Any]], float],
                  n_trials: int, seed: SeedLike = 0) -> SearchResult:
    """Minimize ``objective`` over ``n_trials`` random draws from ``space``.

    The objective receives a config dict and returns a scalar to minimize
    (e.g. time-to-loss, final validation loss).
    """
    require_count("n_trials", n_trials)
    if not space:
        raise ValueError("search space is empty")
    rng = as_rng(seed)
    result = SearchResult()
    for _ in range(n_trials):
        config = {name: _sample(dim, rng) for name, dim in space.items()}
        value = float(objective(config))
        result.trials.append(Trial(config=config, value=value))
    return result


def _encode(config: Dict[str, Any], space: Dict[str, Dimension]
            ) -> np.ndarray:
    """Map a config onto the unit cube (log dims in log space, choices as
    ordinals). This is the GP's input representation."""
    coords = []
    for name, dim in space.items():
        v = config[name]
        if isinstance(dim, tuple) and len(dim) == 3 and dim[2] in ("linear",
                                                                   "log"):
            lo, hi, scale = dim
            if scale == "log":
                coords.append((np.log(v) - np.log(lo))
                              / (np.log(hi) - np.log(lo)))
            else:
                coords.append((v - lo) / (hi - lo))
        else:
            idx = list(dim).index(v)
            coords.append(idx / max(len(dim) - 1, 1))
    return np.asarray(coords, dtype=np.float64)


def _gp_posterior(x_train: np.ndarray, y_train: np.ndarray,
                  x_query: np.ndarray, length_scale: float,
                  noise: float) -> tuple:
    """GP posterior mean/std with an RBF kernel (the Spearmint surrogate)."""
    import scipy.linalg as sla

    def rbf(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-0.5 * d2 / length_scale**2)

    k_tt = rbf(x_train, x_train) + noise * np.eye(len(x_train))
    k_tq = rbf(x_train, x_query)
    k_qq_diag = np.ones(len(x_query))
    cho = sla.cho_factor(k_tt)
    alpha = sla.cho_solve(cho, y_train)
    mean = k_tq.T @ alpha
    v = sla.cho_solve(cho, k_tq)
    var = np.maximum(k_qq_diag - (k_tq * v).sum(axis=0), 1e-12)
    return mean, np.sqrt(var)


def _expected_improvement(mean: np.ndarray, std: np.ndarray,
                          best: float) -> np.ndarray:
    """EI for minimization."""
    from scipy.stats import norm

    z = (best - mean) / std
    return (best - mean) * norm.cdf(z) + std * norm.pdf(z)


def bayes_search(space: Dict[str, Dimension],
                 objective: Callable[[Dict[str, Any]], float],
                 n_trials: int, n_init: int = 5, n_candidates: int = 256,
                 length_scale: float = 0.25, seed: SeedLike = 0
                 ) -> SearchResult:
    """GP-with-expected-improvement search — the Spearmint [49] algorithm.

    The first ``n_init`` trials are random; each later trial fits a GP
    surrogate (RBF kernel on the unit-cube encoding, standardized
    observations) to all previous trials and evaluates the candidate with
    the highest expected improvement among ``n_candidates`` random draws.
    Returns the same :class:`SearchResult` as :func:`random_search`, so the
    two are drop-in comparable at equal budget.
    """
    require_count("n_trials", n_trials)
    require_count("n_init", n_init)
    require_count("n_candidates", n_candidates)
    require_real("length_scale", length_scale, "(0, inf)")
    if not space:
        raise ValueError("search space is empty")
    rng = as_rng(seed)
    result = SearchResult()
    encoded: List[np.ndarray] = []

    def evaluate(config: Dict[str, Any]) -> None:
        value = float(objective(config))
        result.trials.append(Trial(config=config, value=value))
        encoded.append(_encode(config, space))

    for _ in range(min(n_init, n_trials)):
        evaluate({name: _sample(dim, rng) for name, dim in space.items()})
    while len(result.trials) < n_trials:
        x_train = np.stack(encoded)
        y = np.array([t.value for t in result.trials])
        y_std = y.std()
        y_norm = (y - y.mean()) / (y_std if y_std > 0 else 1.0)
        candidates = [
            {name: _sample(dim, rng) for name, dim in space.items()}
            for _ in range(n_candidates)
        ]
        x_query = np.stack([_encode(c, space) for c in candidates])
        mean, std = _gp_posterior(x_train, y_norm, x_query,
                                  length_scale=length_scale, noise=1e-6)
        ei = _expected_improvement(mean, std, best=y_norm.min())
        evaluate(candidates[int(np.argmax(ei))])
    return result


def grid_search(space: Dict[str, Sequence],
                objective: Callable[[Dict[str, Any]], float]
                ) -> SearchResult:
    """Exhaustive search over the cartesian product of explicit choices —
    what the paper actually ran for Fig 8's (groups x momentum) grid."""
    import itertools

    if not space:
        raise ValueError("search space is empty")
    names = list(space)
    result = SearchResult()
    for combo in itertools.product(*(space[n] for n in names)):
        config = dict(zip(names, combo))
        result.trials.append(Trial(config=config,
                                   value=float(objective(config))))
    return result
