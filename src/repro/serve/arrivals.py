"""Arrival-process generators for the serving simulator.

The SLO story of a serving system depends as much on *when* requests show
up as on how fast replicas clear them. Three open-loop processes, in
increasing tail-hostility:

- ``uniform`` — deterministic, evenly spaced: the reproducible baseline
  whose sweep curves are (conditionally) monotone;
- ``poisson`` — memoryless arrivals (inter-arrival CV = 1): the classic
  open-loop model, already bursty enough to blur the saturation knee;
- ``mmpp`` — a 2-state Markov-modulated Poisson process
  (:class:`MMPP`): a quiet state and a burst state whose rate is
  ``burst``x higher, with exponential dwell times. Bursts at moderate
  *mean* load are what actually break tail SLOs, which is exactly the
  regime an autoscaler has to see before it can react.

Every sampler is seeded through :mod:`repro.utils.rng`, so sweeps are
reproducible request-for-request, and :meth:`MMPP.interarrival_moments`
gives the analytic mean/CV the statistical tests pin the samplers to.

Arrival *times* say when requests show up; the popularity samplers at the
bottom of this module say *what* they ask for — the content-id streams
that make result-cache hit rates meaningful (:mod:`repro.serve.cache`):

- ``"unique"`` — every request distinct: the cache-hostile baseline
  (hit rate exactly zero);
- ``"uniform"`` — ids uniform over ``n_keys``: hits come only from the
  catalog being smaller than the trace;
- ``"zipf"`` — rank-``alpha`` power law (:class:`ZipfPopularity`): the
  standard heavy-tailed web-traffic model, where a bounded cache absorbs
  most of the load;
- ``"hot"`` — bursty hot-keys (:class:`HotKeyPopularity`): a tiny hot set
  takes most of the traffic in correlated *streaks*, the adversarial case
  for small caches and the natural companion of MMPP arrival bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.utils.checks import require_count, require_real
from repro.utils.rng import SeedLike, as_rng

#: string-selectable processes for ``ServingSimulator.run(process=...)``
ARRIVAL_PROCESSES = ("uniform", "poisson", "mmpp")


def uniform_arrivals(rate: float, n_requests: int) -> np.ndarray:
    """Evenly spaced deterministic arrivals at ``rate`` req/s."""
    return np.arange(n_requests) / rate


def poisson_arrivals(rate: float, n_requests: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Poisson arrivals at ``rate`` req/s, first arrival pinned at t=0."""
    gaps = rng.exponential(1.0 / rate, size=n_requests)
    return np.concatenate([[0.0], np.cumsum(gaps)[:-1]])


@dataclass(frozen=True)
class MMPP:
    """Burst *shape* of a 2-state Markov-modulated Poisson process.

    The process alternates between a quiet state and a burst state whose
    Poisson rate is ``burst``x the quiet rate; dwell times in each state
    are exponential. The shape is rate-free — :meth:`sample` scales it to
    any mean offered rate, so one instance parameterizes a whole sweep —
    and fully determined by three knobs:

    - ``burst``: rate multiplier of the burst state over the quiet state;
    - ``burst_fraction``: stationary fraction of *time* spent bursting;
    - ``cycle_requests``: expected offered requests per quiet+burst cycle
      at the mean rate — sets how long bursts last relative to the
      arrival scale (long cycles build real queues, short ones average
      out toward Poisson).

    The quiet rate is chosen so the long-run mean rate is exactly the
    requested one: ``r_quiet = rate / (1 - f + f * burst)``.
    """

    burst: float = 8.0
    burst_fraction: float = 0.125
    cycle_requests: float = 64.0

    def __post_init__(self) -> None:
        # the burst state is at least as hot as quiet; an infinite burst
        # leaves the quiet state no rate and the burst state a NaN one; an
        # infinite cycle never switches state
        require_real("burst", self.burst, "[1, inf)")
        require_real("burst_fraction", self.burst_fraction, "(0, 1)")
        require_real("cycle_requests", self.cycle_requests, "(0, inf)")

    # -- derived parameters ---------------------------------------------------
    def state_rates(self, rate: float) -> Tuple[float, float]:
        """(quiet, burst) Poisson rates for mean offered ``rate`` req/s."""
        f = self.burst_fraction
        quiet = rate / (1.0 - f + f * self.burst)
        return quiet, self.burst * quiet

    def switch_rates(self, rate: float) -> Tuple[float, float]:
        """(leave-quiet, leave-burst) CTMC transition rates (1/s)."""
        cycle = self.cycle_requests / rate
        f = self.burst_fraction
        return 1.0 / ((1.0 - f) * cycle), 1.0 / (f * cycle)

    def _arrival_phase_law(self, rate: float) -> np.ndarray:
        """Stationary state distribution *at arrival epochs*.

        Arrivals happen at rate ``lam_i`` in state ``i``, so the phase an
        arrival finds the chain in is the time-stationary law reweighted by
        the per-state rates.
        """
        lam = np.array(self.state_rates(rate))
        pi = np.array([1.0 - self.burst_fraction, self.burst_fraction])
        alpha = pi * lam
        return alpha / alpha.sum()

    def interarrival_moments(self, rate: float = 1.0) -> Tuple[float, float]:
        """Analytic (mean, CV) of the stationary inter-arrival time.

        Between arrivals the chain evolves with generator ``Q - diag(lam)``
        (absorption = next arrival), so the stationary inter-arrival time
        is phase-type with initial law :meth:`_arrival_phase_law`; its
        moments are the standard ``k! * alpha @ (-S)^-k @ 1``. The CV is
        scale-free (independent of ``rate``); the mean is exactly
        ``1/rate`` by construction, kept as a cross-check.
        """
        lam = np.array(self.state_rates(rate))
        q_quiet, q_burst = self.switch_rates(rate)
        Q = np.array([[-q_quiet, q_quiet], [q_burst, -q_burst]])
        S = Q - np.diag(lam)
        alpha = self._arrival_phase_law(rate)
        inv = np.linalg.inv(-S)
        ones = np.ones(2)
        m1 = float(alpha @ inv @ ones)
        m2 = float(2.0 * alpha @ inv @ inv @ ones)
        return m1, math.sqrt(m2 / m1 ** 2 - 1.0)

    # -- sampling -------------------------------------------------------------
    def interarrival_times(self, rate: float, n_requests: int,
                           rng: np.random.Generator) -> np.ndarray:
        """``n_requests`` consecutive inter-arrival gaps (seconds).

        Exact competing-exponentials simulation: in state ``i`` the next
        event is Exp(lam_i + q_i) away and is an arrival with probability
        ``lam_i / (lam_i + q_i)``, else a state switch. The initial state
        is drawn from the at-arrival stationary law so the gap sequence is
        stationary from the first sample — what the statistical tests
        compare against :meth:`interarrival_moments`.
        """
        lam = self.state_rates(rate)
        totals = [a + q for a, q in zip(lam, self.switch_rates(rate))]
        # per-state constants, once: the mean gap to the next event and
        # the chance that event is an arrival (same floats as per draw)
        means = [1.0 / total for total in totals]
        p_arrival = [a / total for a, total in zip(lam, totals)]
        exponential, uniform = rng.exponential, rng.random
        state = int(uniform() >= self._arrival_phase_law(rate)[0])
        gaps = []
        for _ in range(n_requests):
            t = 0.0
            while True:
                t += exponential(means[state])
                if uniform() < p_arrival[state]:
                    break
                state = 1 - state
            gaps.append(t)
        return np.array(gaps, dtype=np.float64)

    def sample(self, rate: float, n_requests: int,
               rng: np.random.Generator) -> np.ndarray:
        """Arrival times at mean ``rate`` req/s, first arrival at t=0."""
        gaps = self.interarrival_times(rate, n_requests, rng)
        return np.concatenate([[0.0], np.cumsum(gaps)[:-1]])


#: what ``make_arrivals`` accepts as a process spec
ProcessLike = Union[str, MMPP]


def make_arrivals(process: ProcessLike, rate: float, n_requests: int,
                  seed: SeedLike = None) -> np.ndarray:
    """Arrival-time array for any process spec.

    ``process`` is one of :data:`ARRIVAL_PROCESSES` or an :class:`MMPP`
    instance (custom burst shape). Stochastic processes default to seed 0
    so unseeded runs stay reproducible.
    """
    # a NaN rate would yield NaN arrival times, and rate=inf a stream with
    # every arrival at t0
    require_real("rate", rate, "(0, inf)")
    n_requests = require_count("n_requests", n_requests)
    if isinstance(process, MMPP):
        return process.sample(rate, n_requests,
                              as_rng(seed if seed is not None else 0))
    if process == "uniform":
        return uniform_arrivals(rate, n_requests)
    if process == "poisson":
        return poisson_arrivals(rate, n_requests,
                                as_rng(seed if seed is not None else 0))
    if process == "mmpp":
        return MMPP().sample(rate, n_requests,
                             as_rng(seed if seed is not None else 0))
    raise ValueError(f"unknown arrival process {process!r}; "
                     f"use one of {ARRIVAL_PROCESSES} or an MMPP instance")


# -- request content (popularity) ---------------------------------------------

#: string-selectable popularity models for ``make_contents``
POPULARITY_KINDS = ("unique", "uniform", "zipf", "hot")


@dataclass(frozen=True)
class UniformPopularity:
    """Content ids uniform over a catalog of ``n_keys`` distinct requests."""

    n_keys: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_keys",
                           require_count("n_keys", self.n_keys))

    def sample(self, n_requests: int,
               rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.n_keys, size=n_requests)


@dataclass(frozen=True)
class ZipfPopularity:
    """Rank-power-law popularity: key ``k`` drawn with weight
    ``(k+1)^-alpha`` over a catalog of ``n_keys``.

    ``alpha`` around 0.8-1.2 matches measured web/content traffic; at
    ``alpha=0`` this degenerates to :class:`UniformPopularity`. The head
    mass — the fraction of traffic a perfect cache of ``c`` entries could
    absorb — is :meth:`head_mass`, the analytic yardstick for the hit-rate
    sweeps.
    """

    alpha: float = 1.1
    n_keys: int = 1024

    def __post_init__(self) -> None:
        require_real("alpha", self.alpha, "[0, inf)")
        object.__setattr__(self, "n_keys",
                           require_count("n_keys", self.n_keys))

    def _weights(self) -> np.ndarray:
        w = np.arange(1, self.n_keys + 1, dtype=np.float64) ** -self.alpha
        return w / w.sum()

    def head_mass(self, top: int) -> float:
        """Stationary traffic fraction of the ``top`` most popular keys —
        the hit-rate ceiling of a ``top``-entry cache under this law."""
        if top <= 0:
            return 0.0
        return float(self._weights()[:min(top, self.n_keys)].sum())

    def sample(self, n_requests: int,
               rng: np.random.Generator) -> np.ndarray:
        # Already a single vectorized draw: one rng.choice over the
        # stationary law covers all n requests (no per-draw loop to
        # batch, unlike the HotKey chain below).
        return rng.choice(self.n_keys, size=n_requests, p=self._weights())


@dataclass(frozen=True)
class HotKeyPopularity:
    """Bursty hot-key traffic: a hot set served in correlated streaks.

    A two-state (hot/cold) request-indexed Markov chain: in the hot state
    requests draw uniformly from the first ``hot_keys`` ids, in the cold
    state from the remaining catalog. ``hot_fraction`` is the stationary
    fraction of requests that are hot; ``mean_streak`` the expected length
    of a hot run — long streaks are what hammer one key while it is (or is
    not yet) cached, the temporal analogue of an MMPP burst.
    """

    n_keys: int = 256
    hot_keys: int = 4
    hot_fraction: float = 0.9
    mean_streak: float = 32.0

    def __post_init__(self) -> None:
        for name in ("n_keys", "hot_keys"):
            object.__setattr__(self, name,
                               require_count(name, getattr(self, name)))
        if not self.hot_keys < self.n_keys:
            raise ValueError(
                f"hot_keys must be in (0, n_keys={self.n_keys}), "
                f"got {self.hot_keys}")
        require_real("hot_fraction", self.hot_fraction, "(0, 1)")
        # an infinite streak never leaves the hot state it starts in
        require_real("mean_streak", self.mean_streak, "[1, inf)")
        # Stationarity pins the cold->hot switch rate at
        # f/(1-f) * (1/mean_streak); it must stay a probability.
        f, leave_hot = self.hot_fraction, 1.0 / self.mean_streak
        if f / (1.0 - f) * leave_hot > 1.0:
            raise ValueError(
                f"hot_fraction {f} unreachable with mean_streak "
                f"{self.mean_streak}: cold state would need to switch "
                f"with probability > 1")

    def sample(self, n_requests: int,
               rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_requests`` content keys, fully vectorized.

        The RNG draws were always batched (``switch``, both key pools,
        then the stationary coin), so the stream order — and therefore
        every seed's output — is unchanged from the original per-request
        loop; only the chain walk itself is replaced. Each step's
        transition is one of four maps on the hot/cold state (identity,
        NOT, const-hot, const-cold), and function composition of those
        maps reduces to "the last const before me, then NOT-count parity
        since it" — both computable with one ``maximum.accumulate`` and
        one ``cumsum``. Before/after microbenchmark at 10^6 draws:
        0.28 s -> 0.06 s end-to-end (~4.6x; the chain walk itself ~6x —
        the batched RNG draws, unchanged, are the remaining 18 ms),
        keeping content-key assignment out of the 10M-request drive's
        budget. Bitwise equality with the scalar chain is pinned by the
        popularity tests.
        """
        f = self.hot_fraction
        leave_hot = 1.0 / self.mean_streak
        leave_cold = f / (1.0 - f) * leave_hot
        switch = rng.random(n_requests)
        hot_draw = rng.integers(0, self.hot_keys, size=n_requests)
        cold_draw = rng.integers(self.hot_keys, self.n_keys,
                                 size=n_requests)
        hot = rng.random() < f          # start from the stationary law
        if n_requests == 0:
            return np.empty(0, dtype=np.int64)
        # Step i's transition map, as (f(hot), f(cold)) of two flip coins:
        #   a = flip-if-hot, b = flip-if-cold
        #   a & b -> NOT, ~a & ~b -> identity, a ^ b -> const (value = b).
        a = switch < leave_hot
        b = switch < leave_cold
        is_not = a & b
        is_const = a ^ b
        idx = np.arange(n_requests)
        # lc[i]: index of the last const map among steps 0..i-1 (-1: none).
        # The state emitting out[i] is that const's value with the parity
        # of the NOT maps applied since (consts reset, identities vanish).
        lc = np.empty(n_requests, dtype=np.int64)
        lc[0] = -1
        if n_requests > 1:
            np.maximum.accumulate(np.where(is_const, idx, -1)[:-1],
                                  out=lc[1:])
        nots = np.concatenate(([0], np.cumsum(is_not)))  # NOTs in 0..k-1
        flips = ((nots[idx] - nots[lc + 1]) & 1).astype(bool)
        base = np.where(lc >= 0, b[np.maximum(lc, 0)], hot)
        return np.where(base ^ flips, hot_draw, cold_draw)


#: what ``make_contents`` accepts as a popularity spec
PopularityLike = Union[None, str, UniformPopularity, ZipfPopularity,
                       HotKeyPopularity]


# -- request model identity (multi-model serving) ------------------------------

@dataclass(frozen=True)
class ModelMix:
    """Which registered model each arrival asks for.

    ``weights`` are the per-model traffic shares (any positive scale — they
    are normalized); ``mean_run`` adds *phase correlation*: each arrival
    resamples its model from the shares with probability ``1/mean_run``
    and otherwise repeats the previous arrival's model, producing
    geometric same-model streaks of expected length ``mean_run`` whose
    stationary shares are still exactly ``weights``. ``mean_run=1`` is the
    i.i.d. mix; long runs are the model-identity analogue of an MMPP
    burst — one model hammers the fleet for a stretch, which is what makes
    per-model admission and batching lanes earn their keep.

    A one-model mix never consumes randomness, so a single-model
    multi-model run draws the same arrival/content streams as the classic
    single-model simulator — the single-model differential depends on it.
    """

    weights: Tuple[float, ...] = (1.0,)
    mean_run: float = 1.0

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("ModelMix needs at least one model weight")
        for w in self.weights:
            require_real("weights", w, "(0, inf)")
        # an infinite run never resamples the model it starts on
        require_real("mean_run", self.mean_run, "[1, inf)")

    @property
    def n_models(self) -> int:
        return len(self.weights)

    @property
    def shares(self) -> np.ndarray:
        """Normalized stationary traffic share of each model."""
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    def sample(self, n_requests: int,
               rng: np.random.Generator) -> np.ndarray:
        """Model index of each of ``n_requests`` arrivals."""
        if self.n_models == 1:
            return np.zeros(n_requests, dtype=np.int64)
        draws = rng.choice(self.n_models, size=n_requests, p=self.shares)
        if self.mean_run <= 1.0:
            return draws.astype(np.int64)
        # Sticky resampling: arrival i keeps arrival i-1's model unless a
        # 1/mean_run coin says redraw. Resampling from the stationary
        # shares (self-transitions allowed) keeps the marginal law exact.
        # Vectorized forward-fill (no per-request Python loop on the
        # trace-preprocessing path): each arrival takes the draw at the
        # most recent resample point at or before it.
        resample = rng.random(n_requests) < 1.0 / self.mean_run
        resample[0] = True
        points = np.flatnonzero(resample)
        idx = points[np.searchsorted(points, np.arange(n_requests),
                                     side="right") - 1]
        return draws[idx].astype(np.int64)


#: what ``make_model_ids`` accepts as a mix spec
MixLike = Union[None, Sequence[float], ModelMix]


def make_model_ids(mix: MixLike, n_requests: int,
                   seed: SeedLike = None) -> np.ndarray:
    """Model-index array for any mix spec.

    ``mix`` is ``None`` (everything is model 0), a weight sequence
    (i.i.d. mix), or a :class:`ModelMix` instance. Stochastic draws
    default to seed 0, matching :func:`make_arrivals`.
    """
    if n_requests == 0:
        raise ValueError(f"n_requests must be positive, got {n_requests!r}")
    n_requests = require_count("n_requests", n_requests)
    if mix is None:
        return np.zeros(n_requests, dtype=np.int64)
    if not isinstance(mix, ModelMix):
        mix = ModelMix(tuple(float(w) for w in mix))
    return mix.sample(n_requests, as_rng(seed if seed is not None else 0))


def make_contents(popularity: PopularityLike, n_requests: int,
                  seed: SeedLike = None) -> np.ndarray:
    """Content-id array for any popularity spec.

    ``popularity`` is ``None``/``"unique"`` (every request distinct — the
    deterministic zero-hit baseline), one of :data:`POPULARITY_KINDS`, or
    a popularity instance. Stochastic samplers default to seed 0, matching
    :func:`make_arrivals`. An instance's ``sample(n_requests, rng)`` must
    return a 1-D integral array of ``n_requests`` ids (``ValueError``
    otherwise): the array core reads it in place.
    """
    if n_requests == 0:
        raise ValueError(f"n_requests must be positive, got {n_requests!r}")
    n_requests = require_count("n_requests", n_requests)
    if popularity is None or popularity == "unique":
        return np.arange(n_requests, dtype=np.int64)
    if popularity == "uniform":
        popularity = UniformPopularity()
    elif popularity == "zipf":
        popularity = ZipfPopularity()
    elif popularity == "hot":
        popularity = HotKeyPopularity()
    elif isinstance(popularity, str):
        raise ValueError(f"unknown popularity {popularity!r}; "
                         f"use one of {POPULARITY_KINDS} or an instance")
    rng = as_rng(seed if seed is not None else 0)
    ids = np.asarray(popularity.sample(n_requests, rng))
    if ids.dtype.kind not in "iu" or ids.shape != (n_requests,):
        raise ValueError(
            f"popularity {popularity!r} must sample a 1-D integral array of "
            f"{n_requests} content ids, got {ids.dtype} of shape {ids.shape}")
    return np.ascontiguousarray(ids, dtype=np.int64)
