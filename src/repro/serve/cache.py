"""Request-level result cache: the cheapest forward is the one never run.

The paper's serving case (SII-A, DeepBench) is that per-request forwards
waste an order of magnitude of KNL throughput; micro-batching recovers most
of it, but repeated/hot requests need not touch a replica at all. A
:class:`ResultCache` sits in front of the router, keyed on a content hash
of the request input:

- the *virtual* path (:class:`repro.serve.slo_sim.ServingSimulator`) keys
  on integer content ids from :mod:`repro.serve.arrivals` popularity
  samplers — hits complete at ``request_rtt()`` without consuming replica
  capacity, so the autoscaler provisions for *misses*, not offered rate;
- the *real* path (:class:`repro.serve.batching.BatchExecutor` over a
  :class:`repro.serve.registry.ServableModel`) keys on
  :func:`content_key` of the input array — hits return the memoized
  prediction bitwise-identically.

Eviction is least recently used, O(1) per operation: right when
popularity drifts over time (yesterday's hot key should age out).

A ``capacity=0`` cache is inert: every lookup misses, nothing is stored,
and the serving paths behave bit-identically to having no cache at all —
the differential tests in ``tests/test_serve_cache_properties.py`` pin
exactly that.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Hashable, Tuple

import numpy as np

from repro.utils.checks import require_count


def content_key(x) -> str:
    """Content hash of one request input: dtype, shape, and raw bytes.

    Two arrays get the same key iff they are bitwise-identical tensors of
    the same dtype and shape — the only equivalence under which returning a
    memoized prediction is exactly correct. (A float tolerance here would
    silently serve one request's answer for a *different* request.)
    """
    arr = np.ascontiguousarray(x)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(b"|")
    h.update(str(arr.shape).encode())
    h.update(b"|")
    h.update(arr.tobytes())
    return h.hexdigest()


class ResultCache:
    """Bounded LRU map from request-content keys to memoized results.

    ``get`` returns ``(hit, value)`` and counts the lookup; ``put`` inserts
    or refreshes an entry, evicting the least recently touched one once
    ``capacity`` distinct keys are held. Keys are anything hashable
    (integer content ids in the simulator, :func:`content_key` digests on
    the real path).

    The *decision* semantics here — hit answers, touch ordering (a ``put``
    refresh counts as a use), eviction victims — are a contract:
    ``repro.serve.fast_core._drive`` replicates them inline (one plain
    dict, no counters) so cached runs on the array engine make
    bit-identical hit/miss choices, and the engine differential suite
    pins the two against each other. Behavior changes here must land
    there too.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = require_count("capacity", capacity, least=0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        #: entries removed by :meth:`invalidate_scope` (not capacity
        #: pressure — a versioned rollout, not the eviction policy)
        self.invalidations = 0
        #: least recently used first
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    # -- the cache API --------------------------------------------------------
    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """Look ``key`` up; returns ``(hit, value)`` and counts the lookup."""
        if key not in self._data:
            self.misses += 1
            return False, None
        self.hits += 1
        self._data.move_to_end(key)
        return True, self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; a refresh counts as a use."""
        if self.capacity == 0:
            return
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return
        if len(self._data) >= self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1
        self._data[key] = value
        self.insertions += 1

    def invalidate_scope(self, scope) -> int:
        """Evict every entry whose key is prefixed with ``scope``.

        Scoped keys are the ``(scope, ...)`` tuples the real serving path
        writes (:class:`~repro.serve.batching.BatchExecutor` prefixes each
        content digest with the replica's ``cache_scope = (name,
        version)``) and the multi-model simulator writes (``(model_index,
        content_id)``). A registry publish invalidates the superseded
        version's scope (:meth:`~repro.serve.registry.ModelRegistry.
        attach_cache`) so a bounded cache is not left carrying entries no
        request can hit again. Returns the number of entries removed;
        unscoped (plain) keys are never touched.
        """
        victims = [k for k in self._data
                   if isinstance(k, tuple) and k and k[0] == scope]
        for k in victims:
            del self._data[k]
        self.invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop every entry; lookup counters are kept (they describe the
        workload, not the contents)."""
        self._data.clear()

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test with no stats or recency side effects."""
        return key in self._data

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over every lookup so far (0.0 before any)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({len(self)}/{self.capacity} "
                f"entries, hit_rate={self.hit_rate:.3f})")
