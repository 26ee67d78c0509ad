"""Spans for the traced benchmark run.

The program has no per-layer timing of its own on the real and training
paths, so the traced run records spans from here: each leaf ``Module``'s
``forward``/``backward`` (and the optimizer step, the parameter-server
push/pull) is wrapped per *instance* — the idiom
``repro.serve.variants._record_inputs`` uses — for the duration of one
operation and restored afterwards. Spans stay in memory; the worker
writes them out once, at exit, in Chrome trace-event form.

A layer's *self time* is its span minus the part its child spans cover,
so the per-layer numbers of one operation add up to the operation's span
exactly: what no wrapped layer accounts for is the root span's self time
(reported, never dropped).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: span name of each leaf layer kind (``Module.kind`` -> repo module)
LAYER_SPAN = {
    "conv": "nn.conv",
    "deconv": "nn.deconv",
    "activation": "nn.activations",
    "pool": "nn.pooling",
    "dense": "nn.dense",
}

#: (object, attribute, span name): one bound method to wrap
Hook = Tuple[object, str, str]


class Tracer:
    """In-memory span recorder; one instance per worker process.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes
    :attr:`spans` (-1 for a root), ``op`` is the operation the span
    belongs to (:attr:`op`, set by the worker before each traced
    operation) — the identifier every span of one operation shares.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: ``{op: {name: value}}`` — counts taken at the same boundaries
        self.counts: Dict[int, Dict[str, float]] = {}
        self.op = -1
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span measured elsewhere (the program's own
        ``serve.obs.Profiler`` totals) under ``parent``."""
        self.spans.append([name, start, end, parent, self.op])

    def count(self, name: str, value: float) -> None:
        """Attach a count (or a total measured by the program itself) to
        the current operation."""
        self.counts.setdefault(self.op, {})[name] = value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def hooked(self, hooks: Iterable[Hook]) -> Iterator[None]:
        """Wrap each hook's bound method as an instance attribute (which
        shadows the class method for every caller) and restore on exit."""
        saved = []
        try:
            for obj, attr, name in hooks:
                saved.append((obj, attr, vars(obj).get(attr)))
                setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
            yield
        finally:
            for obj, attr, prev in reversed(saved):
                if prev is None:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, prev)

    # -- read side -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_op(self) -> Dict[int, Dict[str, float]]:
        """``{op: {span name: summed self seconds}}`` plus the op's
        counts; each root span also appears as ``<name>.total`` with its
        duration."""
        out: Dict[int, Dict[str, float]] = {
            op: dict(counts) for op, counts in self.counts.items()}
        for (name, start, end, parent, op), own in zip(self.spans,
                                                       self.self_times()):
            row = out.setdefault(op, {})
            row[name] = row.get(name, 0.0) + own
            if parent < 0:
                key = name + ".total"
                row[key] = row.get(key, 0.0) + (end - start)
        return out

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        events = []
        for (name, start, end, parent, op), own in zip(self.spans,
                                                       self.self_times()):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op, "self_us": own * 1e6,
                         "parent": (self.spans[parent][0]
                                    if parent >= 0 else None)}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def leaf_modules(net) -> List:
    """Leaf layers of ``net`` in execution order (containers expanded
    through the ``children()`` hook every ``Module`` has)."""
    kids = net.children()
    if not kids:
        return [net]
    return [leaf for kid in kids for leaf in leaf_modules(kid)]


def layer_hooks(net, backward: bool = False) -> List[Hook]:
    """Forward (and optionally backward) hooks for every leaf of ``net``."""
    hooks: List[Hook] = []
    for layer in leaf_modules(net):
        base = LAYER_SPAN.get(layer.kind, "nn." + layer.kind)
        hooks.append((layer, "forward", base + ".fwd"))
        if backward:
            hooks.append((layer, "backward", base + ".bwd"))
    return hooks
