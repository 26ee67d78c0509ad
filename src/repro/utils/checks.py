"""What a valid number is, stated once for every constructor.

:func:`require_count` takes whole counts, :func:`require_real` real-valued
parameters. A refusal is a ``ValueError`` naming the parameter, the value
and what it must be. NaN is never valid; an infinity is valid only where
the interval is closed at it, which is how a caller says that ``inf``
means "none" (an SLO, an admission limit, a hold time, an MTBF):
``"(0, inf]"`` takes it, ``"(0, inf)"`` does not.

A Python ``int`` or ``float`` skips the abstract-class test, the costly
part of a check, so per-call sites (every simulated collective, priced
layer and straggler draw) call these too. Two per-arrival checks stay
inline, a comparison and no call: ``Router.submit`` and
``ReplicaBatchQueue.push``, the public API entries a direct caller goes
through. A simulator run skips both: its stream comes from
``make_arrivals`` / ``make_model_ids`` (finite, nondecreasing, in range),
so its drive loops call the trusted bodies, ``Router._admit`` and
``ReplicaBatchQueue._push``.
``ServiceTimeModel.batch_time`` checks a batch size on a memo miss only.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Optional


def require_count(name: str, value, none_ok: bool = False,
                  least: Optional[int] = 1):
    """``value`` as a Python ``int``, rejected unless it is an integer
    >= ``least`` (any integer with ``least=None``; or ``None`` with
    ``none_ok``). A fractional or NaN count is not a count: the event
    engine compares with it as a float while the array engine truncates or
    indexes with it, so the two would disagree or one would crash (as it
    would on a NumPy integer's missing int methods)."""
    if value is None and none_ok:
        return None
    if not (type(value) is int or isinstance(value, numbers.Integral)) or (
            least is not None and value < least):
        raise ValueError(f"{name} must be an integer"
                         f"{'' if least is None else f' >= {least}'}"
                         f"{' or None' if none_ok else ''}, got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=64)
def _interval(spec: str):
    """``"(0, inf]"`` -> ``(0.0, inf, True, False, "positive")``: the
    bounds, whether each is open, and the words a refusal uses."""
    low, high = (s.strip() for s in spec[1:-1].split(","))
    lo, hi = float(low), float(high)
    lo_open, hi_open = spec[0] == "(", spec[-1] == ")"
    words = []
    if lo == 0 and lo_open:
        words.append("positive")
    elif lo > -math.inf:
        words.append(f"{'>' if lo_open else '>='} {low}")
    if hi < math.inf:
        words.append(f"{'<' if hi_open else '<='} {high}")
    if (lo == -math.inf and lo_open) or (hi == math.inf and hi_open):
        words.append("finite")
    return lo, hi, lo_open, hi_open, " and ".join(words) or "a real number"


def require_real(name: str, value, interval: str = "[-inf, inf]",
                 none_ok: bool = False):
    """``value``, rejected unless it is a real number in ``interval``
    (written ``"(0, inf]"``, ``"[0, 1)"``, ...) or ``None`` with
    ``none_ok``. NaN fails every comparison, so no interval holds it."""
    if value is None and none_ok:
        return None
    lo, hi, lo_open, hi_open, words = _interval(interval)
    if not ((type(value) in (float, int) or isinstance(value, numbers.Real))
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        raise ValueError(f"{name} must be {words}, got {value!r}; allowed: "
                         f"{interval}{' or None' if none_ok else ''}")
    return value
