"""Latency statistics shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Samples a tail percentile must leave beyond it to be reported.
MIN_BEYOND = 10


def tail(samples: Sequence[float], target: float = 99.0) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile up to ``target``
    that leaves at least :data:`MIN_BEYOND` samples beyond it.

    With too few samples for any tail the median is returned, so the value
    is never taken from fewer samples than it claims to describe.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(target / 100.0 * n) - 1, n - 1 - MIN_BEYOND)
    rank = max(rank, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


