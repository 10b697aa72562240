"""What every workload shares: the phase record, the output oracle, timed
set-up and the teardown check."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from perfbench import procs
from perfbench.spans import Span

#: Set-ups timed per untraced run; the median is reported.
SETUP_REPEATS = 5


@dataclass
class Phase:
    """Everything one measured phase of a workload produced."""

    identify_s: List[float] = field(default_factory=list)
    enroll_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    fresh: int = 0
    fresh_top1: int = 0
    wall_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: Response ``timings`` of every identify (``batch_s``/``probe_s``/``match_s``).
    timings: List[Dict[str, float]] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    #: Workload-specific numbers (cache counters, ladder, healthz, ...).
    extra: Dict[str, Any] = field(default_factory=dict)

    def note(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def same_answer(response, serial) -> bool:
    """Predictions and margins bit-identical to a serial identify."""
    return (
        response.ok
        and list(response.predicted_subject_ids) == list(serial.predicted_subject_ids)
        and np.array_equal(np.asarray(response.margins, dtype=float), serial.margin())
    )


def timed_setups(make: Callable[[], object], close: Callable[[object], None], repeats: int):
    """Run ``make`` ``repeats`` times, closing all but the last; returns
    ``(last, durations)`` so work moved into set-up shows in ``setup_s``."""
    durations, built = [], None
    for attempt in range(repeats):
        if built is not None:
            close(built)
        start = time.perf_counter()
        built = make()
        durations.append(time.perf_counter() - start)
    return built, durations


def check_teardown(phase: Phase, shm_before) -> None:
    for leak in procs.teardown_leaks(shm_before):
        phase.problems.append(f"leak after teardown: {leak}")
