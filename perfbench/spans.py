"""In-memory spans around the public functions of each layer.

The traced run wraps functions of ``repro`` from the benchmark's own files
(nothing inside ``src/`` records spans).  A span is ``(name, start, end,
parent, request id)``; spans are kept in memory and written out only when a
process ends.  ``time.perf_counter`` is the system-wide monotonic clock on
Linux, so spans from the benchmark, the HTTP server process and forked
router workers share one time base and nest across processes.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    sid: int
    pid: int

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.rid, self.sid, self.pid]

    @classmethod
    def from_list(cls, row: Sequence) -> "Span":
        return cls(*row)


def _request_id(values) -> Optional[str]:
    for value in values:
        rid = getattr(value, "request_id", None)
        if isinstance(rid, str):
            return rid
    return None


class Tracer:
    """Collects spans of one process; forked children start empty and
    write their own spans to ``dump_dir`` when they exit."""

    def __init__(self, dump_dir: Optional[Path] = None):
        self.spans: List[Span] = []
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return self.pid * 10_000_000 + next(self._ids)

    def record(self, name: str, start: float, end: float, rid=None, parent=None) -> Span:
        """Record an already-timed interval (e.g. an open-loop lag)."""
        span = Span(name, start, end, parent, rid, self._new_id(), self.pid)
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args, kwargs, sticky: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = _request_id(args) or _request_id(kwargs.values())
        if rid is None and parent is not None:
            rid = parent.rid
        if rid is None and sticky:
            rid = getattr(self._local, "last_rid", None)
        span = Span(name, 0.0, 0.0, parent.sid if parent else None, rid, self._new_id(), self.pid)
        stack.append(span)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.rid is None:
                span.rid = _request_id([result])
            if span.rid is not None and not stack:
                self._local.last_rid = span.rid
            self.spans.append(span)

    async def acall(self, name: str, fn: Callable, args, kwargs):
        # Coroutines interleave on one thread, so async spans are roots
        # linked to their request by id, never by the thread's stack.
        span = Span(name, time.perf_counter(), 0.0, None, _request_id(args), self._new_id(), self.pid)
        try:
            return await fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.spans.append(span)

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, owner: object, attr: str, name: str, sticky: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                return await self.acall(name, original, args, kwargs)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, sticky=sticky)

        # Restore the raw class attribute, so a classmethod stays one.
        raw = owner.__dict__.get(attr, original) if isinstance(owner, type) else original
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- processes ------------------------------------------------------ #
    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self._local = threading.local()
        if self.dump_dir is not None:
            mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> Optional[Path]:
        if self.dump_dir is None:
            return None
        path = Path(self.dump_dir) / f"spans-{self.pid}.json"
        path.write_text(json.dumps([span.to_list() for span in self.spans]))
        return path


def load_dumps(directory: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        spans.extend(Span.from_list(row) for row in json.loads(path.read_text()))
    return spans


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def _covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def link_across_processes(spans: Sequence[Span]) -> None:
    """Give each parentless span the innermost span of the same request, in
    another process, whose interval contains it (a worker's root span
    becomes a child of the router call that waited for it)."""
    by_rid: Dict[str, List[Span]] = {}
    for span in spans:
        if span.rid is not None:
            by_rid.setdefault(span.rid, []).append(span)
    for span in spans:
        if span.parent is not None or span.rid is None:
            continue
        best = None
        for other in by_rid[span.rid]:
            if (
                other.pid != span.pid
                and other.start <= span.start
                and span.end <= other.end
                and (best is None or other.end - other.start < best.end - best.start)
            ):
                best = other
        if best is not None:
            span.parent = best.sid


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans: Sequence[Span], kids: Dict[int, List[Span]] = None) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    kids = children_of(spans) if kids is None else kids
    return {
        span.sid: (span.end - span.start)
        - _covered((span.start, span.end), [(k.start, k.end) for k in kids.get(span.sid, ())])
        for span in spans
    }
