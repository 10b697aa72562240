"""Per-layer self times of traced requests.

A traced request is a ``client`` root span opened by the benchmark around
one operation.  Everything under it (in any process) belongs to a named
layer; the root's own self time is the part no layer accounts for.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from perfbench.spans import Span, children_of, link_across_processes, self_times

ROOT = "client"

#: Span-name prefix -> the ``repro`` layer it measures.
LAYERS = {
    "loadgen": "loadgen",
    "http": "service.http",
    "router": "service.router",
    "codec": "service.codec",
    "service": "service.service",
    "registry": "service.registry",
    "batch": "runtime.batch",
    "cache": "runtime.cache",
    "matching": "gallery.matching",
    "reference": "gallery.reference",
}

#: Tolerated share of client wall time outside every named layer.
MAX_UNATTRIBUTED = 0.05


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def _share_batch_work(spans: Sequence[Span], kids: Dict[int, List[Span]]) -> None:
    """Make each span of a coalesced batch a child of every awaiting request.

    The micro-batcher runs a batch on an executor thread, outside the span
    stack of the requests it serves; each request waited for the whole
    batch, so the batch's spans count in each one's latency.
    """
    waiting = [s for s in spans if s.name.endswith("identify_async")]
    for span in spans:
        if span.parent is None and span.rid is None:
            for request in waiting:
                if (request.pid == span.pid and request.start <= span.start
                        and span.end <= request.end):
                    kids.setdefault(request.sid, []).append(span)


def attribute(spans: Sequence[Span]) -> Dict[str, object]:
    """Sum self times per layer over every ``client`` root's subtree."""
    link_across_processes(spans)
    kids = children_of(spans)
    _share_batch_work(spans, kids)
    own = self_times(spans, kids)
    per_layer: Dict[str, float] = {}
    wall = unattributed = 0.0
    roots = [span for span in spans if span.name == ROOT]
    for root in roots:
        wall += root.end - root.start
        unattributed += own[root.sid]
        todo = list(kids.get(root.sid, ()))
        while todo:
            span = todo.pop()
            layer = layer_of(span.name)
            per_layer[layer] = per_layer.get(layer, 0.0) + own[span.sid]
            todo.extend(kids.get(span.sid, ()))
    return {
        "requests": len(roots),
        "wall_s": wall,
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / wall if wall > 0 else 0.0,
        "per_layer_s": per_layer,
    }


def by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"count", "self_s", "total_s"}}`` over all spans."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = table.setdefault(span.name, {"count": 0, "self_s": 0.0, "total_s": 0.0})
        entry["count"] += 1
        entry["self_s"] += own[span.sid]
        entry["total_s"] += span.end - span.start
    return table
