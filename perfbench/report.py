"""Metric tables: the bounded end-to-end set and the traced per-layer set."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench import layers, measure
from perfbench.common import Phase

def _p50_ms(values_s) -> float:
    return 1e3 * statistics.median(values_s) if values_s else 0.0


def _tail_ms(values_s) -> float:
    return 1e3 * measure.tail(values_s)[0] if values_s else 0.0


def end_to_end(phase: Phase) -> Dict[str, float]:
    """The bounded metrics of one untraced phase."""
    return {
        "identify_p50_ms": _p50_ms(phase.identify_s),
        "identify_rps": phase.extra.get("identify_rps", len(phase.identify_s) / phase.wall_s),
        "top1_accuracy": phase.fresh_top1 / phase.fresh,
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": phase.rss_mb,
    }


def _timing_p50_ms(phase: Phase, key: str) -> float:
    return _p50_ms([timing[key] for timing in phase.timings if key in timing])


def _hits(kinds, kind: str):
    entry = kinds.get(kind, {})
    hits, misses = int(entry.get("hits", 0)), int(entry.get("misses", 0))
    return (hits / (hits + misses) if hits + misses else 0.0), hits + misses


def per_layer(untraced: Phase, traced: Phase, names: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics from the traced phase, and the untraced phase as
    the reference for tracing overhead and response timings."""
    attribution = layers.attribute(traced.spans)
    table = layers.by_name(traced.spans)
    requests = max(len(traced.identify_s), 1)

    def self_ms(span_name):
        return 1e3 * table.get(span_name, {}).get("self_s", 0.0) / requests

    def call_ms(name):
        entry = table.get(name)
        return 1e3 * entry["total_s"] / entry["count"] if entry else 0.0

    kinds = traced.extra.get("cache_kinds", {})
    probe_ratio, probe_lookups = _hits(kinds, "probe")
    group_ratio, group_lookups = _hits(kinds, "group_matrix")
    sizes = untraced.batch_sizes
    attempted = untraced.attempted + traced.attempted
    # Every per-layer metric is reported; 0 where a layer is not crossed.
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "batch.group_matrix_ms": self_ms("batch.group_matrix"),
        "cache.digest_ms": self_ms("cache.digest"),
        "cache.probe_hit_ratio": probe_ratio,
        "cache.probe_lookups": probe_lookups,
        "cache.group_matrix_hit_ratio": group_ratio,
        "cache.group_matrix_lookups": group_lookups,
        "cache.evictions": sum(int(e.get("evictions", 0)) for e in kinds.values()),
        "matching.normalize_ms": self_ms("matching.normalize"),
        "matching.match_ms": self_ms("matching.match"),
        "reference.refit_ms": call_ms("reference.refit"),
        "reference.save_ms": call_ms("reference.save"),
        "batcher.batch_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "batcher.coalesced_share": sum(s > 1 for s in sizes) / len(sizes) if sizes else 0.0,
        "service.batch_p50_ms": _timing_p50_ms(untraced, "batch_s"),
        "service.probe_p50_ms": _timing_p50_ms(untraced, "probe_s"),
        "service.match_p50_ms": _timing_p50_ms(untraced, "match_s"),
        "codec.encode_ms": self_ms("codec.encode"),
        "codec.decode_ms": self_ms("codec.decode"),
        "registry.loads": table.get("reference.load", {}).get("count", 0),
        "identify_p99_ms": _tail_ms(untraced.identify_s),
        "enroll_p50_ms": _p50_ms(untraced.enroll_s),
        "enroll_p99_ms": _tail_ms(untraced.enroll_s),
        "error_rate": (untraced.failed + traced.failed) / attempted if attempted else 0.0,
        "trace.unattributed_share": attribution["unattributed_share"],
        "trace.overhead_share": _p50_ms(traced.identify_s) / _p50_ms(untraced.identify_s) - 1.0,
    })
    metrics.update(untraced.extra.get("layer_metrics", {}))
    metrics.update(traced.extra.get("traced_metrics", {}))
    traced.extra["attribution"] = attribution
    if attribution["unattributed_share"] > layers.MAX_UNATTRIBUTED:
        traced.problems.append(
            f"traced layers cover only {1 - attribution['unattributed_share']:.1%} "
            f"of client wall time (need {1 - layers.MAX_UNATTRIBUTED:.0%})"
        )
    return metrics


def lines(workload: str, phases: List[Phase], metrics: Dict[str, float],
          units: Dict[str, str]) -> List[str]:
    """Human-readable report printed before the result line."""
    out = [f"workload {workload}"]
    for index, phase in enumerate(phases):
        tail_pct = measure.tail(phase.identify_s)[1]
        out.append(
            f"  phase {index}: {phase.attempted} ops attempted, {phase.failed} failed, "
            f"{len(phase.identify_s)} identifies (p{tail_pct:.1f} reported as p99), "
            f"{len(phase.enroll_s)} enrolls, setups {[round(s, 3) for s in phase.setup_s]} s"
        )
        attribution = phase.extra.get("attribution")
        if attribution:
            wall = attribution["wall_s"]
            shares = sorted(attribution["per_layer_s"].items(), key=lambda kv: -kv[1])
            out.append("  layer self time share of client wall time: " + ", ".join(
                f"{layer} {value / wall:.1%}" for layer, value in shares
            ) + f", unattributed {attribution['unattributed_share']:.1%}")
        for key, value in sorted(phase.extra.get("notes", {}).items()):
            out.append(f"  {key}: {value}")
    for name, value in metrics.items():
        out.append(f"  {name:32s} {value:14.4f} {units[name]}")
    return out
