"""Import-check every benchmark module (CI benchmark-smoke job).

Benchmarks only execute under pytest-benchmark, but import-time breakage
(renamed experiment functions, moved helpers) should fail fast in CI without
paying for a full benchmark run.  This script imports every
``benchmarks/bench_*.py`` module with the benchmarks directory on
``sys.path`` (mirroring how pytest resolves their ``conftest`` import).

With ``--backend-trajectory PATH`` it additionally *runs* the backend
matching benchmark and writes its trajectory record (selected backend and
precision outcomes; float32 top-1 agreement is the hard gate) to PATH — the
``BENCH_backend.json`` artifact the CI smoke job uploads so speedups can be
tracked across commits.  ``--http-trajectory PATH`` does the same for the HTTP serving
benchmark, writing the wire-overhead ratio per codec (JSON vs binary
frames) to PATH (``BENCH_http.json`` in CI).  ``--index-trajectory PATH``
runs the candidate-pruning index benchmark and writes its per-size
speedups, p50/p99 latencies, and top-1 agreement verdict to PATH
(``BENCH_index.json`` in CI); top-1 agreement is the hard gate, the
speedups are recorded for trajectory tracking.  ``--router-trajectory
PATH`` runs the gallery-router scaling benchmark and writes the 4-vs-1
worker aggregate throughput plus the routed bit-identity verdict (IPC and
both HTTP codecs) to PATH (``BENCH_router.json`` in CI); bit-identity is
the hard gate, the speedup is recorded for trajectory tracking.
``--chaos-trajectory PATH`` runs the chaos-churn serving benchmark — the
phased fault schedule (worker crash, hang, corrupted/truncated IPC
frames, disk-cache I/O errors) under concurrent identify + enroll churn —
and writes per-phase outcomes, p50/p99 latency, and every hard-gate
verdict to PATH (``BENCH_chaos.json`` in CI); all of its gates
(bit-identity to the fault-free replay, bounded error rate, observable
respawns/timeouts/disk errors, bounded hung-worker failover, zero leaked
segments or worker processes) are hard gates.  ``--fleet-trajectory PATH``
runs the fleet-churn benchmark — the live membership schedule (2 → 3 → 4
→ 3 via ``add_worker``/``remove_worker``) under concurrent identify +
enroll load — and writes per-step remap fractions, drain outcomes, and
every hard-gate verdict to PATH (``BENCH_fleet.json`` in CI); all of its
gates (bit-identity to the resize-free replay, zero identify errors,
durable-or-safe-to-resend enrolls, remap <= 1.5/N per step, clean drains
within the deadline, zero leaks) are hard gates.

Usage::

    PYTHONPATH=src python scripts/check_benchmarks.py
    PYTHONPATH=src python scripts/check_benchmarks.py --backend-trajectory BENCH_backend.json
    PYTHONPATH=src python scripts/check_benchmarks.py --http-trajectory BENCH_http.json
    PYTHONPATH=src python scripts/check_benchmarks.py --index-trajectory BENCH_index.json
    PYTHONPATH=src python scripts/check_benchmarks.py --router-trajectory BENCH_router.json
    PYTHONPATH=src python scripts/check_benchmarks.py --chaos-trajectory BENCH_chaos.json
    PYTHONPATH=src python scripts/check_benchmarks.py --fleet-trajectory BENCH_fleet.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

#: Benchmarks CI depends on (smoke-run directly in the workflow); a rename or
#: deletion should fail here, not in a YAML file nobody executes locally.
REQUIRED_BENCHMARKS = {
    "bench_runtime_batching",
    "bench_gallery_matching",
    "bench_service_batching",
    "bench_backend_matching",
    "bench_http_serving",
    "bench_index_pruning",
    "bench_router_scaling",
    "bench_chaos_serving",
    "bench_fleet_churn",
}


def _benchmarks_on_path() -> Path:
    """Make ``benchmarks/`` importable (idempotent); returns the directory."""
    benchmarks_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    if str(benchmarks_dir) not in sys.path:
        sys.path.insert(0, str(benchmarks_dir))
    return benchmarks_dir


def write_backend_trajectory(path: Path) -> dict:
    """Run the backend benchmark and write its trajectory record to ``path``.

    Runs the acceptance workload (256-subject x 400-feature gallery, 256
    probes).  The record carries the selected backend name and the
    precision outcomes (per-backend timings, speedups, top-1 agreement).
    """
    _benchmarks_on_path()
    import bench_backend_matching as bench

    precision = bench.run_precision_benchmark()
    record = bench.trajectory_record(precision)
    path.write_text(json.dumps(record, indent=2))
    return record


def write_http_trajectory(path: Path) -> dict:
    """Run the HTTP serving benchmark and write its trajectory record.

    Runs the acceptance workload (64-subject x 100-region gallery, one
    pipelined single-probe request per subject over 4 keep-alive clients)
    under both wire codecs — the only scale at which the ≤5x binary-codec
    bound is meaningful.  The record carries the wire-overhead ratio per
    codec and the binary-vs-JSON speedup.
    """
    _benchmarks_on_path()
    import bench_http_serving as bench

    outcome = bench.run_http_benchmark()
    record = bench.trajectory_record(outcome)
    path.write_text(json.dumps(record, indent=2))
    return record


def write_index_trajectory(path: Path, sizes=None) -> dict:
    """Run the index pruning benchmark and write its trajectory record.

    Runs the acceptance trajectory (1k / 10k / 100k gallery columns) by
    default; ``sizes`` overrides it for smoke runs.  The record carries the
    per-size p50/p99 latencies and speedups plus the top-1 agreement
    verdict — agreement is the hard gate, the speedups are trajectory data
    (CI boxes are too noisy to pin a ratio here; the pytest-benchmark test
    owns the >= 5x bound).
    """
    _benchmarks_on_path()
    import bench_index_pruning as bench

    kwargs = {} if sizes is None else {"sizes": tuple(sizes)}
    outcome = bench.run_pruning_benchmark(**kwargs)
    record = bench.trajectory_record(outcome)
    path.write_text(json.dumps(record, indent=2))
    return record


def write_router_trajectory(
    path: Path, galleries=None, subjects=None, requests=None
) -> dict:
    """Run the gallery-router scaling benchmark and write its trajectory.

    Runs the acceptance workload (16 galleries of 96 subjects over a
    4-gallery-per-worker residency cap, 4 workers vs 1) by default; the
    keyword overrides shrink it for smoke runs.  The record carries the
    aggregate warm-throughput speedup and the routed bit-identity verdict
    (IPC transport plus both HTTP codecs) — bit-identity is the hard gate,
    the speedup is trajectory data (CI boxes are too noisy to pin a ratio
    here; the pytest-benchmark test owns the >= 2x acceptance bound).
    """
    _benchmarks_on_path()
    import bench_router_scaling as bench

    kwargs = {}
    if galleries is not None:
        kwargs["n_galleries"] = int(galleries)
    if subjects is not None:
        kwargs["n_subjects"] = int(subjects)
    if requests is not None:
        kwargs["requests_per_gallery"] = int(requests)
    outcome = bench.run_router_benchmark(**kwargs)
    record = bench.trajectory_record(outcome)
    path.write_text(json.dumps(record, indent=2))
    return record


def write_chaos_trajectory(
    path: Path, galleries=None, subjects=None, requests=None
) -> dict:
    """Run the chaos-churn serving benchmark and write its trajectory.

    Runs the full phased fault schedule (crash → hang → corrupt →
    truncate → cache-I/O) at the acceptance workload by default; the
    keyword overrides shrink it for smoke runs.  The record carries
    per-phase outcomes, aggregate p50/p99 latency, and — unlike the other
    trajectories — a ``gate_failures`` list in which *every* entry is a
    hard failure: correctness under faults has no soft mode.
    """
    _benchmarks_on_path()
    import bench_chaos_serving as bench

    kwargs = {}
    if galleries is not None:
        kwargs["n_galleries"] = int(galleries)
    if subjects is not None:
        kwargs["n_subjects"] = int(subjects)
    if requests is not None:
        kwargs["requests_per_gallery"] = int(requests)
    outcome = bench.run_chaos_benchmark(**kwargs)
    record = bench.trajectory_record(outcome)
    path.write_text(json.dumps(record, indent=2))
    return record


def write_fleet_trajectory(
    path: Path, galleries=None, subjects=None, hold=None
) -> dict:
    """Run the fleet-churn benchmark and write its trajectory record.

    Runs the live membership schedule (2 → 3 → 4 → 3) under concurrent
    identify + enroll load at the acceptance workload by default; the
    keyword overrides shrink it for smoke runs.  The record carries
    per-step remap fractions and drain outcomes plus a ``gate_failures``
    list in which *every* entry is a hard failure: correctness across a
    resize has no soft mode.
    """
    _benchmarks_on_path()
    import bench_fleet_churn as bench

    kwargs = {}
    if galleries is not None:
        kwargs["n_galleries"] = int(galleries)
    if subjects is not None:
        kwargs["n_subjects"] = int(subjects)
    if hold is not None:
        kwargs["hold_s"] = float(hold)
    outcome = bench.run_fleet_churn_benchmark(**kwargs)
    record = bench.trajectory_record(outcome)
    path.write_text(json.dumps(record, indent=2))
    return record


def run_import_checks() -> int:
    """Import every ``benchmarks/bench_*.py`` module; 0 when all succeed.

    Imports resolve against the benchmarks directory (mirroring how pytest
    resolves their ``conftest`` import), so this must run in a process that
    has not already bound ``conftest`` to something else.
    """
    benchmarks_dir = _benchmarks_on_path()
    failures = []
    modules = sorted(path.stem for path in benchmarks_dir.glob("bench_*.py"))
    missing = REQUIRED_BENCHMARKS - set(modules)
    if missing:
        for module_name in sorted(missing):
            print(f"FAIL {module_name}: required benchmark module is missing")
        return 1
    for module_name in modules:
        try:
            importlib.import_module(module_name)
            print(f"ok   {module_name}")
        except Exception as exc:  # surface every broken module, not just the first
            failures.append((module_name, exc))
            print(f"FAIL {module_name}: {type(exc).__name__}: {exc}")
    print(f"{len(modules) - len(failures)}/{len(modules)} benchmark modules import cleanly")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend-trajectory", metavar="PATH", default=None,
        help="run the backend matching benchmark and write its trajectory "
        "record (backend name + precision outcomes) to PATH",
    )
    parser.add_argument(
        "--http-trajectory", metavar="PATH", default=None,
        help="run the HTTP serving benchmark and write its trajectory "
        "record (wire-overhead ratio per codec) to PATH",
    )
    parser.add_argument(
        "--index-trajectory", metavar="PATH", default=None,
        help="run the candidate-pruning index benchmark and write its "
        "trajectory record (per-size speedups, p50/p99, top-1 agreement) "
        "to PATH",
    )
    parser.add_argument(
        "--index-sizes", metavar="N,N,...", default=None,
        help="override the gallery sizes of --index-trajectory "
        "(comma-separated; default: the 1k/10k/100k acceptance trajectory)",
    )
    parser.add_argument(
        "--router-trajectory", metavar="PATH", default=None,
        help="run the gallery-router scaling benchmark and write its "
        "trajectory record (4-vs-1 worker throughput, routed bit-identity) "
        "to PATH",
    )
    parser.add_argument(
        "--router-galleries", metavar="N", type=int, default=None,
        help="override the gallery count of --router-trajectory (smoke runs)",
    )
    parser.add_argument(
        "--router-subjects", metavar="N", type=int, default=None,
        help="override the subjects per gallery of --router-trajectory",
    )
    parser.add_argument(
        "--router-requests", metavar="N", type=int, default=None,
        help="override the requests per gallery of --router-trajectory",
    )
    parser.add_argument(
        "--chaos-trajectory", metavar="PATH", default=None,
        help="run the chaos-churn serving benchmark (phased fault schedule "
        "under concurrent identify + enroll churn) and write its trajectory "
        "record (per-phase outcomes, p50/p99, hard-gate verdicts) to PATH",
    )
    parser.add_argument(
        "--chaos-galleries", metavar="N", type=int, default=None,
        help="override the gallery count of --chaos-trajectory (smoke runs)",
    )
    parser.add_argument(
        "--chaos-subjects", metavar="N", type=int, default=None,
        help="override the subjects per gallery of --chaos-trajectory",
    )
    parser.add_argument(
        "--chaos-requests", metavar="N", type=int, default=None,
        help="override the identify requests per gallery per phase of "
        "--chaos-trajectory (>= 4 so every fault rule fires)",
    )
    parser.add_argument(
        "--fleet-trajectory", metavar="PATH", default=None,
        help="run the fleet-churn benchmark (live 2→3→4→3 membership "
        "schedule under concurrent identify + enroll load) and write its "
        "trajectory record (per-step remap fractions, drain outcomes, "
        "hard-gate verdicts) to PATH",
    )
    parser.add_argument(
        "--fleet-galleries", metavar="N", type=int, default=None,
        help="override the gallery count of --fleet-trajectory (smoke runs)",
    )
    parser.add_argument(
        "--fleet-subjects", metavar="N", type=int, default=None,
        help="override the subjects per gallery of --fleet-trajectory",
    )
    parser.add_argument(
        "--fleet-hold", metavar="SECONDS", type=float, default=None,
        help="override the load hold between membership steps of "
        "--fleet-trajectory",
    )
    args = parser.parse_args(argv)

    if run_import_checks() != 0:
        return 1

    if args.backend_trajectory:
        record = write_backend_trajectory(Path(args.backend_trajectory))
        precision = record["precision"]
        print(
            "backend trajectory: backend={backend} "
            "float32_speedup={speedup:.2f}x "
            "float32_top1_agreement={agreement:.2f} -> {path}".format(
                backend=record["backend"],
                speedup=precision["float32_speedup"],
                agreement=precision["float32_top1_agreement"],
                path=args.backend_trajectory,
            )
        )
        if precision["float32_top1_agreement"] != 1.0:
            print("FAIL backend trajectory: float32 changed a top-1 identity")
            return 1

    if args.http_trajectory:
        record = write_http_trajectory(Path(args.http_trajectory))
        codecs = record["codecs"]
        print(
            "http trajectory: json={json_oh:.1f}x binary={bin_oh:.1f}x "
            "binary_vs_json={speedup:.1f}x bitwise_equal={equal} -> {path}".format(
                json_oh=codecs["json"]["overhead"],
                bin_oh=codecs["binary"]["overhead"],
                speedup=record["binary_vs_json_speedup"] or float("nan"),
                equal=record["bitwise_equal"],
                path=args.http_trajectory,
            )
        )
        # Correctness is the hard gate here; the overhead ratios are
        # recorded for trajectory tracking (CI boxes are too noisy to pin).
        if not record["bitwise_equal"]:
            print("FAIL http trajectory: responses diverged from serial identify")
            return 1
        if record["max_http_batch"] <= 1:
            print("FAIL http trajectory: pipelined HTTP clients did not coalesce")
            return 1

    if args.index_trajectory:
        sizes = None
        if args.index_sizes:
            sizes = [int(token) for token in args.index_sizes.split(",") if token]
        record = write_index_trajectory(Path(args.index_trajectory), sizes=sizes)
        largest = max(record["entries"], key=lambda entry: entry["n_columns"])
        print(
            "index trajectory: speedup_at_max={speedup:.1f}x "
            "(at {columns} columns, ratio {ratio:.3f}) "
            "top1_agreement={agreement} -> {path}".format(
                speedup=record["speedup_at_max"],
                columns=largest["n_columns"],
                ratio=largest["pruning_ratio"],
                agreement=record["top1_agreement"],
                path=args.index_trajectory,
            )
        )
        # Exactness is the hard gate; the speedup is trajectory data (the
        # pytest-benchmark test owns the >= 5x acceptance bound).
        if not record["top1_agreement"]:
            print("FAIL index trajectory: pruned matching diverged from full scan")
            return 1

    if args.router_trajectory:
        record = write_router_trajectory(
            Path(args.router_trajectory),
            galleries=args.router_galleries,
            subjects=args.router_subjects,
            requests=args.router_requests,
        )
        print(
            "router trajectory: speedup={speedup:.2f}x "
            "({workers} workers vs 1) bitwise_equal={equal} "
            "http_codecs={codecs} -> {path}".format(
                speedup=record["speedup"],
                workers=record["fleet_workers"],
                equal=record["bitwise_equal"],
                codecs=record["http_codecs"],
                path=args.router_trajectory,
            )
        )
        # Bit-identity is the hard gate; the speedup is trajectory data
        # (the pytest-benchmark test owns the >= 2x acceptance bound).
        if not record["bitwise_equal"]:
            print("FAIL router trajectory: routed responses diverged from single-process serving")
            return 1

    if args.chaos_trajectory:
        record = write_chaos_trajectory(
            Path(args.chaos_trajectory),
            galleries=args.chaos_galleries,
            subjects=args.chaos_subjects,
            requests=args.chaos_requests,
        )
        totals = record["totals"]
        print(
            "chaos trajectory: {ok}/{requests} bit-identical, "
            "error_rate={rate:.3f}, respawns={respawns}, "
            "timeouts={timeouts}, disk_errors={disk}, "
            "p50={p50:.1f}ms p99={p99:.1f}ms -> {path}".format(
                ok=totals["ok"],
                requests=totals["requests"],
                rate=record["error_rate"],
                respawns=totals["respawns"],
                timeouts=totals["worker_timeouts"],
                disk=totals["disk_errors"],
                p50=record["latency"]["p50_ms"],
                p99=record["latency"]["p99_ms"],
                path=args.chaos_trajectory,
            )
        )
        # Every chaos gate is hard: correctness under faults has no soft mode.
        if record["gate_failures"]:
            for failure in record["gate_failures"]:
                print(f"FAIL chaos trajectory: {failure}")
            return 1

    if args.fleet_trajectory:
        record = write_fleet_trajectory(
            Path(args.fleet_trajectory),
            galleries=args.fleet_galleries,
            subjects=args.fleet_subjects,
            hold=args.fleet_hold,
        )
        totals = record["totals"]
        remap = ", ".join(
            "{action} {frac:.3f}/{bound:.3f}".format(
                action=step["action"],
                frac=step["remap_fraction"],
                bound=step["remap_bound"],
            )
            for step in record["steps"]
        )
        print(
            "fleet trajectory: {ok}/{requests} bit-identical, "
            "{errors} error(s), churn {churn_ok}+{resends} resend(s), "
            "remap [{remap}], members={members} -> {path}".format(
                ok=totals["ok"],
                requests=totals["requests"],
                errors=totals["errors"],
                churn_ok=totals["churn_ok"],
                resends=totals["churn_resends"],
                remap=remap,
                members=len(record["final_members"]),
                path=args.fleet_trajectory,
            )
        )
        # Every fleet gate is hard: correctness across a resize has no
        # soft mode.
        if record["gate_failures"]:
            for failure in record["gate_failures"]:
                print(f"FAIL fleet trajectory: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
