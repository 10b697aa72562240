"""Benchmark: chaos churn — the routed fleet under an injected fault schedule.

The router's failure story (:mod:`repro.service.router` +
:mod:`repro.service.resilience`) makes four promises that no fault-free
benchmark can check:

* **Correctness survives faults.**  Every identify that *succeeds* under
  injected worker crashes, hangs, corrupted/truncated IPC frames, and
  disk-cache I/O errors must be bit-identical to a fault-free replay of
  the same request against a single-process
  :class:`~repro.service.IdentificationService` over the same on-disk
  galleries.  Retries land on respawned workers that reload the same
  persisted shards; cache faults degrade to recomputes of content-keyed
  artifacts — neither may change a single byte of a response document.
* **Failures are bounded.**  Identify retries (bounded, idempotent-only)
  keep the client-visible error rate under a hard ceiling even while
  workers are being killed; a hung worker is detected by the per-request
  deadline and failed over within a bounded window instead of hanging the
  client forever.
* **Faults are observable.**  The schedule's injected hangs show up in
  ``worker_timeouts``, its process kills in ``respawns`` + the death log,
  and its disk faults in the aggregated ``disk_errors`` cache counter —
  the operator can see the chaos from the parent, not just feel it.
* **Nothing leaks.**  After the full schedule — including workers killed
  by ``os._exit`` mid-request — shutting the fleets down leaves zero
  ``repro-shm-*`` segments in ``/dev/shm`` and zero live worker children.

**Why the schedule is phased.**  :class:`~repro.runtime.faults.FaultPlan`
counters are per-process and a respawned worker starts a fresh plan, so
inside one fleet every incarnation replays the same schedule from index
zero — only the earliest process-ending rule would ever fire.  The chaos
schedule therefore runs as phases (crash → hang → corrupt → truncate →
cache-I/O), each a fresh fleet with one fault family over the *same*
shared gallery root, with continuous enroll churn and concurrent
identifies inside every phase, and the gates summed across phases.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_chaos_serving.py \
        --galleries 2 --subjects 8 --requests 6
"""

from __future__ import annotations

import argparse
import multiprocessing
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.hcp import HCPLikeDataset
from repro.service import (
    EnrollRequest,
    GalleryRegistry,
    GalleryRouter,
    IdentificationService,
    IdentifyRequest,
    ServiceConfig,
)
from repro.service.router import HashRing

#: Fleet size of every chaos phase.  Two workers keep the benchmark cheap
#: while still exercising cross-worker routing during failover.
CHAOS_WORKERS = 2

#: Per-request identify deadline of the chaos fleets.  Injected hangs
#: sleep far longer than this, so failover latency is deadline-driven.
DEFAULT_DEADLINE_S = 1.5

#: Extra identify attempts after a worker death/timeout (identify only).
DEFAULT_RETRY_ATTEMPTS = 2

#: Hard ceiling on the client-visible identify error rate across the whole
#: schedule.  Retries absorb most injected deaths; what remains (retry
#: budget exhausted mid-kill-storm) must stay a bounded minority.
DEFAULT_MAX_ERROR_RATE = 0.25

#: Gates on fault observability: the schedule injects enough faults that
#: the parent-side counters must show at least this much chaos.
DEFAULT_MIN_RESPAWNS = 3
DEFAULT_MIN_WORKER_TIMEOUTS = 1
DEFAULT_MIN_DISK_ERRORS = 1

#: Client-side backoff after a typed error response.  One worker death can
#: fail several concurrent requests at once and trip the arc's breaker;
#: a real client pauses on an error instead of tight-looping into the
#: fast-fail path, giving the health monitor's next ping time to heal it.
ERROR_BACKOFF_S = 0.05

#: Slack (seconds) added to the theoretical worst-case failover window
#: (deadline per attempt + backoff + respawn) when bounding the hang
#: phase's slowest identify.
FAILOVER_SLACK_S = 5.0

#: The injected fault schedule: one fault family per phase.  ``start``
#: indices are small so even smoke workloads reach them; process-ending
#: rules use ``limit=1`` and simply re-fire in the next incarnation,
#: which is what makes the churn continuous.
CHAOS_PHASES = (
    {
        "name": "crash",
        "rules": [{"site": "worker.crash", "start": 3, "limit": 1}],
        "fatal": True,
    },
    {
        "name": "hang",
        "rules": [{"site": "worker.hang", "start": 2, "limit": 1, "delay_s": 30.0}],
        "fatal": True,
    },
    {
        "name": "corrupt",
        "rules": [{"site": "ipc.corrupt_frame", "start": 3, "limit": 1}],
        "fatal": True,
    },
    {
        "name": "truncate",
        "rules": [{"site": "ipc.truncate_frame", "start": 3, "limit": 1}],
        "fatal": True,
    },
    {
        "name": "cache",
        "rules": [
            {"site": "cache.read_error", "start": 0, "every": 2, "limit": 6},
            {"site": "cache.write_error", "start": 1, "every": 3, "limit": 4},
            {"site": "worker.slow_reply", "start": 2, "every": 4, "limit": 2,
             "delay_s": 0.05},
        ],
        "fatal": False,
    },
)


def balanced_gallery_names(n_galleries: int, workers: int = CHAOS_WORKERS) -> list:
    """``n_galleries`` names the chaos ring spreads evenly over ``workers``."""
    ring = HashRing([f"worker-{index}" for index in range(workers)])
    per_worker = {member: [] for member in ring.members}
    quota, remainder = divmod(n_galleries, workers)
    candidate = 0
    names = []
    while len(names) < n_galleries:
        name = f"gal-{candidate:03d}"
        candidate += 1
        owner = ring.lookup(name)
        if len(per_worker[owner]) >= quota + (1 if remainder else 0):
            continue
        per_worker[owner].append(name)
        names.append(name)
    return sorted(names)


def build_chaos_workload(
    root: Path,
    n_galleries: int,
    n_subjects: int,
    n_regions: int,
    n_timepoints: int,
    n_features: int,
    churn_subjects: int,
    probes_per_request: int = 1,
    seed: int = 0,
):
    """Persist the identify galleries; return ``(probes, churn_scans)``.

    ``churn_scans`` is a separate cohort enrolled incrementally into
    per-phase churn galleries while the identify load runs.
    """
    config = ServiceConfig(n_features=n_features)
    probes = {}
    for index, name in enumerate(balanced_gallery_names(n_galleries)):
        dataset = HCPLikeDataset(
            n_subjects=n_subjects,
            n_regions=n_regions,
            n_timepoints=n_timepoints,
            random_state=seed + 101 * index,
        )
        registry = GalleryRegistry(root=root, config=config)
        registry.build(name, dataset.generate_session("REST", encoding="LR", day=1))
        registry.persist(name)
        probe_session = dataset.generate_session("REST", encoding="RL", day=2)
        probes[name] = list(probe_session[:probes_per_request])
    churn_dataset = HCPLikeDataset(
        n_subjects=max(2, churn_subjects),
        n_regions=n_regions,
        n_timepoints=n_timepoints,
        random_state=seed + 7919,
    )
    churn_scans = list(churn_dataset.generate_session("REST", encoding="LR", day=1))
    return probes, churn_scans


def _response_document(response) -> dict:
    """A response's comparable document: everything but per-run noise."""
    document = response.to_dict()
    document.pop("request_id", None)
    document.pop("timings", None)
    return document


def _shm_segments() -> list:
    """Live repro shared-memory segment names (the leak check)."""
    from repro.runtime.shm import SEGMENT_PREFIX

    shm_root = Path("/dev/shm")
    if not shm_root.exists():  # pragma: no cover - non-Linux
        return []
    return sorted(path.name for path in shm_root.glob(f"{SEGMENT_PREFIX}-*"))


def _router_children() -> list:
    """Live router worker child processes (the zombie check)."""
    return sorted(
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-router-")
    )


def _churn_driver(router, gallery: str, churn_scans, batch_size: int, stop):
    """Continuously enroll fresh subjects until the identify load finishes.

    Every batch targets the phase's churn gallery with ``create=True`` (the
    first batch builds it); under fatal faults an enroll may fail with the
    typed never-retried ``WorkerCrashed`` error — that is the contract, so
    failures are counted, not raised.
    """
    outcome = {"ok": 0, "errors": 0}
    cursor = 0
    while not stop.is_set() and cursor < len(churn_scans):
        batch = churn_scans[cursor:cursor + batch_size]
        cursor += batch_size
        response = router.enroll(
            EnrollRequest(gallery=gallery, scans=batch, create=True)
        )
        outcome["ok" if response.status == "ok" else "errors"] += 1
    return outcome


def _health_monitor(router, stop, interval_s: float = 0.1):
    """Poll ``healthz`` like a deployment monitor would.

    This is load-bearing, not cosmetic: a successful ping is what heals an
    open breaker, so without a monitor a kill-storm that trips an arc's
    breaker would leave it degraded (fast-failing) for the rest of the
    phase.  Returns the number of observed breaker heals.
    """
    heals = 0
    while not stop.is_set():
        try:
            document = router.healthz()
        except Exception:  # pragma: no cover - router closing under us
            break
        heals += sum(
            1 for entry in document.get("workers", {}).values()
            if entry.get("healed")
        )
        stop.wait(interval_s)
    return heals


def _drive_chaos_phase(router, probes, requests_per_gallery: int, reference):
    """Thread-per-gallery identify load; returns per-request outcomes.

    Each response is classified on the spot: bit-identical success,
    mismatched success (a correctness bug), or typed error (the bounded
    cost of the injected faults).
    """
    names = sorted(probes)
    outcomes = {
        name: {"ok": 0, "errors": 0, "mismatches": 0, "latencies_s": []}
        for name in names
    }
    barrier = threading.Barrier(len(names))

    def driver(name: str):
        entry = outcomes[name]
        barrier.wait()
        for _ in range(requests_per_gallery):
            start = time.perf_counter()
            response = router.identify(
                IdentifyRequest(gallery=name, scans=probes[name])
            )
            entry["latencies_s"].append(time.perf_counter() - start)
            if response.status != "ok":
                entry["errors"] += 1
                time.sleep(ERROR_BACKOFF_S)
            elif _response_document(response) == reference[name]:
                entry["ok"] += 1
            else:
                entry["mismatches"] += 1

    threads = [threading.Thread(target=driver, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def run_chaos_benchmark(
    n_galleries: int = 4,
    n_subjects: int = 12,
    n_regions: int = 16,
    n_timepoints: int = 60,
    n_features: int = 40,
    requests_per_gallery: int = 6,
    probes_per_request: int = 1,
    churn_batch: int = 2,
    deadline_s: float = DEFAULT_DEADLINE_S,
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
    max_resident_galleries: int = 2,
    seed: int = 0,
) -> dict:
    """Run the full phased fault schedule; return outcomes + gate inputs.

    Every phase spins a fresh 2-worker fleet over the same persisted
    galleries and shared disk-cache tier, injects its fault family via
    ``ServiceConfig.fault_plan``, and drives concurrent identifies plus an
    enroll-churn thread.  Success responses are compared bit-for-bit
    against a fault-free single-process replay captured up front.
    """
    if requests_per_gallery < 4:
        raise ValueError(
            "requests_per_gallery must be >= 4 so every phase's fault rule "
            f"(largest start index 3) actually fires, got {requests_per_gallery}"
        )
    segments_before = set(_shm_segments())
    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        root = Path(tmp)
        churn_subjects = 1 + churn_batch * len(CHAOS_PHASES)
        probes, churn_scans = build_chaos_workload(
            root,
            n_galleries=n_galleries,
            n_subjects=n_subjects,
            n_regions=n_regions,
            n_timepoints=n_timepoints,
            n_features=n_features,
            churn_subjects=churn_subjects,
            probes_per_request=probes_per_request,
            seed=seed,
        )
        base_config = ServiceConfig(
            n_features=n_features,
            max_galleries=max(1, int(max_resident_galleries)),
            cache_dir=str(root / "cache"),
            request_deadline_s=float(deadline_s),
            retry_attempts=int(retry_attempts),
        )

        # The fault-free replay oracle: one plain in-process service, no
        # fault plan, same persisted galleries and disk-cache tier.
        serial_registry = GalleryRegistry(root=root, config=base_config)
        serial = IdentificationService(registry=serial_registry, config=base_config)
        try:
            reference = {
                name: _response_document(
                    serial.identify(IdentifyRequest(gallery=name, scans=scans))
                )
                for name, scans in probes.items()
            }
        finally:
            serial.close()

        phases = {}
        totals = {
            "requests": 0, "ok": 0, "errors": 0, "mismatches": 0,
            "respawns": 0, "worker_timeouts": 0, "disk_errors": 0,
            "churn_ok": 0, "churn_errors": 0,
        }
        all_latencies = []
        hang_max_latency_s = 0.0
        for phase in CHAOS_PHASES:
            config = base_config.replace(
                fault_plan={"seed": seed, "rules": [dict(r) for r in phase["rules"]]}
            )
            router = GalleryRouter(root, config=config, workers=CHAOS_WORKERS)
            try:
                stop = threading.Event()
                churn_result = {}
                monitor_result = {}

                def churn(result=churn_result, router=router, phase=phase):
                    result.update(_churn_driver(
                        router, f"churn-{phase['name']}", churn_scans,
                        churn_batch, stop,
                    ))

                def monitor(result=monitor_result, router=router):
                    result["heals"] = _health_monitor(router, stop)

                churn_thread = threading.Thread(target=churn)
                monitor_thread = threading.Thread(target=monitor)
                churn_thread.start()
                monitor_thread.start()
                try:
                    outcomes = _drive_chaos_phase(
                        router, probes, requests_per_gallery, reference
                    )
                finally:
                    stop.set()
                    churn_thread.join()
                    monitor_thread.join()
                stats = router.stats()
                disk_errors = sum(
                    int(entry.get("disk_errors", 0))
                    for entry in stats.cache_kinds.values()
                )
                latencies = [
                    sample
                    for entry in outcomes.values()
                    for sample in entry["latencies_s"]
                ]
                record = {
                    "requests": len(latencies),
                    "ok": sum(e["ok"] for e in outcomes.values()),
                    "errors": sum(e["errors"] for e in outcomes.values()),
                    "mismatches": sum(e["mismatches"] for e in outcomes.values()),
                    "respawns": router.respawns,
                    "worker_timeouts": router.worker_timeouts,
                    "disk_errors": disk_errors,
                    "deaths": router.deaths,
                    "churn_ok": churn_result.get("ok", 0),
                    "churn_errors": churn_result.get("errors", 0),
                    "breaker_heals": monitor_result.get("heals", 0),
                    "max_latency_ms": float(1e3 * max(latencies)),
                    "p50_latency_ms": float(1e3 * np.percentile(latencies, 50)),
                }
                phases[phase["name"]] = record
                for key in ("requests", "ok", "errors", "mismatches",
                            "respawns", "worker_timeouts", "disk_errors",
                            "churn_ok", "churn_errors"):
                    totals[key] += record[key]
                all_latencies.extend(latencies)
                if phase["name"] == "hang":
                    hang_max_latency_s = max(latencies)
            finally:
                router.close()

    leaked = sorted(set(_shm_segments()) - segments_before)
    failover_bound_s = float(deadline_s) * (1 + int(retry_attempts)) + FAILOVER_SLACK_S
    return {
        "n_galleries": n_galleries,
        "n_subjects": n_subjects,
        "n_regions": n_regions,
        "n_timepoints": n_timepoints,
        "requests_per_gallery": requests_per_gallery,
        "probes_per_request": probes_per_request,
        "deadline_s": float(deadline_s),
        "retry_attempts": int(retry_attempts),
        "workers": CHAOS_WORKERS,
        "phases": phases,
        "totals": totals,
        "error_rate": (
            totals["errors"] / totals["requests"] if totals["requests"] else 0.0
        ),
        "bitwise_equal": totals["mismatches"] == 0,
        "latency": {
            "p50_ms": float(1e3 * np.percentile(all_latencies, 50)),
            "p99_ms": float(1e3 * np.percentile(all_latencies, 99)),
            "max_ms": float(1e3 * max(all_latencies)),
        },
        "hang_max_latency_s": float(hang_max_latency_s),
        "failover_bound_s": failover_bound_s,
        "leaked_segments": leaked,
        "zombie_children": _router_children(),
    }


def evaluate_gates(
    outcome: dict,
    max_error_rate: float = DEFAULT_MAX_ERROR_RATE,
    min_respawns: int = DEFAULT_MIN_RESPAWNS,
    min_worker_timeouts: int = DEFAULT_MIN_WORKER_TIMEOUTS,
    min_disk_errors: int = DEFAULT_MIN_DISK_ERRORS,
) -> list:
    """The chaos hard gates; returns a list of human-readable failures."""
    failures = []
    totals = outcome["totals"]
    if not outcome["bitwise_equal"]:
        failures.append(
            f"{totals['mismatches']} successful response(s) diverged from the "
            "fault-free replay (correctness must survive faults bit-for-bit)"
        )
    if outcome["error_rate"] > max_error_rate:
        failures.append(
            f"identify error rate {outcome['error_rate']:.3f} exceeds the "
            f"{max_error_rate:.3f} ceiling ({totals['errors']}/{totals['requests']})"
        )
    if totals["respawns"] < min_respawns:
        failures.append(
            f"only {totals['respawns']} respawn(s) observed (schedule must "
            f"inject >= {min_respawns} worker deaths)"
        )
    if totals["worker_timeouts"] < min_worker_timeouts:
        failures.append(
            f"only {totals['worker_timeouts']} worker timeout(s) observed "
            f"(hang phase must trip the deadline >= {min_worker_timeouts}x)"
        )
    if totals["disk_errors"] < min_disk_errors:
        failures.append(
            f"only {totals['disk_errors']} disk-cache error(s) observed "
            f"(cache phase must inject >= {min_disk_errors})"
        )
    if outcome["hang_max_latency_s"] > outcome["failover_bound_s"]:
        failures.append(
            f"slowest hang-phase identify took {outcome['hang_max_latency_s']:.2f}s "
            f"> failover bound {outcome['failover_bound_s']:.2f}s (hung workers "
            "must fail over within the deadline budget)"
        )
    if outcome["leaked_segments"]:
        failures.append(f"leaked shm segments: {outcome['leaked_segments']}")
    if outcome["zombie_children"]:
        failures.append(f"leaked worker processes: {outcome['zombie_children']}")
    return failures


def trajectory_record(outcome: dict) -> dict:
    """The ``BENCH_chaos.json`` trajectory record of one benchmark outcome."""
    return {
        "benchmark": "chaos_serving",
        "workload": {
            "n_galleries": outcome["n_galleries"],
            "n_subjects": outcome["n_subjects"],
            "n_regions": outcome["n_regions"],
            "n_timepoints": outcome["n_timepoints"],
            "requests_per_gallery": outcome["requests_per_gallery"],
            "probes_per_request": outcome["probes_per_request"],
            "workers": outcome["workers"],
            "deadline_s": outcome["deadline_s"],
            "retry_attempts": outcome["retry_attempts"],
        },
        "phases": outcome["phases"],
        "totals": outcome["totals"],
        "error_rate": outcome["error_rate"],
        "bitwise_equal": outcome["bitwise_equal"],
        "latency": outcome["latency"],
        "hang_max_latency_s": outcome["hang_max_latency_s"],
        "failover_bound_s": outcome["failover_bound_s"],
        "leaked_segments": outcome["leaked_segments"],
        "zombie_children": outcome["zombie_children"],
        "gate_failures": evaluate_gates(outcome),
    }


def test_chaos_schedule_gates(benchmark):
    """Acceptance chaos run: full phased schedule, every hard gate enforced."""
    outcome = benchmark.pedantic(run_chaos_benchmark, rounds=1, iterations=1)
    failures = evaluate_gates(outcome)
    print(
        f"\nchaos: {outcome['totals']['ok']}/{outcome['totals']['requests']} "
        f"bit-identical, {outcome['totals']['respawns']} respawns, "
        f"{outcome['totals']['worker_timeouts']} timeouts, "
        f"{outcome['totals']['disk_errors']} disk errors, "
        f"p50 {outcome['latency']['p50_ms']:.1f} ms / "
        f"p99 {outcome['latency']['p99_ms']:.1f} ms"
    )
    assert not failures, "chaos gates failed:\n- " + "\n- ".join(failures)


@pytest.mark.slow
def test_chaos_soak(benchmark):
    """Soak variant: a longer schedule for nightly/manual runs."""
    outcome = benchmark.pedantic(
        lambda: run_chaos_benchmark(
            n_galleries=6, n_subjects=24, requests_per_gallery=16,
        ),
        rounds=1,
        iterations=1,
    )
    failures = evaluate_gates(outcome, min_respawns=8)
    assert not failures, "chaos soak gates failed:\n- " + "\n- ".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--galleries", type=int, default=4)
    parser.add_argument("--subjects", type=int, default=12)
    parser.add_argument("--regions", type=int, default=16)
    parser.add_argument("--timepoints", type=int, default=60)
    parser.add_argument("--features", type=int, default=40)
    parser.add_argument("--requests", type=int, default=6,
                        help="identify requests per gallery per phase (>= 4)")
    parser.add_argument("--probes", type=int, default=1,
                        help="probe scans per request")
    parser.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE_S,
                        help="per-request identify deadline (seconds)")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRY_ATTEMPTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-error-rate", type=float,
                        default=DEFAULT_MAX_ERROR_RATE)
    parser.add_argument("--min-respawns", type=int, default=DEFAULT_MIN_RESPAWNS)
    parser.add_argument("--min-timeouts", type=int,
                        default=DEFAULT_MIN_WORKER_TIMEOUTS)
    parser.add_argument("--min-disk-errors", type=int,
                        default=DEFAULT_MIN_DISK_ERRORS)
    args = parser.parse_args()
    outcome = run_chaos_benchmark(
        n_galleries=args.galleries,
        n_subjects=args.subjects,
        n_regions=args.regions,
        n_timepoints=args.timepoints,
        n_features=min(args.features, args.regions * (args.regions - 1) // 2),
        requests_per_gallery=args.requests,
        probes_per_request=args.probes,
        deadline_s=args.deadline,
        retry_attempts=args.retries,
        seed=args.seed,
    )
    for name, record in outcome["phases"].items():
        print(
            f"phase {name:<9}: {record['ok']}/{record['requests']} bit-identical, "
            f"{record['errors']} error(s), {record['respawns']} respawn(s), "
            f"{record['worker_timeouts']} timeout(s), "
            f"{record['disk_errors']} disk error(s), "
            f"churn {record['churn_ok']}+{record['churn_errors']}err, "
            f"max latency {record['max_latency_ms']:.0f} ms"
        )
    print(
        "totals        : error rate {error_rate:.3f}, bitwise equal "
        "{bitwise_equal}, p50 {p50:.1f} ms / p99 {p99:.1f} ms".format(
            error_rate=outcome["error_rate"],
            bitwise_equal=outcome["bitwise_equal"],
            p50=outcome["latency"]["p50_ms"],
            p99=outcome["latency"]["p99_ms"],
        )
    )
    failures = evaluate_gates(
        outcome,
        max_error_rate=args.max_error_rate,
        min_respawns=args.min_respawns,
        min_worker_timeouts=args.min_timeouts,
        min_disk_errors=args.min_disk_errors,
    )
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    if not failures:
        print("all chaos gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
