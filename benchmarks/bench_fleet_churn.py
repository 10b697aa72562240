"""Benchmark: fleet churn — live resizes under identify + enroll load.

The fleet control plane (:mod:`repro.service.fleet`) makes four promises
that no fixed-membership benchmark can check:

* **Correctness survives resizes.**  Every identify that succeeds while
  workers join and leave must be bit-identical to a resize-free replay of
  the same request against a single-process
  :class:`~repro.service.IdentificationService` over the same on-disk
  galleries.  A joining worker is warmed *before* the ring commits; a
  leaving worker drains *after* the ring commits — so no request ever
  observes a partially-moved gallery.
* **Resizes are invisible to clients.**  With the ring committed before
  the drain and identify re-routing on :class:`WorkerRetired`, the
  client-visible identify error count across the whole schedule is zero —
  not merely bounded.  Enrolls that race a removal either complete
  durably or fail with the typed safe-to-resend error; one resend then
  lands on the new owner.
* **Movement is minimal.**  Consistent hashing bounds each step's key
  remap near 1/N; the gate allows 1.5/N (N = the larger fleet) measured
  over a fixed synthetic key population.
* **Departures are clean.**  Every removal reports ``drained=True``
  within the drain deadline, and after the schedule plus shutdown there
  are zero leaked ``repro-shm-*`` segments and zero live worker children.

The schedule is 2 → 3 → 4 → 3 (add, add, remove) with continuous
identify load and enroll churn held across every step.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_fleet_churn.py \
        --galleries 3 --subjects 6 --hold 0.4
"""

from __future__ import annotations

import argparse
import multiprocessing
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets.hcp import HCPLikeDataset
from repro.service import (
    EnrollRequest,
    GalleryRegistry,
    GalleryRouter,
    IdentificationService,
    IdentifyRequest,
    ServiceConfig,
)

#: Fleet size the schedule starts from (it grows to 4, then shrinks to 3).
INITIAL_WORKERS = 2

#: The membership schedule: 2 → 3 → 4 → 3.
SCHEDULE = ("add", "add", "remove")

#: Per-step remap gate: remapped key fraction <= REMAP_FACTOR / N where N
#: is the larger of the two fleet sizes.  Consistent hashing lands near
#: 1/N; the factor absorbs virtual-node placement variance.
REMAP_FACTOR = 1.5

#: Extra identify attempts; one absorbs a WorkerRetired re-route.
DEFAULT_RETRY_ATTEMPTS = 2

#: Drain deadline of the benchmark fleets (seconds) — far above a healthy
#: drain (sub-second) but finite, so a stuck drain fails the gate.
DEFAULT_DRAIN_DEADLINE_S = 10.0

#: Slack (seconds) on the observed drain duration gate.
DRAIN_SLACK_S = 1.0


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


def build_fleet_workload(
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
    """Persist the identify galleries; return ``(probes, churn_scans)``."""
    config = ServiceConfig(n_features=n_features)
    probes = {}
    for index in range(n_galleries):
        name = f"gal-{index:03d}"
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


def _identify_driver(router, name, scans, reference_doc, stop, outcome):
    """Identify ``name`` in a loop until ``stop``; classify every response."""
    while not stop.is_set():
        start = time.perf_counter()
        response = router.identify(IdentifyRequest(gallery=name, scans=scans))
        outcome["latencies_s"].append(time.perf_counter() - start)
        if response.status != "ok":
            outcome["errors"] += 1
            outcome["error_samples"].append(response.error)
        elif _response_document(response) == reference_doc:
            outcome["ok"] += 1
        else:
            outcome["mismatches"] += 1
        stop.wait(0.01)


def _churn_driver(router, churn_scans, batch_size, stop, outcome):
    """Enroll fresh subjects into churn galleries until ``stop``.

    An enroll that races a worker removal fails with the typed
    safe-to-resend error (no write occurred); the driver resends it once —
    the resend routes to the new owner.  Any other failure, or a failed
    resend, is a durability bug and counts as ``failed``.
    """
    cursor = 0
    gallery_index = 0
    while not stop.is_set():
        if cursor >= len(churn_scans):
            cursor = 0
            gallery_index += 1
        batch = churn_scans[cursor:cursor + batch_size]
        cursor += batch_size
        request = EnrollRequest(
            gallery=f"churn-{gallery_index:02d}", scans=batch, create=True
        )
        response = router.enroll(request)
        if response.status == "ok":
            outcome["ok"] += 1
            continue
        if response.error and "resending is safe" in response.error:
            outcome["resends"] += 1
            retry = router.enroll(request)
            if retry.status == "ok":
                outcome["ok"] += 1
            else:
                outcome["failed"] += 1
                outcome["failure_samples"].append(retry.error)
        else:
            outcome["failed"] += 1
            outcome["failure_samples"].append(response.error)


def _remap_fraction(before: dict, after: dict) -> float:
    """Fraction of keys whose owner changed between two placements."""
    moved = sum(1 for key, owner in before.items() if after[key] != owner)
    return moved / len(before) if before else 0.0


def run_fleet_churn_benchmark(
    n_galleries: int = 6,
    n_subjects: int = 10,
    n_regions: int = 16,
    n_timepoints: int = 60,
    n_features: int = 40,
    probes_per_request: int = 1,
    churn_batch: int = 2,
    hold_s: float = 0.8,
    placement_keys: int = 2048,
    drain_deadline_s: float = DEFAULT_DRAIN_DEADLINE_S,
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
    max_resident_galleries: int = 2,
    seed: int = 0,
) -> dict:
    """Run the 2→3→4→3 schedule under load; return outcomes + gate inputs.

    ``hold_s`` is how long the load runs between membership steps — long
    enough that every fleet size serves real traffic.  ``placement_keys``
    synthetic keys are snapshotted through ``fleet.placement`` around each
    step to measure the remapped fraction.
    """
    segments_before = set(_shm_segments())
    keys = [f"key-{index:05d}" for index in range(placement_keys)]
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        root = Path(tmp)
        probes, churn_scans = build_fleet_workload(
            root,
            n_galleries=n_galleries,
            n_subjects=n_subjects,
            n_regions=n_regions,
            n_timepoints=n_timepoints,
            n_features=n_features,
            churn_subjects=max(2, 2 * churn_batch),
            probes_per_request=probes_per_request,
            seed=seed,
        )
        config = ServiceConfig(
            n_features=n_features,
            max_galleries=max(1, int(max_resident_galleries)),
            cache_dir=str(root / "cache"),
            retry_attempts=int(retry_attempts),
            drain_deadline_s=float(drain_deadline_s),
        )

        # The resize-free replay oracle: one plain in-process service over
        # the same persisted galleries.
        serial_registry = GalleryRegistry(root=root, config=config)
        serial = IdentificationService(registry=serial_registry, config=config)
        try:
            reference = {
                name: _response_document(
                    serial.identify(IdentifyRequest(gallery=name, scans=scans))
                )
                for name, scans in probes.items()
            }
        finally:
            serial.close()

        router = GalleryRouter(root, config=config, workers=INITIAL_WORKERS)
        steps = []
        outcomes = {
            name: {
                "ok": 0, "errors": 0, "mismatches": 0,
                "latencies_s": [], "error_samples": [],
            }
            for name in probes
        }
        churn_outcome = {"ok": 0, "resends": 0, "failed": 0, "failure_samples": []}
        try:
            stop = threading.Event()
            threads = [
                threading.Thread(
                    target=_identify_driver,
                    args=(router, name, probes[name], reference[name],
                          stop, outcomes[name]),
                )
                for name in sorted(probes)
            ]
            threads.append(threading.Thread(
                target=_churn_driver,
                args=(router, churn_scans, churn_batch, stop, churn_outcome),
            ))
            for thread in threads:
                thread.start()
            try:
                for action in SCHEDULE:
                    time.sleep(hold_s)
                    before = router.fleet.placement(keys)
                    n_before = len(router.workers)
                    if action == "add":
                        record = router.add_worker()
                    else:
                        record = router.remove_worker()
                    after = router.fleet.placement(keys)
                    n_after = len(router.workers)
                    fraction = _remap_fraction(before, after)
                    steps.append({
                        "action": action,
                        "members_before": n_before,
                        "members_after": n_after,
                        "remap_fraction": fraction,
                        "remap_bound": REMAP_FACTOR / max(n_before, n_after),
                        "record": record,
                    })
                time.sleep(hold_s)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            resizes = router.fleet.resizes()
            final_members = list(router.workers)
            stats = router.stats()
            per_worker = stats.router["per_worker"]
        finally:
            router.close()

    latencies = [
        sample for entry in outcomes.values() for sample in entry["latencies_s"]
    ]
    totals = {
        "requests": len(latencies),
        "ok": sum(e["ok"] for e in outcomes.values()),
        "errors": sum(e["errors"] for e in outcomes.values()),
        "mismatches": sum(e["mismatches"] for e in outcomes.values()),
        "churn_ok": churn_outcome["ok"],
        "churn_resends": churn_outcome["resends"],
        "churn_failed": churn_outcome["failed"],
    }
    error_samples = [
        sample
        for entry in outcomes.values()
        for sample in entry["error_samples"][:2]
    ]
    return {
        "n_galleries": n_galleries,
        "n_subjects": n_subjects,
        "n_regions": n_regions,
        "n_timepoints": n_timepoints,
        "probes_per_request": probes_per_request,
        "hold_s": float(hold_s),
        "placement_keys": placement_keys,
        "drain_deadline_s": float(drain_deadline_s),
        "retry_attempts": int(retry_attempts),
        "schedule": list(SCHEDULE),
        "steps": steps,
        "totals": totals,
        "error_samples": error_samples[:6],
        "churn_failure_samples": churn_outcome["failure_samples"][:6],
        "min_requests_per_gallery": min(
            (e["ok"] + e["errors"] + e["mismatches"]) for e in outcomes.values()
        ),
        "bitwise_equal": totals["mismatches"] == 0,
        "latency": {
            "p50_ms": float(1e3 * np.percentile(latencies, 50)) if latencies else 0.0,
            "p99_ms": float(1e3 * np.percentile(latencies, 99)) if latencies else 0.0,
            "max_ms": float(1e3 * max(latencies)) if latencies else 0.0,
        },
        "final_members": final_members,
        "per_worker_members": sorted(per_worker),
        "resizes_completed": resizes["completed"],
        "resize_in_flight": resizes["in_flight"],
        "leaked_segments": sorted(set(_shm_segments()) - segments_before),
        "zombie_children": _router_children(),
    }


def evaluate_gates(outcome: dict) -> list:
    """The fleet-churn hard gates; returns a list of human-readable failures."""
    failures = []
    totals = outcome["totals"]
    if not outcome["bitwise_equal"]:
        failures.append(
            f"{totals['mismatches']} successful response(s) diverged from the "
            "resize-free replay (correctness must survive resizes bit-for-bit)"
        )
    if totals["errors"]:
        failures.append(
            f"{totals['errors']} client-visible identify error(s) — resizes "
            f"must be invisible to identify clients "
            f"(samples: {outcome['error_samples']})"
        )
    if totals["churn_failed"]:
        failures.append(
            f"{totals['churn_failed']} enroll(s) failed durably — an enroll "
            "racing a removal must either commit or fail safe-to-resend "
            f"(samples: {outcome['churn_failure_samples']})"
        )
    if outcome["min_requests_per_gallery"] < 1:
        failures.append("a gallery saw zero identifies (hold_s too small?)")
    for step in outcome["steps"]:
        label = (
            f"step {step['action']} "
            f"{step['members_before']}→{step['members_after']}"
        )
        if step["remap_fraction"] > step["remap_bound"]:
            failures.append(
                f"{label}: remapped {step['remap_fraction']:.3f} of keys "
                f"> bound {step['remap_bound']:.3f} (movement must stay "
                "near 1/N)"
            )
        if step["remap_fraction"] == 0.0:
            failures.append(f"{label}: no keys remapped — membership did not change")
        record = step["record"]
        if step["action"] == "remove":
            if not record.get("drained"):
                failures.append(
                    f"{label}: leaving worker did not drain cleanly "
                    f"({record.get('drain_error')})"
                )
            elif record.get("drain_s", 0.0) > (
                outcome["drain_deadline_s"] + DRAIN_SLACK_S
            ):
                failures.append(
                    f"{label}: drain took {record['drain_s']:.2f}s > deadline "
                    f"{outcome['drain_deadline_s']:.1f}s + {DRAIN_SLACK_S:.1f}s slack"
                )
    expected_final = INITIAL_WORKERS + sum(
        1 if action == "add" else -1 for action in SCHEDULE
    )
    if len(outcome["final_members"]) != expected_final:
        failures.append(
            f"final fleet has {len(outcome['final_members'])} member(s), "
            f"expected {expected_final}: {outcome['final_members']}"
        )
    if outcome["per_worker_members"] != sorted(outcome["final_members"]):
        failures.append(
            "per_worker stats block does not list exactly the final members: "
            f"{outcome['per_worker_members']} vs {outcome['final_members']}"
        )
    if outcome["resizes_completed"] != len(SCHEDULE):
        failures.append(
            f"{outcome['resizes_completed']} resize(s) recorded, "
            f"expected {len(SCHEDULE)}"
        )
    if outcome["resize_in_flight"]:
        failures.append("a resize is still marked in flight after the schedule")
    if outcome["leaked_segments"]:
        failures.append(f"leaked shm segments: {outcome['leaked_segments']}")
    if outcome["zombie_children"]:
        failures.append(f"leaked worker processes: {outcome['zombie_children']}")
    return failures


def trajectory_record(outcome: dict) -> dict:
    """The ``BENCH_fleet.json`` trajectory record of one benchmark outcome."""
    return {
        "benchmark": "fleet_churn",
        "workload": {
            "n_galleries": outcome["n_galleries"],
            "n_subjects": outcome["n_subjects"],
            "n_regions": outcome["n_regions"],
            "n_timepoints": outcome["n_timepoints"],
            "probes_per_request": outcome["probes_per_request"],
            "hold_s": outcome["hold_s"],
            "placement_keys": outcome["placement_keys"],
            "drain_deadline_s": outcome["drain_deadline_s"],
            "retry_attempts": outcome["retry_attempts"],
        },
        "schedule": outcome["schedule"],
        "steps": [
            {
                "action": step["action"],
                "members_before": step["members_before"],
                "members_after": step["members_after"],
                "remap_fraction": step["remap_fraction"],
                "remap_bound": step["remap_bound"],
                "drained": step["record"].get("drained"),
                "drain_s": step["record"].get("drain_s"),
                "warmed": step["record"].get("warmed"),
                "duration_s": step["record"].get("duration_s"),
            }
            for step in outcome["steps"]
        ],
        "totals": outcome["totals"],
        "bitwise_equal": outcome["bitwise_equal"],
        "latency": outcome["latency"],
        "final_members": outcome["final_members"],
        "resizes_completed": outcome["resizes_completed"],
        "leaked_segments": outcome["leaked_segments"],
        "zombie_children": outcome["zombie_children"],
        "gate_failures": evaluate_gates(outcome),
    }


def test_fleet_churn_gates(benchmark):
    """Acceptance churn run: full 2→3→4→3 schedule, every hard gate enforced."""
    outcome = benchmark.pedantic(run_fleet_churn_benchmark, rounds=1, iterations=1)
    failures = evaluate_gates(outcome)
    print(
        f"\nfleet churn: {outcome['totals']['ok']}/{outcome['totals']['requests']} "
        f"bit-identical, {outcome['totals']['errors']} error(s), "
        f"churn {outcome['totals']['churn_ok']}"
        f"+{outcome['totals']['churn_resends']} resend(s), "
        f"remap " + ", ".join(
            f"{s['remap_fraction']:.3f}/{s['remap_bound']:.3f}"
            for s in outcome["steps"]
        ) + f", p50 {outcome['latency']['p50_ms']:.1f} ms"
    )
    assert not failures, "fleet churn gates failed:\n- " + "\n- ".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--galleries", type=int, default=6)
    parser.add_argument("--subjects", type=int, default=10)
    parser.add_argument("--regions", type=int, default=16)
    parser.add_argument("--timepoints", type=int, default=60)
    parser.add_argument("--features", type=int, default=40)
    parser.add_argument("--probes", type=int, default=1,
                        help="probe scans per identify request")
    parser.add_argument("--hold", type=float, default=0.8,
                        help="seconds of load between membership steps")
    parser.add_argument("--keys", type=int, default=2048,
                        help="synthetic keys for the remap measurement")
    parser.add_argument("--drain-deadline", type=float,
                        default=DEFAULT_DRAIN_DEADLINE_S)
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRY_ATTEMPTS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    outcome = run_fleet_churn_benchmark(
        n_galleries=args.galleries,
        n_subjects=args.subjects,
        n_regions=args.regions,
        n_timepoints=args.timepoints,
        n_features=min(args.features, args.regions * (args.regions - 1) // 2),
        probes_per_request=args.probes,
        hold_s=args.hold,
        placement_keys=args.keys,
        drain_deadline_s=args.drain_deadline,
        retry_attempts=args.retries,
        seed=args.seed,
    )
    for step in outcome["steps"]:
        record = step["record"]
        detail = (
            f"drained in {record.get('drain_s', 0.0):.2f}s"
            if step["action"] == "remove"
            else f"warmed {record.get('warmed', 0)} gallery(ies)"
        )
        print(
            f"step {step['action']:<6} {step['members_before']}→"
            f"{step['members_after']}: remap {step['remap_fraction']:.3f} "
            f"(bound {step['remap_bound']:.3f}), {detail}"
        )
    totals = outcome["totals"]
    print(
        f"totals      : {totals['ok']}/{totals['requests']} bit-identical, "
        f"{totals['errors']} error(s), churn {totals['churn_ok']} ok / "
        f"{totals['churn_resends']} resend(s) / {totals['churn_failed']} failed, "
        f"p50 {outcome['latency']['p50_ms']:.1f} ms / "
        f"p99 {outcome['latency']['p99_ms']:.1f} ms"
    )
    failures = evaluate_gates(outcome)
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    if not failures:
        print("all fleet churn gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
