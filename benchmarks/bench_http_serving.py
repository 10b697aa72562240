"""Benchmark: concurrent HTTP identifies vs in-process async serving, per codec.

The HTTP front end (:mod:`repro.service.http`) exists so network clients get
the same micro-batched serving the in-process async API provides: every
connection handler is a coroutine on the server's event loop, so concurrent
HTTP identifies flow through the same per-event-loop batcher and coalesce
into stacked matches.  This benchmark quantifies the transport on the
acceptance workload (a 64-subject x 100-region gallery, one single-probe
request per subject, several concurrent keep-alive clients):

* **in-process** — the same requests awaited concurrently through
  ``IdentificationService.identify_async`` (one ``asyncio.gather``), warm.
* **http/json** — the requests issued by concurrent :class:`ServiceClient`
  threads speaking the default JSON codec (the bit-identity oracle), warm.
* **http/binary** — the same clients speaking the
  ``application/x-repro-frames`` binary frame codec (raw float64 buffers;
  see ``docs/protocol.md``), warm.

Correctness is non-negotiable: every HTTP response — under either codec —
must be *bit-for-bit* identical to its serial ``ReferenceGallery.identify``
counterpart, and concurrent clients must actually coalesce (max batch
observed over HTTP > 1).  The JSON codec pays per-float text encode/decode
and is bounded loosely; the binary codec is the serving-throughput lever
and must stay within ``DEFAULT_MAX_BINARY_OVERHEAD`` of the warm in-process
path at the acceptance scale.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_http_serving.py --subjects 10 --regions 32
"""

from __future__ import annotations

import argparse
import asyncio
import threading
import time

import numpy as np

from repro.datasets.hcp import HCPLikeDataset
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import (
    BackgroundHttpServer,
    GalleryRegistry,
    IdentificationService,
    IdentifyRequest,
    ServiceClient,
    ServiceConfig,
)

#: The JSON codec may cost this many multiples of the warm in-process async
#: path before the benchmark fails: it pays text encode/decode of every
#: probe float plus socket hops.  Generous on purpose — the hard guarantees
#: are bitwise equality and coalescing; the bound only catches pathological
#: regressions (e.g. the batcher no longer coalescing network clients).
DEFAULT_MAX_OVERHEAD = 100.0

#: The binary frame codec is the serving-throughput lever (ROADMAP item 1):
#: raw little-endian float64 buffers decoded with ``np.frombuffer`` straight
#: into kernel-consumable arrays.  At the acceptance workload (64x100) it
#: must stay within this bound of the warm in-process async path.
DEFAULT_MAX_BINARY_OVERHEAD = 5.0

#: Codecs measured by default, in reporting order.
CODECS = ("json", "binary")


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


def _bitwise_equal(serial_results, responses) -> bool:
    """Every response bit-identical to its serial identify counterpart."""
    return all(
        response.ok
        and response.predicted_subject_ids == serial.predicted_subject_ids
        and np.array_equal(np.asarray(response.margins), serial.margin())
        for serial, response in zip(serial_results, responses)
    )


def run_http_benchmark(
    n_subjects: int = 64,
    n_regions: int = 100,
    n_timepoints: int = 100,
    n_features: int = 100,
    clients: int = 4,
    repeats: int = 3,
    window_s: float = 0.02,
    seed: int = 0,
    codecs=CODECS,
) -> dict:
    """Time concurrent HTTP identifies against warm in-process async serving.

    Every path serves the identical request load (one single-probe request
    per enrolled subject) and every path is warmed up before timing; the
    best of ``repeats`` runs is kept per path.  Bitwise equality against
    serial ``ReferenceGallery.identify`` results is checked on every HTTP
    round of every codec.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    for codec in codecs:
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}; expected a subset of {CODECS}")
    reference_scans, probe_scans = make_sessions(
        n_subjects, n_regions, n_timepoints, seed=seed
    )
    config = ServiceConfig(
        n_features=n_features,
        max_batch_size=max(len(probe_scans), 1),
        batch_window_s=window_s,
    )
    registry = GalleryRegistry(config=config, cache=ArtifactCache())
    registry.register(
        "bench",
        ReferenceGallery.from_scans(
            reference_scans, n_features=n_features, cache=registry.cache
        ),
    )
    service = IdentificationService(registry=registry, config=config)
    gallery = registry.get("bench")

    request_scans = [[scan] for scan in probe_scans]
    serial_results = [gallery.identify(scans) for scans in request_scans]  # warm-up + reference

    async def run_inprocess():
        requests = [
            IdentifyRequest(gallery="bench", scans=scans) for scans in request_scans
        ]
        return await asyncio.gather(
            *(service.identify_async(request) for request in requests)
        )

    asyncio.run(run_inprocess())  # warm-up: probe signatures cached
    inprocess_samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        asyncio.run(run_inprocess())
        inprocess_samples.append(time.perf_counter() - start)
    inprocess_s = min(inprocess_samples)

    n_clients = min(clients, len(request_scans))
    slices = [request_scans[i::n_clients] for i in range(n_clients)]

    per_codec = {}
    try:
        # The in-process path submits every request concurrently (one
        # ``asyncio.gather``); the wire equivalent is pipelining, so each
        # client streams its whole slice back-to-back on one persistent
        # connection and the server (pipeline depth = the full load)
        # dispatches them concurrently into the same micro-batcher.
        with BackgroundHttpServer(
            service, port=0, pipeline_depth=max(len(request_scans), 1)
        ) as server:

            def run_http_round(codec: str):
                """All clients fire concurrently; responses in request order."""
                responses = [None] * len(request_scans)
                barrier = threading.Barrier(n_clients)

                def worker(client_index: int, client: ServiceClient):
                    requests = [
                        IdentifyRequest(gallery="bench", scans=scans)
                        for scans in slices[client_index]
                    ]
                    barrier.wait()
                    for offset, response in enumerate(
                        client.identify_pipelined(requests)
                    ):
                        responses[client_index + offset * n_clients] = response

                pool = [
                    ServiceClient(port=server.port, codec=codec)
                    for _ in range(n_clients)
                ]
                try:
                    threads = [
                        threading.Thread(target=worker, args=(index, client))
                        for index, client in enumerate(pool)
                    ]
                    start = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    elapsed = time.perf_counter() - start
                finally:
                    for client in pool:
                        client.close()
                return responses, elapsed

            for codec in codecs:
                samples = []
                bitwise_equal = True
                max_http_batch = 0
                run_http_round(codec)  # warm-up: connections established, codec hot
                for _ in range(repeats):
                    responses, elapsed = run_http_round(codec)
                    samples.append(elapsed)
                    bitwise_equal = bitwise_equal and _bitwise_equal(
                        serial_results, responses
                    )
                    max_http_batch = max(
                        max_http_batch,
                        max(response.batch_size for response in responses),
                    )
                http_s = min(samples)
                per_codec[codec] = {
                    "http_s": http_s,
                    "overhead": http_s / inprocess_s if inprocess_s > 0 else float("inf"),
                    "bitwise_equal": bool(bitwise_equal),
                    "max_http_batch": max_http_batch,
                    "per_request_ms": 1e3 * http_s / len(request_scans),
                    # Round-latency percentiles over the timed repeats, so
                    # the trajectory record tracks tail behaviour (p99) next
                    # to the best-case floor (http_s).
                    "p50_ms": float(1e3 * np.percentile(samples, 50)),
                    "p99_ms": float(1e3 * np.percentile(samples, 99)),
                }
    finally:
        service.close()

    return {
        "n_subjects": n_subjects,
        "n_regions": n_regions,
        "n_timepoints": n_timepoints,
        "n_requests": len(request_scans),
        "n_clients": n_clients,
        "inprocess_s": inprocess_s,
        "inprocess_p50_ms": float(1e3 * np.percentile(inprocess_samples, 50)),
        "inprocess_p99_ms": float(1e3 * np.percentile(inprocess_samples, 99)),
        "codecs": per_codec,
        "bitwise_equal": all(entry["bitwise_equal"] for entry in per_codec.values()),
        "max_http_batch": max(
            (entry["max_http_batch"] for entry in per_codec.values()), default=0
        ),
    }


def trajectory_record(outcome: dict) -> dict:
    """The ``BENCH_http.json`` trajectory record of one benchmark outcome.

    Carries the wire-overhead ratio per codec plus the binary-vs-JSON wire
    speedup, so the serving-throughput lever can be tracked across commits.
    """
    json_entry = outcome["codecs"].get("json")
    binary_entry = outcome["codecs"].get("binary")
    speedup = None
    if json_entry and binary_entry and binary_entry["http_s"] > 0:
        speedup = json_entry["http_s"] / binary_entry["http_s"]
    return {
        "benchmark": "http_serving",
        "workload": {
            "n_subjects": outcome["n_subjects"],
            "n_regions": outcome["n_regions"],
            "n_timepoints": outcome["n_timepoints"],
            "n_requests": outcome["n_requests"],
            "n_clients": outcome["n_clients"],
        },
        "inprocess_s": outcome["inprocess_s"],
        "inprocess_p50_ms": outcome["inprocess_p50_ms"],
        "inprocess_p99_ms": outcome["inprocess_p99_ms"],
        "codecs": outcome["codecs"],
        "binary_vs_json_speedup": speedup,
        "bitwise_equal": outcome["bitwise_equal"],
        "max_http_batch": outcome["max_http_batch"],
    }


def test_http_serving_coalesces_and_matches_inprocess(benchmark):
    """Acceptance workload: 64 subjects x 100 regions over 4 HTTP clients.

    Hard guarantees: every HTTP response bit-identical to its serial
    identify under *both* codecs, concurrent clients coalesced into stacked
    batches (max batch > 1), warm JSON overhead loosely bounded, and warm
    binary-codec overhead within ``DEFAULT_MAX_BINARY_OVERHEAD`` of
    in-process async.  Timing on a loaded CI box is noisy, so up to three
    measurement rounds are taken; correctness must hold on every round.
    """
    def measure():
        best = None
        for _ in range(3):
            outcome = run_http_benchmark(n_subjects=64, n_regions=100, repeats=3)
            assert outcome["bitwise_equal"], "HTTP responses diverged from serial identify"
            assert outcome["max_http_batch"] > 1, (
                "concurrent HTTP clients were not coalesced into one batch"
            )
            if best is None or (
                outcome["codecs"]["binary"]["overhead"]
                < best["codecs"]["binary"]["overhead"]
            ):
                best = outcome
            if (
                best["codecs"]["json"]["overhead"] <= DEFAULT_MAX_OVERHEAD
                and best["codecs"]["binary"]["overhead"] <= DEFAULT_MAX_BINARY_OVERHEAD
            ):
                break
        return best

    outcome = benchmark.pedantic(measure, rounds=1, iterations=1)
    json_entry = outcome["codecs"]["json"]
    binary_entry = outcome["codecs"]["binary"]
    print(
        f"\nin-process {outcome['inprocess_s']:.4f}s vs "
        f"http/json {json_entry['http_s']:.4f}s ({json_entry['overhead']:.1f}x) vs "
        f"http/binary {binary_entry['http_s']:.4f}s ({binary_entry['overhead']:.1f}x) "
        f"({outcome['n_requests']} requests over {outcome['n_clients']} clients, "
        f"max http batch {outcome['max_http_batch']})"
    )
    assert json_entry["overhead"] <= DEFAULT_MAX_OVERHEAD, (
        f"HTTP/json warm path {json_entry['overhead']:.1f}x over in-process "
        f"async (bound {DEFAULT_MAX_OVERHEAD}x)"
    )
    assert binary_entry["overhead"] <= DEFAULT_MAX_BINARY_OVERHEAD, (
        f"HTTP/binary warm path {binary_entry['overhead']:.1f}x over in-process "
        f"async (bound {DEFAULT_MAX_BINARY_OVERHEAD}x)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subjects", type=int, default=64)
    parser.add_argument("--regions", type=int, default=100)
    parser.add_argument("--timepoints", type=int, default=100)
    parser.add_argument("--features", type=int, default=100)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--window", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-overhead", type=float, default=DEFAULT_MAX_OVERHEAD)
    parser.add_argument(
        "--max-binary-overhead", type=float, default=DEFAULT_MAX_BINARY_OVERHEAD,
        help="fail if the binary codec exceeds this multiple of warm "
        "in-process async (the acceptance bound holds at 64x100; tiny CI "
        "smoke workloads cannot amortize fixed socket costs and pass a "
        "looser bound)",
    )
    args = parser.parse_args()
    outcome = run_http_benchmark(
        n_subjects=args.subjects,
        n_regions=args.regions,
        n_timepoints=args.timepoints,
        n_features=min(args.features, args.regions * (args.regions - 1) // 2),
        clients=args.clients,
        repeats=args.repeats,
        window_s=args.window,
        seed=args.seed,
    )
    print(
        "workload: {n_requests} single-probe requests over {n_clients} "
        "concurrent HTTP clients against a {n_subjects}-subject x "
        "{n_regions}-region gallery".format(**outcome)
    )
    print("in-process async (warm) : {inprocess_s:.4f} s".format(**outcome))
    for codec in CODECS:
        entry = outcome["codecs"][codec]
        print(
            f"http/{codec:<6} (warm)     : {entry['http_s']:.4f} s "
            f"({entry['per_request_ms']:.1f} ms/request, "
            f"{entry['overhead']:.1f}x overhead, "
            f"p50 {entry['p50_ms']:.1f} ms / p99 {entry['p99_ms']:.1f} ms)"
        )
    record = trajectory_record(outcome)
    if record["binary_vs_json_speedup"] is not None:
        print(f"binary vs json wire     : {record['binary_vs_json_speedup']:.1f}x faster")
    print("max coalesced http batch: {max_http_batch}".format(**outcome))
    print("bitwise equal to serial : {bitwise_equal}".format(**outcome))
    coalesced = outcome["max_http_batch"] > 1 or outcome["n_clients"] < 2
    ok = (
        outcome["bitwise_equal"]
        and coalesced
        and outcome["codecs"]["json"]["overhead"] <= args.max_overhead
        and outcome["codecs"]["binary"]["overhead"] <= args.max_binary_overhead
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
