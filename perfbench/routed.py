"""``routed_mixed``: ``GalleryRouter`` with 2 forked workers over 4 persisted
galleries, driven by 2 closed-loop client threads.

Half the identifies are Zipf draws from a small hot set per gallery (reused
bytes: the labelled cache-hit case), the rest are fresh probes, and one
operation in each block of 64 per client (1.6 %) enrolls a never-seen subject.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import EnrollRequest, GalleryRouter, IdentifyRequest, ServiceConfig

from perfbench import gen, instrument, measure, procs
from perfbench.common import Phase, check_teardown, same_answer, timed_setups
from perfbench.spans import Tracer, load_dumps

GALLERIES = 4
WORKERS = 2
CLIENTS = 2
HOT_SET = 8
#: Operations per shuffled block of a client's mix, one of them an enroll.
BLOCK = 64


class Routed:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.names = [f"gallery{g}" for g in range(GALLERIES)]
        self.cohorts = [gen.Cohort.make(1 + g) for g in range(GALLERIES)]
        self.streams = [gen.ProbeStream(c, seed, stream=g) for g, c in enumerate(self.cohorts)]
        self.hot = [stream.hot_set(HOT_SET) for stream in self.streams]
        self.warm = [gen.ProbeStream(c, seed, stream=100 + g) for g, c in enumerate(self.cohorts)]
        self.next_fresh = [0] * GALLERIES
        self.phase_index = 0

    # -- set-up ---------------------------------------------------------- #
    def _setup(self) -> GalleryRouter:
        root = self.work / "root"
        shutil.rmtree(root, ignore_errors=True)
        for name, cohort in zip(self.names, self.cohorts):
            gallery = ReferenceGallery.from_scans(
                cohort.gallery_scans, n_features=gen.N_FEATURES, cache=ArtifactCache()
            )
            gallery.save(root / name)
        router = GalleryRouter(root, ServiceConfig(n_features=gen.N_FEATURES), workers=WORKERS)
        for g, name in enumerate(self.names):
            router.identify(IdentifyRequest(gallery=name, scans=[self.warm[g].probe(0)]))
        return router

    # -- traffic --------------------------------------------------------- #
    def _client(self, router, tracer, client: int, deadline: float, ops: list, lock) -> None:
        rng = np.random.default_rng([self.seed, 3, self.phase_index, client])
        mix = gen.mixed_ops(rng, GALLERIES, BLOCK, HOT_SET)
        n = 0
        while time.perf_counter() < deadline:
            kind, g, rank = next(mix)
            name = self.names[g]
            rid = f"p{self.phase_index}c{client}n{n}"
            with lock:
                if kind == "enroll" and self.enrolled[g] == gen.ENROLL_POOL:
                    kind = "fresh"
                if kind == "enroll":
                    source = ("enroll", self.enrolled[g])
                    self.enrolled[g] += 1
                elif kind == "hot":
                    source = ("hot", rank)
                else:
                    source = ("fresh", self.next_fresh[g])
                    self.next_fresh[g] += 1
            if kind == "enroll":
                scan = self.cohorts[g].enroll_pool[source[1]]
                call, request = router.enroll, EnrollRequest(gallery=name, scans=[scan], request_id=rid)
            else:
                scan = self.hot[g][source[1]] if source[0] == "hot" else self.streams[g].probe(source[1])
                call, request = router.identify, IdentifyRequest(gallery=name, scans=[scan], request_id=rid)
            t0 = time.perf_counter()
            if tracer is None:
                response = call(request)
            else:
                response = tracer.call("client", call, (request,), {})
            t1 = time.perf_counter()
            ops.append((g, source, t0, t1, response))
            n += 1

    def phase(self, seconds: float, repeats: int, traced: bool, first: int = 0) -> Phase:
        phase = Phase()
        shm_before = procs.shm_segments()
        tracer = None
        if traced:
            spans_dir = self.work / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer = Tracer(dump_dir=spans_dir)
            instrument.install(tracer)
        router, phase.setup_s = timed_setups(self._setup, GalleryRouter.close, repeats)
        shutil.rmtree(self.work / "pristine", ignore_errors=True)
        shutil.copytree(self.work / "root", self.work / "pristine")
        self.enrolled = [0] * GALLERIES
        ops, lock = [], threading.Lock()
        start = time.perf_counter()
        if tracer is not None:
            tracer.spans.clear()
        threads = [
            threading.Thread(target=self._client, args=(router, tracer, c, start + seconds, ops, lock))
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - start
        phase.rss_mb = procs.family_peak_rss_mb()
        stats = router.stats()
        router.close()
        check_teardown(phase, shm_before)
        self.phase_index += 1

        per_worker = [w["requests"] for w in stats.router["per_worker"].values()]
        identify_ops = [op for op in ops if op[1][0] != "enroll"]
        phase.identify_s = [t1 - t0 for _, _, t0, t1, _ in identify_ops]
        phase.enroll_s = [t1 - t0 for _, source, t0, t1, _ in ops if source[0] == "enroll"]
        hot = sum(1 for op in identify_ops if op[1][0] == "hot")
        phase.extra.update({
            "cache_kinds": stats.cache_kinds,
            "next_probe": 0,
            "notes": {"hot (repeat) share of identifies": f"{hot / max(len(identify_ops), 1):.3f}"},
            "layer_metrics": {
                "fleet.respawns": stats.router["respawns"],
                "fleet.worker_timeouts": stats.router["worker_timeouts"],
                "worker.max_batch_size": stats.max_batch_size,
                "worker.load_imbalance": max(per_worker) / float(np.mean(per_worker)),
                "reference.save_bytes": float(np.mean([
                    sum(f.stat().st_size for f in (self.work / "root" / name).iterdir())
                    for name in self.names
                ])),
                **self._hops(identify_ops),
            },
        })
        if tracer is not None:
            tracer.unwrap()
            spans = [s for s in tracer.spans + load_dumps(spans_dir) if s.start >= start]
            phase.spans = spans
            shutil.rmtree(spans_dir)
            decodes = sum(1 for s in spans if s.name == "codec.decode" and s.pid != tracer.pid)
            phase.extra["traced_metrics"] = {"router.retries": max(decodes - len(ops), 0)}
        self._check(phase, ops)
        return phase

    @staticmethod
    def _hops(identify_ops) -> dict:
        """Routed latency minus the worker's in-batch time."""
        hops = [
            (t1 - t0) - response.timings.get("batch_s", 0.0)
            for _, _, t0, t1, response in identify_ops if response.ok
        ]
        return {
            "router.hop_p50_ms": 1e3 * float(np.median(hops)),
            "router.hop_p99_ms": 1e3 * measure.tail(hops)[0],
        }

    # -- output check ---------------------------------------------------- #
    def _check(self, phase: Phase, ops) -> None:
        """Replay each gallery's acknowledged enrolls in order, check every
        identify against the state it reports (its gallery size), then
        check the persisted galleries hold exactly the replayed state."""
        for g, name in enumerate(self.names):
            mine = [op for op in ops if op[0] == g]
            phase.attempted += len(mine)
            enrolls = {}
            by_size = {}
            for _, source, _, _, response in mine:
                if not response.ok:
                    phase.failed += 1
                elif source[0] == "enroll":
                    enrolls[response.n_subjects] = source[1]
                else:
                    by_size.setdefault(response.n_gallery_subjects, []).append((source, response))
            persisted = ReferenceGallery.load(self.work / "root" / name, cache=ArtifactCache())
            oracle = ReferenceGallery.load(self.work / "pristine" / name, cache=ArtifactCache())
            size = oracle.n_subjects
            expected = list(range(size + 1, size + 1 + len(enrolls)))
            phase.note(sorted(enrolls) == expected,
                       f"{name}: acknowledged enroll sizes {sorted(enrolls)} != {expected}")
            while True:
                for source, response in by_size.pop(size, []):
                    self._check_identify(phase, g, oracle, source, response)
                if size + 1 not in enrolls:
                    break
                oracle.enroll([self.cohorts[g].enroll_pool[enrolls[size + 1]]])
                size += 1
            for size, pending in by_size.items():
                phase.problems.append(f"{name}: {len(pending)} identifies report unknown size {size}")
            phase.note(
                persisted.reference.subject_ids == oracle.reference.subject_ids
                and np.array_equal(persisted.signatures_, oracle.signatures_),
                f"{name}: persisted gallery differs from the replay of acknowledged enrolls",
            )

    def _check_identify(self, phase: Phase, g: int, oracle, source, response) -> None:
        kind, index = source
        scan = self.hot[g][index] if kind == "hot" else self.streams[g].probe(index)
        phase.timings.append(response.timings)
        phase.batch_sizes.append(response.batch_size)
        if kind == "fresh":
            phase.fresh += 1
            phase.fresh_top1 += response.predicted_subject_ids[0] == scan.subject_id
        if not same_answer(response, oracle.identify([scan])):
            phase.problems.append(f"{self.names[g]} {kind} probe {index}: differs from serial identify")
