"""``serial_fresh``: one closed-loop client calling
``IdentificationService.identify`` in process, one fresh probe per request."""

from __future__ import annotations

import time
from pathlib import Path

from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import GalleryRegistry, IdentificationService, IdentifyRequest, ServiceConfig

from perfbench import gen, instrument, procs
from perfbench.common import Phase, check_teardown, same_answer, timed_setups
from perfbench.spans import Tracer

GALLERY = "g"
WARMUP = 16


class Serial:
    def __init__(self, seed: int, work: Path):
        self.work = work
        self.cohort = gen.Cohort.make(0)
        self.stream = gen.ProbeStream(self.cohort, seed)
        self.warm = gen.ProbeStream(self.cohort, seed, stream=1)

    def _setup(self):
        cache = ArtifactCache()
        gallery = ReferenceGallery.from_scans(
            self.cohort.gallery_scans, n_features=gen.N_FEATURES, cache=cache
        )
        gallery.save(self.work / GALLERY)
        config = ServiceConfig(n_features=gen.N_FEATURES)
        registry = GalleryRegistry(config=config, cache=cache)
        registry.register(GALLERY, gallery)
        service = IdentificationService(registry=registry, config=config)
        for i in range(WARMUP):
            service.identify(IdentifyRequest(gallery=GALLERY, scans=[self.warm.probe(i)]))
        return service

    def phase(self, seconds: float, repeats: int, traced: bool, first: int = 0) -> Phase:
        """Measure ``seconds`` of traffic starting at probe ``first``."""
        phase = Phase()
        shm_before = procs.shm_segments()
        service, phase.setup_s = timed_setups(self._setup, lambda s: s.close(), repeats)
        tracer = None
        if traced:
            tracer = Tracer()
            instrument.install(tracer)
        served = []
        i = first
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            request = IdentifyRequest(
                gallery=GALLERY, scans=[self.stream.probe(i)], request_id=f"s{i}"
            )
            t0 = time.perf_counter()
            if tracer is None:
                response = service.identify(request)
            else:
                response = tracer.call("client", service.identify, (request,), {})
            t1 = time.perf_counter()
            served.append((i, response))
            phase.identify_s.append(t1 - t0)
            i += 1
            if t1 >= deadline:
                break
        phase.wall_s = time.perf_counter() - start
        phase.rss_mb = procs.family_peak_rss_mb()
        stats = service.stats()
        service.close()
        check_teardown(phase, shm_before)

        phase.extra["cache_kinds"] = stats.cache_kinds
        phase.extra["max_batch_size"] = stats.max_batch_size
        if tracer is not None:
            tracer.unwrap()
            phase.spans = list(tracer.spans)
        self._check(phase, served)
        phase.extra["next_probe"] = i
        return phase

    def _check(self, phase: Phase, served) -> None:
        """Untimed: every response against serial identify on the saved gallery."""
        oracle = ReferenceGallery.load(self.work / GALLERY, cache=ArtifactCache())
        for i, response in served:
            phase.attempted += 1
            phase.timings.append(response.timings)
            phase.batch_sizes.append(response.batch_size)
            scan = self.stream.probe(i)
            if not response.ok:
                phase.failed += 1
                continue
            phase.fresh += 1
            phase.fresh_top1 += response.predicted_subject_ids[0] == scan.subject_id
            if not same_answer(response, oracle.identify([scan])):
                phase.problems.append(f"probe {i}: response differs from serial identify")
