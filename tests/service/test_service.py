"""Tests for the identification service: batching, async serving, plumbing."""

import asyncio

import numpy as np
import pytest

from repro.attack.pipeline import AttackPipeline
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import (
    EnrollRequest,
    GalleryRegistry,
    IdentificationService,
    IdentifyRequest,
    ServiceConfig,
)


def _single_probe_requests(probes, gallery="hcp"):
    return [IdentifyRequest(gallery=gallery, scans=[scan]) for scan in probes]


class TestBatchVsSerialEquivalence:
    def test_identify_many_is_bit_identical_to_serial_identifies(
        self, service, registry, sessions
    ):
        _, probes = sessions
        gallery = registry.get("hcp")
        serial = [gallery.identify([scan]) for scan in probes]
        responses = service.identify_many(_single_probe_requests(probes))
        assert all(response.ok for response in responses)
        assert responses[0].batch_size == len(probes)
        for expected, response in zip(serial, responses):
            result = response.match_result
            assert np.array_equal(expected.similarity, result.similarity)
            assert np.array_equal(
                expected.predicted_reference_index, result.predicted_reference_index
            )
            assert expected.predicted_subject_ids == response.predicted_subject_ids
            assert np.array_equal(expected.margin(), np.asarray(response.margins))

    def test_multi_probe_requests_match_serial(self, service, registry, sessions):
        _, probes = sessions
        gallery = registry.get("hcp")
        groups = [probes[0:5], probes[5:8], probes[8:12]]
        serial = [gallery.identify(group) for group in groups]
        responses = service.identify_many(
            [IdentifyRequest(gallery="hcp", scans=group) for group in groups]
        )
        for expected, response in zip(serial, responses):
            assert np.array_equal(expected.similarity, response.match_result.similarity)
            assert expected.accuracy() == response.accuracy

    def test_prebuilt_probe_matrix_matches_scan_payload(self, service, registry, sessions):
        from repro.runtime.batch import build_group_matrix_batched

        _, probes = sessions
        probe_group = build_group_matrix_batched(probes, cache=registry.cache)
        from_scans = service.identify(IdentifyRequest(gallery="hcp", scans=probes))
        from_matrix = service.identify(IdentifyRequest(gallery="hcp", probe=probe_group))
        assert np.array_equal(
            from_scans.match_result.similarity, from_matrix.match_result.similarity
        )
        assert from_scans.predicted_subject_ids == from_matrix.predicted_subject_ids

    def test_max_batch_size_chunks_but_preserves_results(self, registry, sessions):
        _, probes = sessions
        service = IdentificationService(
            registry=registry, config=ServiceConfig(n_features=60, max_batch_size=4)
        )
        gallery = registry.get("hcp")
        serial = [gallery.identify([scan]) for scan in probes]
        responses = service.identify_many(_single_probe_requests(probes))
        assert max(response.batch_size for response in responses) == 4
        for expected, response in zip(serial, responses):
            assert np.array_equal(expected.similarity, response.match_result.similarity)


class TestAsyncServing:
    def test_gather_coalesces_into_one_batch(self, service, sessions):
        _, probes = sessions

        async def run():
            return await asyncio.gather(
                *(
                    service.identify_async(request)
                    for request in _single_probe_requests(probes)
                )
            )

        responses = asyncio.run(run())
        assert all(response.ok for response in responses)
        assert {response.batch_size for response in responses} == {len(probes)}
        stats = service.stats()
        assert stats.batches == 1
        assert stats.coalesced_batches == 1
        assert stats.max_batch_size == len(probes)

    def test_async_is_bit_identical_to_serial(self, service, registry, sessions):
        _, probes = sessions
        gallery = registry.get("hcp")
        serial = [gallery.identify([scan]) for scan in probes]

        async def run():
            return await asyncio.gather(
                *(
                    service.identify_async(request)
                    for request in _single_probe_requests(probes)
                )
            )

        responses = asyncio.run(run())
        for expected, response in zip(serial, responses):
            assert np.array_equal(expected.similarity, response.match_result.similarity)
            assert np.array_equal(expected.margin(), np.asarray(response.margins))

    def test_concurrency_under_load(self, service, sessions):
        # Many rounds of concurrent single-probe requests, mixed galleries,
        # repeated across event loops: everything must come back correct and
        # the coalescing stats must reflect genuine batching.
        _, probes = sessions

        async def round_trip():
            requests = _single_probe_requests(probes)
            return await asyncio.gather(
                *(service.identify_async(request) for request in requests)
            )

        gallery = service.registry.get("hcp")
        serial = [gallery.identify([scan]) for scan in probes]
        for _ in range(5):  # separate asyncio.run() = separate event loops
            responses = asyncio.run(round_trip())
            assert all(response.ok for response in responses)
            assert all(
                expected.predicted_subject_ids == response.predicted_subject_ids
                for expected, response in zip(serial, responses)
            )
        stats = service.stats()
        assert stats.requests == 5 * len(probes)
        assert stats.batches == 5
        assert stats.mean_batch_size == pytest.approx(len(probes))

    def test_batchers_gauge_only_counts_live_event_loops(self, service, sessions):
        """A fresh ``asyncio.run`` per burst must not inflate the gauge:
        batchers of closed loops are dead weight, not serving capacity."""
        _, probes = sessions

        async def one_burst():
            request = IdentifyRequest(gallery="hcp", scans=[probes[0]])
            response = await service.identify_async(request)
            assert response.ok
            return service.stats().batchers

        for _ in range(3):
            assert asyncio.run(one_burst()) == 1
        assert service.stats().batchers == 0  # every loop above is closed

    def test_sequential_awaits_do_not_batch(self, service, sessions):
        _, probes = sessions

        async def run():
            first = await service.identify_async(
                IdentifyRequest(gallery="hcp", scans=[probes[0]])
            )
            second = await service.identify_async(
                IdentifyRequest(gallery="hcp", scans=[probes[1]])
            )
            return first, second

        first, second = asyncio.run(run())
        assert first.batch_size == 1 and second.batch_size == 1

    def test_mixed_galleries_split_into_per_gallery_batches(self, registry, sessions):
        reference_scans, probes = sessions
        registry.build("second", reference_scans, n_features=30)
        service = IdentificationService(registry=registry)

        async def run():
            requests = [
                IdentifyRequest(
                    gallery="hcp" if index % 2 == 0 else "second", scans=[scan]
                )
                for index, scan in enumerate(probes)
            ]
            return await asyncio.gather(
                *(service.identify_async(request) for request in requests)
            )

        responses = asyncio.run(run())
        assert all(response.ok for response in responses)
        stats = service.stats()
        assert stats.batches == 2  # one stacked match per gallery
        assert stats.galleries == {"hcp": 6, "second": 6}

    def test_requests_submitted_during_a_flush_are_served(self, service, sessions):
        # A second wave submitted while the first wave's batch is computing
        # must schedule its own flush instead of hanging on a dead task.
        _, probes = sessions

        async def run():
            first_wave = [
                asyncio.ensure_future(service.identify_async(request))
                for request in _single_probe_requests(probes[:6])
            ]
            await asyncio.sleep(0)  # let the first flush start
            second_wave = [
                asyncio.ensure_future(service.identify_async(request))
                for request in _single_probe_requests(probes[6:])
            ]
            return await asyncio.gather(*first_wave, *second_wave)

        responses = asyncio.run(asyncio.wait_for(run(), timeout=30))
        assert all(response.ok for response in responses)
        assert len(responses) == len(probes)

    def test_async_error_requests_resolve_not_hang(self, service, sessions):
        _, probes = sessions

        async def run():
            good = service.identify_async(
                IdentifyRequest(gallery="hcp", scans=[probes[0]])
            )
            missing = service.identify_async(
                IdentifyRequest(gallery="ghost", scans=[probes[1]])
            )
            empty = service.identify_async(IdentifyRequest(gallery="hcp", scans=[]))
            return await asyncio.gather(good, missing, empty)

        good, missing, empty = asyncio.run(run())
        assert good.ok
        assert not missing.ok and "unknown gallery" in missing.error
        assert not empty.ok and "at least one probe scan" in empty.error


class TestWarmServing:
    def test_repeat_requests_hit_the_probe_cache(self, service, sessions):
        _, probes = sessions
        requests = _single_probe_requests(probes)
        service.identify_many(requests)
        misses_after_first = service.cache.stats("probe").misses
        service.identify_many(_single_probe_requests(probes))
        stats = service.cache.stats("probe")
        assert stats.misses == misses_after_first  # warm round: no new misses
        assert stats.hits >= 2 * len(probes)
        group_stats = service.cache.stats("group_matrix")
        # One build per probe request plus the fixture's reference build;
        # the warm round never rebuilds a probe group matrix.
        assert group_stats.misses == len(probes) + 1

    def test_enrollment_invalidates_probe_and_gallery_norm_keys(
        self, service, registry, small_hcp, sessions
    ):
        # After enrolling new subjects the fingerprint changes, so warm probe
        # signatures keyed against the old gallery can no longer be served.
        from repro.datasets.hcp import HCPLikeDataset

        _, probes = sessions
        first = service.identify(IdentifyRequest(gallery="hcp", scans=probes))
        grown = HCPLikeDataset(
            n_subjects=small_hcp.n_subjects + 3,
            n_regions=small_hcp.n_regions,
            n_timepoints=120,
            random_state=3,
        )
        extra = grown.generate_session("REST", encoding="LR", day=1)
        response = service.enroll(EnrollRequest(gallery="hcp", scans=extra))
        assert response.ok and response.enrolled == 3
        second = service.identify(IdentifyRequest(gallery="hcp", scans=probes))
        assert second.n_gallery_subjects == first.n_gallery_subjects + 3
        # The grown gallery serves the same probes bit-identically to a
        # serial identify against it.
        serial = registry.get("hcp").identify(probes)
        assert np.array_equal(serial.similarity, second.match_result.similarity)


class TestEnroll:
    def test_concurrent_enroll_and_identify_stay_consistent(
        self, service, small_hcp, sessions
    ):
        # Identifies racing an enroll-driven refit must each see a coherent
        # gallery snapshot: predictions either match the pre-enroll or the
        # post-enroll serial result, never a mix of the two fits.
        import threading

        from repro.datasets.hcp import HCPLikeDataset

        _, probes = sessions
        before = service.registry.get("hcp").identify(probes)
        grown = HCPLikeDataset(
            n_subjects=small_hcp.n_subjects + 2,
            n_regions=small_hcp.n_regions,
            n_timepoints=120,
            random_state=3,
        )
        extra = grown.generate_session("REST", encoding="LR", day=1)
        collected = []

        def identify_loop():
            for _ in range(10):
                collected.append(
                    service.identify(IdentifyRequest(gallery="hcp", scans=probes))
                )

        worker = threading.Thread(target=identify_loop)
        worker.start()
        enrolled = service.enroll(EnrollRequest(gallery="hcp", scans=extra))
        worker.join()
        assert enrolled.ok and enrolled.enrolled == 2
        after = service.registry.get("hcp").identify(probes)
        valid = (before.predicted_subject_ids, after.predicted_subject_ids)
        for response in collected:
            assert response.ok
            assert response.predicted_subject_ids in valid

    def test_enroll_create_builds_a_gallery(self, sessions):
        reference_scans, probes = sessions
        service = IdentificationService(
            registry=GalleryRegistry(
                config=ServiceConfig(n_features=60), cache=ArtifactCache()
            )
        )
        response = service.enroll(
            EnrollRequest(gallery="fresh", scans=reference_scans, create=True)
        )
        assert response.ok and response.created
        assert response.n_subjects == len(reference_scans)
        identify = service.identify(IdentifyRequest(gallery="fresh", scans=probes))
        assert identify.ok
        serial = service.registry.get("fresh").identify(probes)
        assert identify.accuracy == serial.accuracy()

    def test_enroll_unknown_without_create_errors(self, service, sessions):
        response = service.enroll(EnrollRequest(gallery="nope", scans=sessions[0]))
        assert not response.ok and "create=True" in response.error

    def test_enroll_without_scans_errors(self, service):
        response = service.enroll(EnrollRequest(gallery="hcp"))
        assert not response.ok and "at least one scan" in response.error


class TestErrorResponses:
    def test_unknown_gallery_is_an_error_response(self, service, sessions):
        response = service.identify(
            IdentifyRequest(gallery="ghost", scans=[sessions[1][0]])
        )
        assert not response.ok
        assert "unknown gallery" in response.error
        assert service.stats().errors == 1

    def test_bad_request_does_not_poison_the_batch(self, service, registry, sessions):
        _, probes = sessions
        gallery = registry.get("hcp")
        serial = gallery.identify([probes[0]])
        good = IdentifyRequest(gallery="hcp", scans=[probes[0]])
        bad = IdentifyRequest(gallery="hcp")  # no payload at all
        responses = service.identify_many([good, bad])
        assert responses[0].ok
        assert np.array_equal(serial.similarity, responses[0].match_result.similarity)
        assert not responses[1].ok
        assert "probe scans or a pre-built probe" in responses[1].error

    def test_feature_space_mismatch_is_per_request(self, service, small_adhd, sessions):
        _, probes = sessions
        other = small_adhd.generate_session(1)[:1]  # different region count
        responses = service.identify_many(
            [
                IdentifyRequest(gallery="hcp", scans=[probes[0]]),
                IdentifyRequest(gallery="hcp", scans=other),
            ]
        )
        assert responses[0].ok
        assert not responses[1].ok
        assert "feature space" in responses[1].error


class TestConfigPlumbingAndDeprecations:
    def test_service_config_reaches_the_gallery(self, sessions):
        reference_scans, _ = sessions
        config = ServiceConfig(n_features=30, backend="auto")
        service = IdentificationService(config=config)
        service.enroll(
            EnrollRequest(gallery="cfg", scans=reference_scans, create=True)
        )
        gallery = service.registry.get("cfg")
        assert gallery.n_features == 30
        assert gallery.backend == "blas_blocked"

    def test_attack_pipeline_accepts_a_service_config(self, rest_pair):
        config = ServiceConfig(n_features=40)
        pipeline = AttackPipeline(config=config)
        assert pipeline.n_features == 40
        report = pipeline.run_on_groups(rest_pair["reference"], rest_pair["target"])
        legacy = AttackPipeline(n_features=40).run_on_groups(
            rest_pair["reference"], rest_pair["target"]
        )
        assert np.array_equal(
            report.match_result.similarity, legacy.match_result.similarity
        )

    @pytest.mark.parametrize("keyword", ["shard_size", "runner"])
    @pytest.mark.parametrize(
        "construct",
        [
            lambda sessions, **kw: AttackPipeline(n_features=40, **kw),
            lambda sessions, **kw: ReferenceGallery.from_scans(
                sessions[0], n_features=40, cache=ArtifactCache(), **kw
            ),
            lambda sessions, **kw: GalleryRegistry(cache=ArtifactCache(), **kw),
        ],
        ids=["pipeline", "gallery", "registry"],
    )
    def test_removed_pool_keywords_rejected(self, sessions, construct, keyword):
        """The deprecated shard_size/runner paths are gone, not ignored."""
        with pytest.raises(TypeError, match=keyword):
            construct(sessions, **{keyword: None})

    def test_config_construction_does_not_warn(self, recwarn):
        AttackPipeline(config=ServiceConfig(n_features=40))
        assert not [
            warning for warning in recwarn if warning.category is DeprecationWarning
        ]
