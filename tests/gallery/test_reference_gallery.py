"""Tests for the persistent ReferenceGallery: fit-once, persistence, enroll."""

import json

import numpy as np
import pytest

from repro.attack.deanonymize import LeverageScoreAttack
from repro.attack.pipeline import AttackPipeline
from repro.exceptions import AttackError, ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache


@pytest.fixture()
def sessions(small_hcp):
    """Reference and probe scan sessions of the shared small cohort."""
    return (
        small_hcp.generate_session("REST", encoding="LR", day=1),
        small_hcp.generate_session("REST", encoding="RL", day=2),
    )


def _write_legacy_archive(gallery, directory, shard_size):
    """Save ``gallery`` as an earlier release did, with a ``shard_size`` key."""
    gallery.save(directory)
    meta_path = directory / "gallery.json"
    meta = json.loads(meta_path.read_text())
    meta["shard_size"] = shard_size
    meta_path.write_text(json.dumps(meta))


class TestFitAndIdentify:
    def test_identify_matches_the_attack_path(self, rest_pair):
        gallery = ReferenceGallery(
            rest_pair["reference"], n_features=80, cache=ArtifactCache()
        )
        attack = LeverageScoreAttack(n_features=80).fit(rest_pair["reference"])
        gallery_result = gallery.identify_group(rest_pair["target"])
        attack_result = attack.identify(rest_pair["target"])
        assert np.array_equal(
            gallery.selector_.selected_indices_, attack.selected_features_
        )
        assert np.allclose(gallery_result.similarity, attack_result.similarity)
        assert (
            gallery_result.predicted_subject_ids == attack_result.predicted_subject_ids
        )

    def test_pipeline_routes_through_the_gallery(self, sessions):
        reference_scans, probe_scans = sessions
        pipeline = AttackPipeline(n_features=80)
        report = pipeline.run(reference_scans, probe_scans)
        assert pipeline.gallery_ is not None
        assert pipeline.gallery_.refit_count_ == 1
        assert pipeline.attack_.selected_features_ is not None
        direct = pipeline.gallery_.identify(probe_scans)
        assert np.array_equal(direct.similarity, report.match_result.similarity)

    def test_identify_is_deterministic(self, sessions):
        reference_scans, probe_scans = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        first = gallery.identify(probe_scans)
        second = gallery.identify(probe_scans)
        assert np.array_equal(first.similarity, second.similarity)

    def test_sharded_gallery_is_bitwise_identical(self, sessions, tmp_path):
        """Archives written while matching could be split into column shards
        carry a ``shard_size`` key in gallery.json.  The integrity digest
        never covered it, so such an archive loads and serves the bits of a
        fresh single-call fit."""
        reference_scans, probe_scans = sessions
        single = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        _write_legacy_archive(single, tmp_path / "gal", shard_size=3)
        sharded = ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())
        expected = single.identify(probe_scans)
        served = sharded.identify(probe_scans)
        assert np.array_equal(expected.similarity, served.similarity)
        assert expected.predicted_subject_ids == served.predicted_subject_ids
        assert sharded.fingerprint == single.fingerprint

    def test_generator_seeded_randomized_galleries_do_not_collide(self, rest_pair):
        # Two different generator draws must not share cached fit artifacts:
        # each gallery's signatures have to match its own selected indices.
        cache = ArtifactCache()
        galleries = [
            ReferenceGallery(
                rest_pair["reference"], n_features=50, rank=3,
                method="randomized",
                random_state=np.random.default_rng(seed),
                cache=cache,
            )
            for seed in (0, 100)
        ]
        for gallery in galleries:
            expected = rest_pair["reference"].data[
                gallery.selector_.selected_indices_, :
            ]
            assert np.array_equal(gallery.signatures_, expected)

    def test_randomized_backend_fits(self, rest_pair):
        gallery = ReferenceGallery(
            rest_pair["reference"],
            n_features=50,
            rank=5,
            method="randomized",
            random_state=3,
            cache=ArtifactCache(),
        )
        result = gallery.identify_group(rest_pair["target"])
        assert gallery.selector_.selected_indices_.shape == (50,)
        assert 0.0 <= result.accuracy() <= 1.0

    def test_too_many_features_rejected(self, rest_pair):
        with pytest.raises(AttackError, match="n_features"):
            ReferenceGallery(
                rest_pair["reference"],
                n_features=rest_pair["reference"].n_features + 1,
            )

    def test_probe_feature_mismatch_rejected(self, rest_pair, small_adhd):
        gallery = ReferenceGallery(
            rest_pair["reference"], n_features=40, cache=ArtifactCache()
        )
        other = small_adhd.session_pair()["target"]  # different region count
        with pytest.raises(AttackError, match="feature space"):
            gallery.identify_group(other)


class TestCacheBehaviour:
    def test_repeated_identify_hits_the_cache(self, sessions):
        reference_scans, probe_scans = sessions
        cache = ArtifactCache()
        gallery = ReferenceGallery.from_scans(reference_scans, n_features=60, cache=cache)
        gallery.identify(probe_scans)
        misses_after_first = cache.stats("group_matrix").misses
        hits_after_first = cache.stats("group_matrix").hits
        gallery.identify(probe_scans)
        gallery.identify(probe_scans)
        stats = cache.stats("group_matrix")
        assert stats.misses == misses_after_first  # no new probe builds
        assert stats.hits == hits_after_first + 2
        assert gallery.refit_count_ == 1  # identify never refits

    def test_second_gallery_reuses_the_fit(self, sessions):
        reference_scans, _ = sessions
        cache = ArtifactCache()
        ReferenceGallery.from_scans(reference_scans, n_features=60, cache=cache)
        assert cache.stats("leverage").misses == 1
        ReferenceGallery.from_scans(reference_scans, n_features=60, cache=cache)
        stats = cache.stats("leverage")
        assert stats.misses == 1
        assert stats.hits == 1
        assert cache.stats("gallery").hits == 1

    def test_different_n_features_shares_leverage_scores(self, sessions):
        reference_scans, _ = sessions
        cache = ArtifactCache()
        ReferenceGallery.from_scans(reference_scans, n_features=40, cache=cache)
        ReferenceGallery.from_scans(reference_scans, n_features=80, cache=cache)
        stats = cache.stats("leverage")
        assert stats.misses == 1
        assert stats.hits == 1
        # The reduced signature matrices differ, so the gallery kind forked.
        assert cache.stats("gallery").misses == 2


class TestPersistence:
    def test_save_load_roundtrip_identify_is_identical(self, sessions, tmp_path):
        reference_scans, probe_scans = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        before = gallery.identify(probe_scans)
        gallery.save(tmp_path / "gal")

        loaded = ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())
        after = loaded.identify(probe_scans)
        assert np.array_equal(before.similarity, after.similarity)
        assert before.predicted_subject_ids == after.predicted_subject_ids
        assert loaded.refit_count_ == 0  # loading never refits
        assert loaded.fingerprint == gallery.fingerprint


    @pytest.mark.parametrize("shard_size", [None, 1, 4, 1000])
    def test_legacy_shard_size_key_is_dropped_on_resave(
        self, sessions, tmp_path, shard_size
    ):
        reference_scans, probe_scans = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        _write_legacy_archive(gallery, tmp_path / "old", shard_size=shard_size)
        legacy = ReferenceGallery.load(tmp_path / "old", cache=ArtifactCache())
        assert "shard_size" not in legacy.info()
        legacy.save(tmp_path / "new")
        meta = json.loads((tmp_path / "new" / "gallery.json").read_text())
        assert "shard_size" not in meta
        resaved = ReferenceGallery.load(tmp_path / "new", cache=ArtifactCache())
        assert resaved.fingerprint == gallery.fingerprint
        assert np.array_equal(
            resaved.identify(probe_scans).similarity,
            gallery.identify(probe_scans).similarity,
        )

    def test_loaded_gallery_primes_the_cache(self, sessions, tmp_path):
        reference_scans, _ = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        gallery.save(tmp_path / "gal")
        cache = ArtifactCache()
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=cache)
        # Building a fresh gallery over the same cohort is now a pure hit.
        rebuilt = ReferenceGallery(loaded.reference, n_features=60, cache=cache)
        assert cache.stats("leverage").hits >= 1
        assert rebuilt.refit_count_ == 1
        assert np.array_equal(
            rebuilt.selector_.selected_indices_, loaded.selector_.selected_indices_
        )

    def test_metadata_roundtrips(self, sessions, tmp_path):
        reference_scans, _ = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=40, cache=ArtifactCache(),
            metadata={"site": "unit-test"},
        )
        gallery.save(tmp_path / "gal")
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())
        assert loaded.metadata == {"site": "unit-test"}

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no saved gallery"):
            ReferenceGallery.load(tmp_path / "nothing")

    @pytest.mark.parametrize(
        "tampered", ["reference", "signatures", "selected_indices", "leverage_scores"]
    )
    def test_tampered_arrays_rejected(self, sessions, tmp_path, tampered):
        reference_scans, _ = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=40, cache=ArtifactCache()
        )
        gallery.save(tmp_path / "gal")
        archive = tmp_path / "gal" / "gallery.npz"
        with np.load(archive) as data:
            arrays = {name: data[name] for name in data.files}
        arrays[tampered] = arrays[tampered] + 1
        np.savez_compressed(archive, **arrays)
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())


class TestEnrollment:
    def test_enroll_appends_and_refits(self, small_hcp, sessions):
        reference_scans, _ = sessions
        cache = ArtifactCache()
        gallery = ReferenceGallery.from_scans(reference_scans, n_features=60, cache=cache)
        n_before = gallery.n_subjects

        from repro.datasets.hcp import HCPLikeDataset

        bigger = HCPLikeDataset(
            n_subjects=small_hcp.n_subjects + 3,
            n_regions=small_hcp.n_regions,
            n_timepoints=120,
            random_state=3,
        )
        added = gallery.enroll(bigger.generate_session("REST", encoding="LR", day=1))
        assert added == 3
        assert gallery.n_subjects == n_before + 3
        assert gallery.refit_count_ == 2
        probes = bigger.generate_session("REST", encoding="RL", day=2)
        result = gallery.identify(probes)
        assert len(result.target_subject_ids) == n_before + 3

    def test_reenrolling_same_scans_is_a_noop(self, sessions):
        reference_scans, _ = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans, n_features=60, cache=ArtifactCache()
        )
        assert gallery.enroll(reference_scans) == 0
        assert gallery.refit_count_ == 1  # unchanged key -> no refit

    def test_enroll_after_load_reuses_cached_fit_states(self, sessions, tmp_path):
        reference_scans, _ = sessions
        cache = ArtifactCache()
        gallery = ReferenceGallery.from_scans(reference_scans, n_features=60, cache=cache)
        gallery.save(tmp_path / "gal")
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=cache)
        assert loaded.enroll(reference_scans) == 0
        assert loaded.refit_count_ == 0


class TestIntrospection:
    def test_info_reports_state_and_cache_kinds(self, rest_pair):
        gallery = ReferenceGallery(
            rest_pair["reference"], n_features=40, cache=ArtifactCache()
        )
        info = gallery.info()
        assert info["n_subjects"] == rest_pair["reference"].n_scans
        assert info["n_features_selected"] == 40
        assert info["refit_count"] == 1
        assert set(info["cache"]) == {
            "gallery", "leverage", "svd", "group_matrix", "index",
        }

    def test_signature_region_pairs(self, small_hcp, rest_pair):
        gallery = ReferenceGallery(
            rest_pair["reference"], n_features=40, cache=ArtifactCache()
        )
        pairs = gallery.signature_region_pairs(small_hcp.n_regions, top=5)
        assert len(pairs) == 5
        for a, b in pairs:
            assert 0 <= a < b < small_hcp.n_regions

    def test_as_attack_supports_reference_override(self, rest_pair):
        gallery = ReferenceGallery(
            rest_pair["reference"], n_features=40, cache=ArtifactCache()
        )
        attack = gallery.as_attack()
        subset = rest_pair["reference"].select_columns(range(5))
        target_subset = rest_pair["target"].select_columns(range(5))
        result = attack.identify(target_subset, reference=subset)
        assert result.similarity.shape == (5, 5)
