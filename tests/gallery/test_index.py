"""Candidate-pruning index: exactness, invalidation, persistence, policy.

The :class:`~repro.gallery.index.PruningIndex` contract is that pruning is
*invisible* to identification outcomes: argmax and top-1/top-2 margins of
the pruned output equal the full exact scan bit-for-bit, whatever column
blocks that full scan was assembled from.  These tests pin that contract
on structured, adversarial, degenerate, and tied inputs, plus the
operational machinery around it — enroll-driven refits, the ``index``
artifact kind, save/load integrity, and the ``precision="indexed"`` opt-in
policy.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.gallery.index import (
    DEFAULT_INDEX_RANK,
    FILL_VALUE,
    INDEXED_PRECISION,
    PruningIndex,
    default_top_c,
)
from repro.gallery.matching import match_normalized, normalize_columns, similarity_kernel
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache


def structured_matrices(n_columns=400, n_features=60, n_probes=7, seed=11):
    """A low-rank gallery with planted probes, a duplicate column (tie),
    degenerate columns on both sides, and an anti-correlated probe."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((n_features, 6))
    reference = basis @ rng.standard_normal((6, n_columns))
    reference += 0.05 * rng.standard_normal((n_features, n_columns))
    reference[:, 31] = reference[:, 13]  # exact duplicate -> guaranteed tie
    reference[:, 77] = 2.5  # constant column -> degenerate after normalization
    probes = rng.standard_normal((n_features, n_probes))
    probes[:, 0] = reference[:, 13] + 0.01 * rng.standard_normal(n_features)
    probes[:, 1] = -reference[:, 5]  # best match is strongly negative
    probes[:, 2] = 0.0  # degenerate probe
    ref_n, ref_d = normalize_columns(reference)
    prb_n, prb_d = normalize_columns(probes)
    return ref_n, ref_d, prb_n, prb_d


def margins(similarity):
    ordered = np.sort(similarity, axis=0)
    return ordered[-1, :] - ordered[-2, :]


class TestExactness:
    @pytest.mark.parametrize("method", ["projection", "svd"])
    def test_argmax_and_margin_equal_full_scan(self, method):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        index = PruningIndex.fit(ref_n, rank=8, top_c=16, method=method)
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        assert np.array_equal(np.argmax(pruned, axis=0), np.argmax(full, axis=0))
        assert np.array_equal(margins(pruned), margins(full))

    def test_evaluated_entries_are_bit_identical(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        index = PruningIndex.fit(ref_n, rank=8, top_c=16)
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        evaluated = pruned != FILL_VALUE
        assert evaluated.any()
        assert np.array_equal(pruned[evaluated], full[evaluated])

    @pytest.mark.parametrize("shard_size", [None, 1, 7, 64])
    def test_rank_agreement_across_shard_sizes(self, shard_size):
        """The full scan may be one block or assembled from column blocks."""
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        if shard_size is None:
            full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        else:
            full = np.vstack([
                similarity_kernel(
                    ref_n[:, start:start + shard_size], prb_n,
                    ref_d[start:start + shard_size], prb_d,
                )
                for start in range(0, ref_n.shape[1], shard_size)
            ])
        index = PruningIndex.fit(ref_n, rank=8, top_c=16)
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        assert np.array_equal(np.argmax(pruned, axis=0), np.argmax(full, axis=0))
        assert np.array_equal(margins(pruned), margins(full))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_rank_agreement_against_pooled_full_scan(self, executor):
        """The full scan a routed-fleet worker or server thread computes
        elsewhere agrees with the index fitted in this process."""
        ref_n, ref_d, prb_n, prb_d = structured_matrices(n_columns=120)
        pool_class = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_class(max_workers=2) as pool:
            full = pool.submit(match_normalized, ref_n, prb_n, ref_d, prb_d).result()
        index = PruningIndex.fit(ref_n, rank=8, top_c=16)
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        assert np.array_equal(np.argmax(pruned, axis=0), np.argmax(full, axis=0))
        assert np.array_equal(margins(pruned), margins(full))

    def test_match_normalized_routes_through_index(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        index = PruningIndex.fit(ref_n, rank=8, top_c=16)
        via_kwarg = match_normalized(
            ref_n, prb_n, ref_d, prb_d, index=index, index_top_c=16
        )
        direct = index.match(ref_n, prb_n, ref_d, prb_d, top_c=16)
        assert np.array_equal(via_kwarg, direct)

    def test_unstructured_gallery_stays_exact_even_if_nothing_prunes(self):
        # iid Gaussian columns: the residuals are large, the bound is loose
        # and the escalation pass may scan everything — exactness must hold
        # regardless (pruning effectiveness is data-dependent, exactness
        # is not).
        rng = np.random.default_rng(3)
        ref_n, ref_d = normalize_columns(rng.standard_normal((40, 300)))
        prb_n, prb_d = normalize_columns(rng.standard_normal((40, 5)))
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        pruned = PruningIndex.fit(ref_n, rank=8, top_c=16).match(
            ref_n, prb_n, ref_d, prb_d
        )
        assert np.array_equal(np.argmax(pruned, axis=0), np.argmax(full, axis=0))
        assert np.array_equal(margins(pruned), margins(full))

    def test_small_gallery_falls_back_to_full_scan(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices(n_columns=400)
        index = PruningIndex.fit(ref_n, rank=8, top_c=500)  # budget >= gallery
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        assert np.array_equal(pruned, full)
        assert index.counters()["pruning_ratio"] == 0.0


class TestCountersAndDescribe:
    def test_counters_track_scanned_vs_considered(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        index = PruningIndex.fit(ref_n, rank=8, top_c=16)
        index.match(ref_n, prb_n, ref_d, prb_d)
        counters = index.counters()
        assert counters["batches"] == 1
        assert counters["probes"] == prb_n.shape[1]
        assert counters["columns_considered"] == ref_n.shape[1] * prb_n.shape[1]
        assert 0 < counters["candidates_scanned"] <= counters["columns_considered"]
        assert counters["full_scans_avoided"] == (
            counters["columns_considered"] - counters["candidates_scanned"]
        )

    def test_describe_carries_fit_parameters(self):
        ref_n, _, _, _ = structured_matrices()
        index = PruningIndex.fit(ref_n, rank=8, method="svd", seed=5)
        description = index.describe()
        assert description["rank"] == 8
        assert description["method"] == "svd"
        assert description["seed"] == 5
        assert description["n_columns"] == ref_n.shape[1]
        assert description["top_c"] == default_top_c(8)


class TestValidationAndPolicy:
    def test_stale_index_is_a_clear_error(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        index = PruningIndex.fit(ref_n[:, :300], rank=8)
        with pytest.raises(ConfigurationError, match="stale"):
            index.match(ref_n, prb_n, ref_d, prb_d)

    def test_feature_mismatch_is_a_clear_error(self):
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        index = PruningIndex.fit(ref_n[:30, :], rank=8)
        with pytest.raises(ConfigurationError, match="feature"):
            index.match(ref_n, prb_n, ref_d, prb_d)

    def test_backend_keyword_is_rejected(self):
        """The exact re-rank always runs the one kernel; no backend knob."""
        ref_n, ref_d, prb_n, prb_d = structured_matrices()
        index = PruningIndex.fit(ref_n, rank=8)
        with pytest.raises(TypeError, match="backend"):
            index.match(ref_n, prb_n, ref_d, prb_d, backend="numpy64")

    def test_unknown_method_is_rejected(self):
        ref_n, _, _, _ = structured_matrices()
        with pytest.raises(ConfigurationError, match="method"):
            PruningIndex.fit(ref_n, method="hashing")

    def test_indexed_precision_is_the_only_opt_in(self):
        from repro.service.config import PRECISIONS, ServiceConfig

        assert PRECISIONS == ("float64", INDEXED_PRECISION)
        default = ServiceConfig()
        assert default.precision == "float64"
        assert not default.index_active
        assert "index_rank" not in default.gallery_kwargs()
        indexed = ServiceConfig(precision=INDEXED_PRECISION)
        assert indexed.index_active
        assert indexed.gallery_kwargs()["index_rank"] == DEFAULT_INDEX_RANK
        with pytest.raises(
            ConfigurationError, match=r"\('float64', 'indexed'\), got 'float32'"
        ):
            ServiceConfig(precision="float32")


class TestArtifactCache:
    def test_refit_over_unchanged_gallery_is_a_cache_hit(self):
        ref_n, _, _, _ = structured_matrices()
        cache = ArtifactCache()
        PruningIndex.fit(ref_n, rank=8, cache=cache, fingerprint="fp-1")
        misses = cache.stats("index").misses
        again = PruningIndex.fit(ref_n, rank=8, cache=cache, fingerprint="fp-1")
        assert cache.stats("index").misses == misses  # no new misses
        assert cache.stats("index").hits >= 3
        assert again.rank == 8

    def test_fingerprint_change_keys_fresh_artifacts(self):
        ref_n, _, _, _ = structured_matrices()
        cache = ArtifactCache()
        PruningIndex.fit(ref_n, rank=8, cache=cache, fingerprint="fp-1")
        puts = cache.stats("index").puts
        PruningIndex.fit(ref_n, rank=8, cache=cache, fingerprint="fp-2")
        assert cache.stats("index").puts == puts + 3  # refit, not aliased


@pytest.fixture()
def indexed_gallery(small_hcp):
    """A fitted gallery with an eager pruning index."""
    scans = small_hcp.generate_session("REST", encoding="LR", day=1)
    return ReferenceGallery.from_scans(
        scans, n_features=40, cache=ArtifactCache(), index_rank=6, index_top_c=8
    )


class TestGalleryIntegration:
    def test_fit_builds_the_index_eagerly(self, indexed_gallery):
        assert indexed_gallery.index_ is not None
        assert indexed_gallery.index_.rank == 6
        assert indexed_gallery.index_.sketch_.shape[1] == indexed_gallery.n_subjects
        assert indexed_gallery.index_.fingerprint == indexed_gallery.fingerprint

    def test_enroll_refits_the_index(self, indexed_gallery, small_hcp):
        # Satellite guarantee: enrollment after fit must rebuild the index —
        # a stale sketch could silently prune the newly enrolled subjects
        # out of every candidate set.
        stale_fingerprint = indexed_gallery.index_.fingerprint
        before = indexed_gallery.n_subjects
        extra = small_hcp.generate_session("REST", encoding="LR", day=2)[:3]
        added = indexed_gallery.enroll(extra)
        index = indexed_gallery.index_
        assert added == 3
        assert indexed_gallery.n_subjects == before + 3
        assert index.sketch_.shape[1] == indexed_gallery.n_subjects
        assert index.fingerprint == indexed_gallery.fingerprint
        assert index.fingerprint != stale_fingerprint

    def test_identify_after_enroll_sees_the_new_subjects(
        self, indexed_gallery, small_hcp
    ):
        # The refit index must still serve exact outcomes over the grown
        # gallery: identify day-2 probes after enrolling them and compare
        # the pruned path against the full scan column-for-column.
        extra = small_hcp.generate_session("REST", encoding="LR", day=2)
        indexed_gallery.enroll(extra[:3])
        index = indexed_gallery.ensure_index()
        ref_n, ref_d = normalize_columns(indexed_gallery.signatures_)
        rng = np.random.default_rng(0)
        probes = indexed_gallery.signatures_ + 0.01 * rng.standard_normal(
            indexed_gallery.signatures_.shape
        )
        prb_n, prb_d = normalize_columns(probes)
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        pruned = index.match(ref_n, prb_n, ref_d, prb_d)
        assert np.array_equal(np.argmax(pruned, axis=0), np.argmax(full, axis=0))
        assert np.array_equal(margins(pruned), margins(full))

    def test_ensure_index_is_idempotent_when_fresh(self, indexed_gallery):
        first = indexed_gallery.ensure_index()
        assert indexed_gallery.ensure_index() is first

    def test_ensure_index_refits_on_rank_change(self, indexed_gallery):
        first = indexed_gallery.ensure_index()
        changed = indexed_gallery.ensure_index(rank=4)
        assert changed is not first
        assert changed.rank == 4

    def test_info_describes_the_index(self, indexed_gallery):
        info = indexed_gallery.info()
        assert info["index"]["rank"] == 6
        assert info["index"]["n_columns"] == indexed_gallery.n_subjects

    def test_save_load_round_trips_the_index(self, indexed_gallery, tmp_path):
        directory = indexed_gallery.save(tmp_path / "gal")
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.index_ is not None
        assert loaded.index_.rank == indexed_gallery.index_.rank
        assert loaded.index_.top_c == indexed_gallery.index_.top_c
        assert np.array_equal(loaded.index_.sketch_, indexed_gallery.index_.sketch_)
        assert np.array_equal(
            loaded.index_.projection_, indexed_gallery.index_.projection_
        )
        assert loaded.index_.fingerprint == loaded.fingerprint

    def test_tampered_index_sketch_fails_the_load(self, indexed_gallery, tmp_path):
        directory = indexed_gallery.save(tmp_path / "gal")
        archive = directory / "gallery.npz"
        with np.load(archive) as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["index_sketch"].reshape(-1)[0] += 1.0
        np.savez_compressed(archive, **arrays)
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_missing_index_arrays_fail_the_load(self, indexed_gallery, tmp_path):
        directory = indexed_gallery.save(tmp_path / "gal")
        archive = directory / "gallery.npz"
        with np.load(archive) as data:
            arrays = {
                key: data[key].copy()
                for key in data.files
                if not key.startswith("index_")
            }
        np.savez_compressed(archive, **arrays)
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_galleries_without_an_index_still_round_trip(self, small_hcp, tmp_path):
        # Backward compatibility: archives of index-less galleries hash
        # identically to before the index tier existed.
        scans = small_hcp.generate_session("REST", encoding="LR", day=1)
        gallery = ReferenceGallery.from_scans(
            scans, n_features=40, cache=ArtifactCache()
        )
        assert gallery.index_ is None
        directory = gallery.save(tmp_path / "plain")
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.index_ is None
        assert loaded.fingerprint == gallery.fingerprint

    def test_index_presence_leaves_the_default_path_untouched(
        self, indexed_gallery, small_hcp
    ):
        # precision="indexed" is strictly opt-in: a gallery that happens to
        # carry an index must produce byte-identical default identifications
        # to one that never fitted one.
        scans = small_hcp.generate_session("REST", encoding="LR", day=1)
        plain = ReferenceGallery.from_scans(
            scans, n_features=40, cache=ArtifactCache()
        )
        probes = small_hcp.generate_session("REST", encoding="RL", day=2)
        indexed_result = indexed_gallery.identify(probes)
        plain_result = plain.identify(probes)
        assert np.array_equal(indexed_result.similarity, plain_result.similarity)
        assert np.array_equal(
            indexed_result.predicted_reference_index,
            plain_result.predicted_reference_index,
        )
