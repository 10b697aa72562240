"""Column-split invariance of gallery matching.

The acceptance criterion is *bit-for-bit* equality at the kernel level: with
the default ``numpy64`` backend, the similarity of any block or subset of
gallery columns (a "shard") must equal the matching rows of the full block,
and any split of the probe columns must equal the matching columns — down
to pathological one-column blocks.  The
:class:`~repro.gallery.index.PruningIndex` re-rank (a fancy-indexed gallery
column subset) and the service micro-batcher (stacked probe columns) rely on
exactly this property.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.attack.matching import match_subjects
from repro.exceptions import AttackError, ValidationError
from repro.gallery.matching import (
    match_against_gallery,
    match_normalized,
    normalize_columns,
    shard_similarity,
    similarity_kernel,
)


@pytest.fixture(scope="module")
def reduced_pair(rest_pair):
    """A reduced reference/probe matrix pair in a 60-feature space."""
    rng = np.random.default_rng(11)
    features = rng.choice(rest_pair["reference"].n_features, size=60, replace=False)
    return (
        rest_pair["reference"].data[features, :],
        rest_pair["target"].data[features, :],
    )


@pytest.fixture(scope="module")
def normalized_pair(reduced_pair):
    """The reduced pair normalized once over the full matrices."""
    reference, probe = reduced_pair
    return normalize_columns(reference) + normalize_columns(probe)


def _blocks(n_columns, width):
    return [(start, min(start + width, n_columns)) for start in range(0, n_columns, width)]


class TestShardEquivalence:
    def test_single_block_matches_match_subjects_predictions(self, reduced_pair):
        reference, probe = reduced_pair
        single = match_against_gallery(reference, probe)
        legacy = match_subjects(reference, probe)
        assert np.array_equal(
            single.predicted_reference_index, legacy.predicted_reference_index
        )
        assert np.allclose(single.similarity, legacy.similarity)

    @pytest.mark.parametrize("shard_size", [1, 2, 3, 5, 7, 11, 12, 100])
    def test_every_shard_layout_is_bitwise_identical(self, normalized_pair, shard_size):
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        gallery_blocks = [
            similarity_kernel(ref_n[:, start:stop], prb_n, ref_d[start:stop], prb_d)
            for start, stop in _blocks(ref_n.shape[1], shard_size)
        ]
        assert np.array_equal(np.vstack(gallery_blocks), full)
        probe_blocks = [
            similarity_kernel(ref_n, prb_n[:, start:stop], ref_d, prb_d[start:stop])
            for start, stop in _blocks(prb_n.shape[1], shard_size)
        ]
        assert np.array_equal(np.hstack(probe_blocks), full)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_column_subset_is_bitwise_identical(self, normalized_pair, seed):
        """Unsorted, fancy-indexed subsets: the index re-rank takes gallery
        columns this way, and a stacked batch is any subset of probes."""
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        full = match_normalized(ref_n, prb_n, ref_d, prb_d)
        rng = np.random.default_rng(seed)
        for size in (1, 2, ref_n.shape[1] // 3, ref_n.shape[1]):
            subset = rng.choice(ref_n.shape[1], size=size, replace=False)
            block = similarity_kernel(ref_n[:, subset], prb_n, ref_d[subset], prb_d)
            assert np.array_equal(block, full[subset, :])
        for size in (1, 2, prb_n.shape[1] // 2, prb_n.shape[1]):
            subset = rng.choice(prb_n.shape[1], size=size, replace=False)
            alone = match_normalized(ref_n, prb_n[:, subset], ref_d, prb_d[subset])
            assert np.array_equal(alone, full[:, subset])

    def test_degenerate_columns_survive_sharding(self):
        rng = np.random.default_rng(0)
        reference = rng.standard_normal((40, 9))
        probe = rng.standard_normal((40, 4))
        reference[:, 2] = 1.5  # constant gallery subject
        probe[:, 1] = -3.0  # constant probe
        single = match_against_gallery(reference, probe)
        ref_n, ref_d = normalize_columns(reference)
        prb_n, prb_d = normalize_columns(probe)
        blocks = [
            similarity_kernel(ref_n[:, start:stop], prb_n, ref_d[start:stop], prb_d)
            for start, stop in _blocks(reference.shape[1], 2)
        ]
        assert np.array_equal(np.vstack(blocks), single.similarity)
        assert np.all(single.similarity[2, :] == 0.0)
        assert np.all(single.similarity[:, 1] == 0.0)

    def test_subject_ids_flow_through(self, reduced_pair):
        reference, probe = reduced_pair
        ref_ids = [f"r{i}" for i in range(reference.shape[1])]
        tgt_ids = [f"t{i}" for i in range(probe.shape[1])]
        result = match_against_gallery(
            reference, probe,
            reference_subject_ids=ref_ids, target_subject_ids=tgt_ids,
        )
        assert result.reference_subject_ids == ref_ids
        assert result.target_subject_ids == tgt_ids


def _pooled_blocks(pool, ref_n, ref_d, prb_n, prb_d, width):
    """Gallery column blocks computed by ``pool`` workers, stacked in order."""
    futures = [
        pool.submit(
            similarity_kernel, ref_n[:, start:stop], prb_n, ref_d[start:stop], prb_d
        )
        for start, stop in _blocks(ref_n.shape[1], width)
    ]
    return np.vstack([future.result() for future in futures])


class TestPooledSharding:
    """Blocks computed in other threads or forked processes keep the bits.

    HTTP handler threads share the kernel, and routed-fleet workers compute
    matches in separate processes that the router's bit-identity gate
    compares against in-process results.
    """

    def test_thread_pool_matches_inline_bitwise(self, normalized_pair):
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        inline = match_normalized(ref_n, prb_n, ref_d, prb_d)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = _pooled_blocks(pool, ref_n, ref_d, prb_n, prb_d, width=5)
        assert np.array_equal(pooled, inline)

    def test_process_pool_matches_inline_bitwise(self, normalized_pair):
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        inline = match_normalized(ref_n, prb_n, ref_d, prb_d)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = _pooled_blocks(pool, ref_n, ref_d, prb_n, prb_d, width=24)
        assert np.array_equal(pooled, inline)


class TestOtherBackends:
    """``numpy32`` and ``blas_blocked`` make no bitwise promise across column
    blocks, only agreement to their precision's tolerance."""

    @pytest.mark.parametrize(
        "backend, rtol", [("numpy32", 1e-5), ("blas_blocked", 1e-12)]
    )
    @pytest.mark.parametrize("width", [1, 7])
    def test_column_blocks_agree_within_precision(
        self, normalized_pair, backend, rtol, width
    ):
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        full = match_normalized(ref_n, prb_n, ref_d, prb_d, backend=backend)
        blocks = [
            similarity_kernel(
                ref_n[:, start:stop], prb_n, ref_d[start:stop], prb_d, backend=backend
            )
            for start, stop in _blocks(ref_n.shape[1], width)
        ]
        stacked = np.vstack(blocks)
        assert stacked.dtype == full.dtype
        assert np.allclose(stacked, full, rtol=rtol, atol=rtol)


class TestValidation:
    def test_feature_space_mismatch_rejected(self, reduced_pair):
        reference, probe = reduced_pair
        with pytest.raises(AttackError, match="feature space"):
            match_against_gallery(reference, probe[:-1, :])

    def test_single_feature_rejected(self):
        with pytest.raises(AttackError, match="two features"):
            match_against_gallery(np.ones((1, 3)), np.ones((1, 2)))

    def test_id_length_mismatch_rejected(self, reduced_pair):
        reference, probe = reduced_pair
        with pytest.raises(ValidationError, match="reference_subject_ids"):
            match_against_gallery(reference, probe, reference_subject_ids=["a"])

    def test_shard_similarity_validates_feature_space(self):
        with pytest.raises(AttackError, match="feature space"):
            shard_similarity(np.ones((4, 2)), np.ones((5, 2)))

    @pytest.mark.parametrize("function", [match_against_gallery, match_normalized])
    @pytest.mark.parametrize("keyword", ["shard_size", "runner"])
    def test_removed_pool_keywords_rejected(self, normalized_pair, function, keyword):
        """Matching is one in-process call: the pooled-shard knobs are gone
        rather than silently ignored."""
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        args = (ref_n, prb_n) if function is match_against_gallery else (
            ref_n, prb_n, ref_d, prb_d
        )
        with pytest.raises(TypeError, match=keyword):
            function(*args, **{keyword: None})
