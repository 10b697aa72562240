"""Column-split invariance of gallery matching.

The acceptance criterion is *bit-for-bit* equality at the kernel level: with
the one fixed-order float64 kernel, the similarity of any block or subset of
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


@pytest.fixture(scope="module")
def planted_pair():
    """A pre-normalized reference/probe pair with planted degenerate columns."""
    rng = np.random.default_rng(7)
    reference = rng.standard_normal((80, 24))
    probe = rng.standard_normal((80, 9))
    reference[:, 5] = 2.0  # constant gallery subject
    probe[:, 2] = -1.0  # constant probe
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


class TestSimilarityKernel:
    """The one kernel reproduces the fixed-order float64 einsum exactly."""

    def test_matches_the_reference_einsum_formula(self, planted_pair):
        ref_n, ref_d, probe_n, probe_d = planted_pair
        expected = np.einsum("ij,ik->jk", ref_n, probe_n, optimize=False)
        expected[ref_d, :] = 0.0
        expected[:, probe_d] = 0.0
        expected = np.clip(expected, -1.0, 1.0)
        actual = similarity_kernel(ref_n, probe_n, ref_d, probe_d)
        assert actual.dtype == np.float64
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("shard_size", [1, 3, 5, 11, None])
    def test_bit_identical_across_shard_sizes(self, planted_pair, shard_size):
        ref_n, ref_d, probe_n, probe_d = planted_pair
        single = match_normalized(ref_n, probe_n, ref_d, probe_d)
        width = shard_size or ref_n.shape[1]
        blocks = [
            similarity_kernel(
                ref_n[:, start:start + width], probe_n,
                ref_d[start:start + width], probe_d,
            )
            for start in range(0, ref_n.shape[1], width)
        ]
        assert np.array_equal(np.vstack(blocks), single)

    def test_bit_identical_through_a_thread_pool(self, planted_pair):
        """HTTP handler threads and the micro-batcher call the kernel
        concurrently; concurrent blocks must equal the serial slices."""
        ref_n, ref_d, probe_n, probe_d = planted_pair
        single = match_normalized(ref_n, probe_n, ref_d, probe_d)
        starts = range(0, ref_n.shape[1], 5)
        with ThreadPoolExecutor(max_workers=3) as pool:
            blocks = list(pool.map(
                lambda start: match_normalized(
                    ref_n[:, start:start + 5], probe_n,
                    ref_d[start:start + 5], probe_d,
                ),
                starts,
            ))
        for start, block in zip(starts, blocks):
            assert np.array_equal(block, single[start:start + 5, :])

    def test_respects_degenerate_masks_and_clips(self, planted_pair):
        ref_n, ref_d, probe_n, probe_d = planted_pair
        similarity = similarity_kernel(ref_n, probe_n, ref_d, probe_d)
        assert ref_d.any() and probe_d.any()
        assert np.all(similarity[ref_d, :] == 0.0)
        assert np.all(similarity[:, probe_d] == 0.0)
        # Doubled columns push raw dot products past the correlation range;
        # the clip runs after masking and bounds every entry.
        scaled = similarity_kernel(2.0 * ref_n, ref_n, ref_d, ref_d)
        assert np.all(np.abs(scaled) <= 1.0)
        assert np.any(scaled == 1.0)
        assert np.all(scaled[ref_d, :] == 0.0)

    def test_float32_inputs_are_computed_in_float64(self, planted_pair):
        """There is no reduced-precision path: float32 inputs are upcast and
        contracted exactly as their float64 values are."""
        ref_n, ref_d, probe_n, probe_d = planted_pair
        ref32, probe32 = ref_n.astype(np.float32), probe_n.astype(np.float32)
        actual = similarity_kernel(ref32, probe32, ref_d, probe_d)
        expected = similarity_kernel(
            ref32.astype(np.float64), probe32.astype(np.float64), ref_d, probe_d
        )
        assert actual.dtype == np.float64
        assert np.array_equal(actual, expected)

    def test_inputs_are_not_mutated(self, planted_pair):
        """Masking writes into the kernel's own output only: gallery
        signatures are shared by every concurrent request."""
        ref_n, ref_d, probe_n, probe_d = planted_pair
        before = [array.copy() for array in planted_pair]
        similarity_kernel(ref_n, probe_n, ref_d, probe_d)
        similarity_kernel(2.0 * ref_n, ref_n, ref_d, ref_d)
        for original, array in zip(before, planted_pair):
            assert np.array_equal(original, array)

    def test_without_masks_only_clips(self, planted_pair):
        ref_n, _, probe_n, _ = planted_pair
        expected = np.clip(
            np.einsum("ij,ik->jk", ref_n, probe_n, optimize=False), -1.0, 1.0
        )
        assert np.array_equal(similarity_kernel(ref_n, probe_n), expected)

    def test_integer_masks_act_as_boolean(self, planted_pair):
        """0/1 masks (e.g. decoded from an archive) select rows and columns,
        they do not index by position."""
        ref_n, ref_d, probe_n, probe_d = planted_pair
        expected = similarity_kernel(ref_n, probe_n, ref_d, probe_d)
        actual = similarity_kernel(
            ref_n, probe_n, ref_d.astype(np.int64), list(probe_d.astype(int))
        )
        assert np.array_equal(actual, expected)

    def test_self_similarity_is_one_on_live_columns(self, planted_pair):
        ref_n, ref_d, _, _ = planted_pair
        diagonal = np.diag(similarity_kernel(ref_n, ref_n, ref_d, ref_d))
        assert np.all(diagonal[ref_d] == 0.0)
        assert np.allclose(diagonal[~ref_d], 1.0, atol=1e-12)
        assert np.all(diagonal <= 1.0)


class TestAcceptanceWorkloadAgreement:
    """The kernel on the 64-subject x 100-region acceptance workload."""

    @pytest.fixture(scope="class")
    def acceptance_matrices(self):
        from repro.datasets.hcp import HCPLikeDataset
        from repro.gallery.reference import ReferenceGallery
        from repro.runtime.batch import build_group_matrix_batched
        from repro.runtime.cache import ArtifactCache

        dataset = HCPLikeDataset(
            n_subjects=64, n_regions=100, n_timepoints=100, random_state=0
        )
        cache = ArtifactCache()
        reference = dataset.generate_session("REST", encoding="LR", day=1)
        probes = dataset.generate_session("REST", encoding="RL", day=2)
        gallery = ReferenceGallery.from_scans(reference, n_features=100, cache=cache)
        probe_group = build_group_matrix_batched(probes, cache=cache)
        reduced = probe_group.data[gallery.selector_.selected_indices_, :]
        ids = dict(
            reference_subject_ids=gallery.reference.subject_ids,
            target_subject_ids=probe_group.subject_ids,
        )
        return gallery.signatures_, reduced, ids

    def test_top1_matches_pairwise_pearson(self, acceptance_matrices):
        """The kernel reproduces the attack's Pearson matching identities."""
        signatures, reduced_probe, ids = acceptance_matrices
        kernel = match_against_gallery(signatures, reduced_probe, **ids)
        pearson = match_subjects(signatures, reduced_probe, **ids)
        assert np.array_equal(
            kernel.predicted_reference_index, pearson.predicted_reference_index
        )
        assert np.allclose(kernel.similarity, pearson.similarity, atol=1e-12)
        assert kernel.accuracy() == pearson.accuracy() > 0.5

    def test_top1_survives_per_probe_normalization(self, acceptance_matrices):
        """A single-probe request normalizes its column alone, which may move
        low bits but must not move any identity."""
        signatures, reduced_probe, _ = acceptance_matrices
        batch = match_against_gallery(signatures, reduced_probe)
        ref_n, ref_d = normalize_columns(signatures)
        for column in range(reduced_probe.shape[1]):
            prb_n, prb_d = normalize_columns(reduced_probe[:, column:column + 1])
            alone = similarity_kernel(ref_n, prb_n, ref_d, prb_d)
            assert int(np.argmax(alone[:, 0])) == batch.predicted_reference_index[column]
            assert np.allclose(alone[:, 0], batch.similarity[:, column], atol=1e-12)


class TestValidation:
    def test_feature_space_mismatch_rejected(self, reduced_pair):
        reference, probe = reduced_pair
        with pytest.raises(AttackError, match="feature space"):
            match_against_gallery(reference, probe[:-1, :])
        with pytest.raises(AttackError, match="feature space"):
            match_against_gallery(np.ones((4, 2)), np.ones((5, 2)))

    def test_single_feature_rejected(self):
        with pytest.raises(AttackError, match="two features"):
            match_against_gallery(np.ones((1, 3)), np.ones((1, 2)))

    def test_id_length_mismatch_rejected(self, reduced_pair):
        reference, probe = reduced_pair
        with pytest.raises(ValidationError, match="reference_subject_ids"):
            match_against_gallery(reference, probe, reference_subject_ids=["a"])

    @pytest.mark.parametrize(
        "function", [match_against_gallery, match_normalized, similarity_kernel]
    )
    @pytest.mark.parametrize("keyword", ["shard_size", "runner", "backend"])
    def test_removed_pool_keywords_rejected(self, normalized_pair, function, keyword):
        """Matching is one in-process call through one kernel: the
        pooled-shard and backend knobs are gone rather than silently
        ignored."""
        ref_n, ref_d, prb_n, prb_d = normalized_pair
        args = (ref_n, prb_n) if function is match_against_gallery else (
            ref_n, prb_n, ref_d, prb_d
        )
        with pytest.raises(TypeError, match=keyword):
            function(*args, **{keyword: None})
