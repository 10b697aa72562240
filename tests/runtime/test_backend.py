"""Tests for the pluggable matching backends and the precision policy.

The load-bearing contract: the ``numpy64`` default must be *bit-for-bit*
identical to the historical fixed-order einsum kernel for every block of
gallery columns; ``numpy32`` must agree on every top-1 identity of the
64x100 acceptance workload; ``blas_blocked`` must agree to within a few
ulps.  Backend/precision selection is pure policy and tested as such.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.gallery.matching import (
    match_against_gallery,
    match_normalized,
    normalize_columns,
    similarity_kernel,
)
from repro.runtime.backend import (
    MatchingBackend,
    available_backends,
    backend_registry_info,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.cache import ArtifactCache


@pytest.fixture(scope="module")
def normalized_pair():
    """A pre-normalized reference/probe pair with planted degenerate columns."""
    rng = np.random.default_rng(7)
    reference = rng.standard_normal((80, 24))
    probe = rng.standard_normal((80, 9))
    reference[:, 5] = 2.0  # constant gallery subject
    probe[:, 2] = -1.0  # constant probe
    ref_n, ref_d = normalize_columns(reference)
    probe_n, probe_d = normalize_columns(probe)
    return ref_n, ref_d, probe_n, probe_d


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"numpy64", "numpy32", "blas_blocked"} <= set(available_backends())

    def test_default_is_the_bit_exact_float64_kernel(self):
        backend = get_backend(None)
        assert backend.name == "numpy64"
        assert backend.precision == "float64"
        assert backend.bit_exact

    def test_only_the_default_claims_bit_exactness(self):
        rows = {row["name"]: row for row in backend_registry_info()}
        assert rows["numpy64"]["bit_exact"]
        assert not rows["numpy32"]["bit_exact"]
        assert not rows["blas_blocked"]["bit_exact"]

    def test_instances_pass_through(self):
        backend = get_backend("numpy32")
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown matching backend"):
            get_backend("cuda128")

    def test_register_validates_name_and_precision(self):
        class Nameless(MatchingBackend):
            name = ""

        class BadPrecision(MatchingBackend):
            name = "bad-precision"
            precision = "float16"

        with pytest.raises(ValidationError, match="name"):
            register_backend(Nameless())
        with pytest.raises(ValidationError, match="precision"):
            register_backend(BadPrecision())

    def test_double_registration_needs_overwrite(self):
        class Custom(MatchingBackend):
            name = "test-custom"
            precision = "float64"

            def similarity(self, ref, probe, ref_deg=None, probe_deg=None):
                return np.zeros((ref.shape[1], probe.shape[1]))

        register_backend(Custom())
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend(Custom())
            register_backend(Custom(), overwrite=True)
        finally:
            from repro.runtime import backend as backend_module

            backend_module._BACKENDS.pop("test-custom", None)


class TestPrecisionPolicy:
    def test_defaults_stay_bit_exact(self):
        assert resolve_backend(None, None).name == "numpy64"
        assert resolve_backend(None, "float64").name == "numpy64"

    def test_float32_is_explicit_opt_in(self):
        assert resolve_backend(None, "float32").name == "numpy32"
        assert resolve_backend("auto", "float32").name == "numpy32"

    def test_auto_picks_the_gemm_backend_for_float64(self):
        assert resolve_backend("auto", "float64").name == "blas_blocked"
        assert resolve_backend("auto", None).name == "blas_blocked"

    def test_explicit_names_pass_through(self):
        assert resolve_backend("numpy32", "float32").name == "numpy32"
        assert resolve_backend("blas_blocked", "float64").name == "blas_blocked"

    def test_precision_mismatch_is_an_error_not_a_cast(self):
        with pytest.raises(ConfigurationError, match="contradicts"):
            resolve_backend("numpy64", "float32")
        with pytest.raises(ConfigurationError, match="contradicts"):
            resolve_backend("numpy32", "float64")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigurationError, match="precision"):
            resolve_backend(None, "float16")


class TestNumpy64BitIdentity:
    """The float64 backend must reproduce the historical kernel exactly."""

    def test_matches_the_reference_einsum_formula(self, normalized_pair):
        ref_n, ref_d, probe_n, probe_d = normalized_pair
        expected = np.einsum("ij,ik->jk", ref_n, probe_n, optimize=False)
        expected[ref_d, :] = 0.0
        expected[:, probe_d] = 0.0
        expected = np.clip(expected, -1.0, 1.0)
        actual = similarity_kernel(ref_n, probe_n, ref_d, probe_d)
        assert actual.dtype == np.float64
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("shard_size", [1, 3, 5, 11, None])
    def test_bit_identical_across_shard_sizes(self, normalized_pair, shard_size):
        ref_n, ref_d, probe_n, probe_d = normalized_pair
        single = match_normalized(ref_n, probe_n, ref_d, probe_d)
        width = shard_size or ref_n.shape[1]
        blocks = [
            similarity_kernel(
                ref_n[:, start:start + width], probe_n,
                ref_d[start:start + width], probe_d, backend="numpy64",
            )
            for start in range(0, ref_n.shape[1], width)
        ]
        assert np.array_equal(np.vstack(blocks), single)

    def test_bit_identical_through_a_thread_pool(self, normalized_pair):
        """HTTP handler threads and the micro-batcher call the kernel
        concurrently; concurrent blocks must equal the serial slices."""
        ref_n, ref_d, probe_n, probe_d = normalized_pair
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


class TestAlternativeBackends:
    def test_numpy32_runs_in_float32_and_agrees_on_argmax(self, normalized_pair):
        ref_n, ref_d, probe_n, probe_d = normalized_pair
        base = match_normalized(ref_n, probe_n, ref_d, probe_d)
        reduced = match_normalized(ref_n, probe_n, ref_d, probe_d, backend="numpy32")
        assert reduced.dtype == np.float32
        assert np.allclose(reduced, base, atol=1e-5)
        assert np.array_equal(np.argmax(reduced, axis=0), np.argmax(base, axis=0))

    def test_numpy32_respects_degenerate_masks(self, normalized_pair):
        ref_n, ref_d, probe_n, probe_d = normalized_pair
        reduced = match_normalized(ref_n, probe_n, ref_d, probe_d, backend="numpy32")
        assert np.all(reduced[ref_d, :] == 0.0)
        assert np.all(reduced[:, probe_d] == 0.0)

    def test_blas_blocked_agrees_to_a_few_ulps(self, normalized_pair):
        ref_n, ref_d, probe_n, probe_d = normalized_pair
        base = match_normalized(ref_n, probe_n, ref_d, probe_d)
        blas = match_normalized(ref_n, probe_n, ref_d, probe_d, backend="blas_blocked")
        assert blas.dtype == np.float64
        assert np.allclose(blas, base, atol=1e-12)
        assert np.array_equal(np.argmax(blas, axis=0), np.argmax(base, axis=0))

    def test_unregistered_instance_works_on_thread_pools(self, normalized_pair):
        """Matching runs in process, so a backend instance needs no registry
        name to be used directly, from any thread."""
        ref_n, ref_d, probe_n, probe_d = normalized_pair

        class Halver(MatchingBackend):
            name = "halver-unregistered"
            precision = "float64"

            def similarity(self, ref, probe, ref_deg=None, probe_deg=None):
                return 0.5 * get_backend("numpy64").similarity(
                    ref, probe, ref_deg, probe_deg
                )

        backend = Halver()
        assert backend.name not in available_backends()
        expected = 0.5 * match_normalized(ref_n, probe_n, ref_d, probe_d)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda _: match_normalized(
                    ref_n, probe_n, ref_d, probe_d, backend=backend
                ),
                range(4),
            ))
        for result in results:
            assert np.array_equal(result, expected)


class TestAcceptanceWorkloadAgreement:
    """float32 top-1 agreement on the 64-subject x 100-region workload."""

    @pytest.fixture(scope="class")
    def acceptance_matrices(self):
        from repro.datasets.hcp import HCPLikeDataset
        from repro.gallery.reference import ReferenceGallery
        from repro.runtime.batch import build_group_matrix_batched

        dataset = HCPLikeDataset(
            n_subjects=64, n_regions=100, n_timepoints=100, random_state=0
        )
        cache = ArtifactCache()
        reference = dataset.generate_session("REST", encoding="LR", day=1)
        probes = dataset.generate_session("REST", encoding="RL", day=2)
        gallery = ReferenceGallery.from_scans(reference, n_features=100, cache=cache)
        probe_group = build_group_matrix_batched(probes, cache=cache)
        reduced = probe_group.data[gallery.selector_.selected_indices_, :]
        return gallery.signatures_, reduced

    def test_float32_top1_agreement(self, acceptance_matrices):
        signatures, reduced_probe = acceptance_matrices
        base = match_against_gallery(signatures, reduced_probe)
        reduced = match_against_gallery(signatures, reduced_probe, backend="numpy32")
        agreement = np.mean(
            base.predicted_reference_index == reduced.predicted_reference_index
        )
        assert agreement == 1.0
        assert reduced.accuracy() == base.accuracy()

    def test_blas_top1_agreement(self, acceptance_matrices):
        signatures, reduced_probe = acceptance_matrices
        base = match_against_gallery(signatures, reduced_probe)
        blas = match_against_gallery(signatures, reduced_probe, backend="blas_blocked")
        assert np.array_equal(
            blas.predicted_reference_index, base.predicted_reference_index
        )


class TestGalleryAndServicePlumbing:
    def test_reference_gallery_carries_the_backend(self, normalized_pair):
        from repro.connectome.group import GroupMatrix
        from repro.gallery.reference import ReferenceGallery

        rng = np.random.default_rng(3)
        data = rng.standard_normal((120, 10))
        group = GroupMatrix(data=data, subject_ids=[f"s{i}" for i in range(10)])
        base = ReferenceGallery(group, n_features=40, cache=ArtifactCache())
        reduced = ReferenceGallery(
            group, n_features=40, cache=ArtifactCache(), backend="numpy32"
        )
        probe = GroupMatrix(
            data=data + 0.01 * rng.standard_normal(data.shape),
            subject_ids=[f"s{i}" for i in range(10)],
        )
        result64 = base.identify_group(probe)
        result32 = reduced.identify_group(probe)
        assert result64.similarity.dtype == np.float64
        assert result32.similarity.dtype == np.float32
        assert np.array_equal(
            result32.predicted_reference_index, result64.predicted_reference_index
        )
        assert base.info()["backend"] is None
        assert reduced.info()["backend"] == "numpy32"

    def test_service_config_policy(self):
        from repro.service import ServiceConfig

        assert ServiceConfig().resolved_backend() == "numpy64"
        assert ServiceConfig(precision="float32").resolved_backend() == "numpy32"
        assert ServiceConfig(backend="auto").resolved_backend() == "blas_blocked"
        assert ServiceConfig().gallery_kwargs()["backend"] == "numpy64"
        with pytest.raises(ConfigurationError):
            ServiceConfig(backend="numpy64", precision="float32")
        with pytest.raises(ConfigurationError):
            ServiceConfig(backend="warp-drive")

    def test_service_config_round_trips_backend_fields(self):
        from repro.service import ServiceConfig

        config = ServiceConfig(backend="auto", precision="float32")
        restored = ServiceConfig.from_json(config.to_json())
        assert restored.backend == "auto"
        assert restored.precision == "float32"
        assert restored.resolved_backend() == "numpy32"

    def test_attack_pipeline_adopts_the_config_backend(self):
        from repro.attack.pipeline import AttackPipeline
        from repro.service import ServiceConfig

        pipeline = AttackPipeline(config=ServiceConfig(backend="auto"))
        assert pipeline.backend == "blas_blocked"
        assert AttackPipeline().backend is None
