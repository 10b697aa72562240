"""Tests for the typed request/response messages (JSON round-trip, validation)."""

import json

import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.service import (
    EnrollRequest,
    EnrollResponse,
    IdentifyRequest,
    IdentifyResponse,
    ServiceConfig,
    ServiceStats,
)


class TestIdentifyRequest:
    def test_auto_request_ids_are_unique(self):
        first = IdentifyRequest(gallery="g")
        second = IdentifyRequest(gallery="g")
        assert first.request_id != second.request_id
        assert first.request_id.startswith("idreq-")

    def test_round_trip_drops_the_payload(self, sessions):
        _, probes = sessions
        request = IdentifyRequest(
            gallery="hcp", scans=probes[:2], metadata={"site": "A"}
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["n_probes"] == 2
        restored = IdentifyRequest.from_dict(payload)
        assert restored.request_id == request.request_id
        assert restored.gallery == "hcp"
        assert restored.metadata == {"site": "A"}
        assert restored.scans is None and restored.probe is None

    def test_rejects_empty_gallery_name(self):
        with pytest.raises(ValidationError, match="gallery"):
            IdentifyRequest(gallery="")

    def test_rejects_both_scans_and_probe(self, sessions, rest_pair):
        _, probes = sessions
        with pytest.raises(ValidationError, match="not both"):
            IdentifyRequest(gallery="g", scans=probes, probe=rest_pair["target"])


class TestResponses:
    def test_identify_response_round_trip(self):
        response = IdentifyResponse(
            request_id="idreq-1",
            gallery="hcp",
            predicted_subject_ids=["a", "b"],
            target_subject_ids=["a", "c"],
            margins=[0.5, 0.25],
            accuracy=0.5,
            n_gallery_subjects=12,
            batch_size=4,
            timings={"batch_s": 0.01},
        )
        payload = json.loads(json.dumps(response.to_dict()))
        restored = IdentifyResponse.from_dict(payload)
        assert restored == response
        assert restored.ok and restored.n_probes == 2

    def test_enroll_round_trip(self):
        request = EnrollRequest(gallery="hcp", create=True)
        restored = EnrollRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored.gallery == "hcp" and restored.create

        response = EnrollResponse(
            request_id=request.request_id, gallery="hcp", enrolled=3, n_subjects=15
        )
        assert EnrollResponse.from_dict(response.to_dict()) == response

    def test_error_response_reports_not_ok(self):
        response = IdentifyResponse(
            request_id="idreq-9", gallery="hcp", status="error", error="boom"
        )
        assert not response.ok
        assert IdentifyResponse.from_dict(response.to_dict()).error == "boom"


class TestServiceStats:
    def test_round_trip_and_derived_mean(self):
        stats = ServiceStats(
            requests=10,
            probes=20,
            batches=4,
            coalesced_batches=2,
            max_batch_size=5,
            galleries={"hcp": 10},
            cache_kinds={"probe": {"hits": 8, "misses": 2, "hit_rate": 0.8}},
            cache_dir="/tmp/cache",
        )
        assert stats.mean_batch_size == pytest.approx(2.5)
        payload = json.loads(stats.to_json())
        assert payload["mean_batch_size"] == pytest.approx(2.5)
        assert ServiceStats.from_dict(payload) == stats

    def test_summary_lines_surface_disk_tier_and_kinds(self):
        stats = ServiceStats(
            requests=1,
            batches=1,
            cache_kinds={"probe": {"hits": 1, "misses": 1, "disk_hits": 1, "hit_rate": 0.5}},
            cache_dir="/scratch/tier",
        )
        text = "\n".join(stats.summary_lines())
        assert "/scratch/tier" in text
        assert "probe" in text and "disk_hits=1" in text


class TestServiceConfig:
    def test_json_round_trip(self):
        config = ServiceConfig(
            n_features=80, rank=5, method="randomized", random_state=7,
            max_batch_size=32, batch_window_s=0.01,
        )
        assert ServiceConfig.from_json(config.to_json()) == config

    def test_replace_revalidates(self):
        config = ServiceConfig()
        assert config.replace(max_batch_size=4).max_batch_size == 4
        with pytest.raises(ConfigurationError):
            config.replace(max_batch_size=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_features": 0},
            {"method": "magic"},
            {"codec": "morse"},
            {"max_batch_size": 0},
            {"batch_window_s": -1.0},
            {"random_state": object()},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**overrides)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ServiceConfig.from_dict({"n_features": 10, "warp_factor": 9})

    @pytest.mark.parametrize(
        "removed, value",
        [
            ("max_workers", 2),
            ("executor", "process"),
            ("shared_transport", True),
            ("shard_size", 16),
        ],
    )
    def test_removed_pool_fields_rejected(self, removed, value):
        """Knobs of the removed pooled-matching path: a saved config that
        still sets one fails loudly, naming the field."""
        with pytest.raises(ConfigurationError, match=f"unknown.*{removed}"):
            ServiceConfig.from_dict({"n_features": 10, removed: value})
        with pytest.raises(TypeError, match=removed):
            ServiceConfig(**{removed: value})

    def test_gallery_kwargs_cover_fit_shard_and_backend_knobs(self):
        kwargs = ServiceConfig(n_features=40).gallery_kwargs()
        assert kwargs["n_features"] == 40
        assert kwargs["backend"] == "numpy64"
        assert set(kwargs) == {
            "n_features", "rank", "fisher", "method", "random_state", "backend",
        }

    def test_default_config_shares_the_process_cache(self):
        from repro.runtime.cache import get_default_cache

        assert ServiceConfig().build_cache() is get_default_cache()
        dedicated = ServiceConfig(max_memory_items=8).build_cache()
        assert dedicated is not get_default_cache()
        assert dedicated.max_memory_items == 8
