"""Tests for RunResult serialization, timing, and runtime introspection."""

import importlib
import time

import pytest

import repro.runtime
from repro.runtime.cache import ArtifactCache
from repro.runtime.info import detect_blas_threading, format_runtime_info, runtime_info
from repro.runtime.results import (
    RunResult,
    TimingRecorder,
    load_results_json,
    summarize_results,
    write_results_json,
)
from repro.runtime.runner import ExperimentRunner


def sample_results():
    return [
        RunResult(
            name="attack-rest", kind="attack", seed=7,
            metrics={"accuracy": 0.96}, timings={"total_s": 1.25, "build_s": 0.4},
        ),
        RunResult(
            name="broken", kind="inference", seed=3,
            status="error", error="AttackError: boom", timings={"total_s": 0.1},
        ),
    ]


class TestRunResult:
    def test_roundtrip_through_dict(self):
        result = sample_results()[0]
        clone = RunResult.from_dict(result.to_dict())
        assert clone.name == result.name
        assert clone.metrics == result.metrics
        assert clone.timings == result.timings
        assert clone.ok

    def test_output_excluded_from_serialization(self):
        result = RunResult(name="x", kind="attack", seed=0, output=object())
        assert "output" not in result.to_dict()

    def test_json_file_roundtrip(self, tmp_path):
        path = write_results_json(sample_results(), tmp_path / "results.json")
        loaded = load_results_json(path)
        assert [r.name for r in loaded] == ["attack-rest", "broken"]
        assert loaded[1].status == "error"

    def test_summary_mentions_every_spec(self):
        summary = summarize_results(sample_results())
        assert "attack-rest" in summary
        assert "broken" in summary
        assert "error" in summary


class TestTimingRecorder:
    def test_sections_accumulate(self):
        recorder = TimingRecorder()
        for _ in range(2):
            with recorder.section("work_s"):
                time.sleep(0.001)
        assert recorder.timings["work_s"] >= 0.002

    def test_section_recorded_even_on_error(self):
        recorder = TimingRecorder()
        try:
            with recorder.section("fail_s"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "fail_s" in recorder.timings


class TestRuntimeInfo:
    def test_info_reports_cache_workers_and_blas(self):
        cache = ArtifactCache()
        cache.put("group_matrix", "k", __import__("numpy").ones(3))
        runner = ExperimentRunner(cache=cache, max_workers=3)
        info = runtime_info(cache=cache, runner=runner)
        assert info["workers"]["max_workers"] == 3
        assert info["cache"]["total"]["puts"] == 1
        assert "group_matrix" in info["cache"]["by_kind"]
        assert info["blas"]["pools"]

    def test_blas_detection_names_a_source(self):
        blas = detect_blas_threading()
        assert blas["source"] in ("threadpoolctl", "numpy.__config__")
        assert blas["cpu_count"] >= 1

    def test_formatting_is_plain_text(self):
        text = format_runtime_info(runtime_info(cache=ArtifactCache()))
        assert "cache stats" in text
        assert "blas detection" in text
        assert "workers" in text

    def test_no_matching_backend_registry_remains(self):
        """Matching has one kernel, so the runtime neither reports nor
        exports a backend registry."""
        info = runtime_info(cache=ArtifactCache())
        assert "backends" not in info
        assert info["index"]["precision"] == "indexed"
        for name in ("MatchingBackend", "get_backend", "register_backend",
                     "resolve_backend", "available_backends"):
            assert not hasattr(repro.runtime, name)
            assert name not in repro.runtime.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.backend")
