"""Tests for the experiment runner: seeding, pooling, caching, registry."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.experiments import HCPExperimentConfig
from repro.runtime.cache import ArtifactCache, default_cache_dir
from repro.runtime.runner import (
    PAPER_EXPERIMENTS,
    ExperimentRunner,
    ExperimentSpec,
    paper_experiment_specs,
    register_task_kind,
    TASK_KINDS,
)

#: Small-but-valid attack parameters shared by the runner tests.
TINY_ATTACK = {"n_subjects": 6, "n_regions": 24, "n_timepoints": 64, "n_features": 50}


def tiny_spec(name, seed=None, **extra):
    return ExperimentSpec(name=name, kind="attack", seed=seed, params={**TINY_ATTACK, **extra})


class TestSpecSeeding:
    def test_seed_is_deterministic_for_identical_specs(self):
        assert tiny_spec("a").resolved_seed() == tiny_spec("a").resolved_seed()

    def test_seed_changes_with_name_params_and_base_seed(self):
        base = tiny_spec("a").resolved_seed()
        assert tiny_spec("b").resolved_seed() != base
        assert tiny_spec("a", task="LANGUAGE").resolved_seed() != base
        assert tiny_spec("a").resolved_seed(base_seed=1) != base

    def test_explicit_seed_wins(self):
        assert tiny_spec("a", seed=123).resolved_seed(base_seed=9) == 123

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec kind"):
            ExperimentSpec(name="x", kind="nope")

    def test_removed_match_shard_kind_is_unknown(self):
        # Gallery matching runs in process; no spec kind ships shards.
        with pytest.raises(ConfigurationError, match="unknown spec kind"):
            ExperimentSpec(name="shard", kind="match_shard")

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError, match="name"):
            ExperimentSpec(name="", kind="attack")


class TestRunnerExecution:
    def test_attack_spec_produces_metrics_and_timings(self):
        result = ExperimentRunner(cache=ArtifactCache()).run_one(tiny_spec("attack-1"))
        assert result.ok
        assert 0.0 <= result.metrics["accuracy"] <= 1.0
        assert result.timings["total_s"] > 0
        assert {"data_s", "build_s", "attack_s"} <= set(result.timings)

    def test_results_preserve_input_order(self):
        runner = ExperimentRunner(cache=ArtifactCache())
        specs = [tiny_spec(f"s{i}", seed=i) for i in range(3)]
        results = runner.run(specs)
        assert [r.name for r in results] == ["s0", "s1", "s2"]

    def test_duplicate_names_rejected(self):
        runner = ExperimentRunner()
        with pytest.raises(ValidationError, match="unique"):
            runner.run([tiny_spec("dup"), tiny_spec("dup")])

    def test_error_is_captured_not_raised(self):
        spec = ExperimentSpec(
            name="broken", kind="inference", params={"target": "bogus"}
        )
        result = ExperimentRunner(cache=ArtifactCache()).run_one(spec)
        assert not result.ok
        assert result.status == "error"
        assert "bogus" in result.error

    def test_parallel_results_match_serial(self):
        specs = [tiny_spec(f"p{i}", task=task) for i, task in enumerate(["REST", "LANGUAGE"])]
        serial = ExperimentRunner(cache=ArtifactCache(), max_workers=1).run(specs)
        threaded = ExperimentRunner(cache=ArtifactCache(), max_workers=4).run(specs)
        for one, many in zip(serial, threaded):
            assert one.name == many.name
            assert one.seed == many.seed
            assert one.metrics["accuracy"] == many.metrics["accuracy"]

    def test_rerunning_same_spec_hits_the_cache(self):
        cache = ArtifactCache()
        runner = ExperimentRunner(cache=cache)
        spec = tiny_spec("cached-attack", seed=5)
        first = runner.run_one(spec)
        misses_after_first = cache.stats("group_matrix").misses
        second = runner.run_one(spec)
        stats = cache.stats("group_matrix")
        assert stats.misses == misses_after_first  # no new builds
        assert stats.hits >= 2  # reference + target group matrices reused
        assert first.metrics["accuracy"] == second.metrics["accuracy"]

    def test_invalid_pool_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(max_workers=0)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(executor="fiber")


class TestTaskKinds:
    def test_registry_covers_builtin_kinds(self):
        assert {"attack", "defense", "inference", "experiment"} <= set(TASK_KINDS)

    def test_custom_kind_registration(self):
        def probe_task(spec, ctx):
            return {"seed_echo": float(ctx.seed)}, None

        register_task_kind("probe", probe_task)
        try:
            result = ExperimentRunner(cache=ArtifactCache()).run_one(
                ExperimentSpec(name="p", kind="probe", seed=42)
            )
            assert result.metrics["seed_echo"] == 42.0
        finally:
            TASK_KINDS.pop("probe")

    def test_defense_spec_reports_tradeoff(self):
        spec = ExperimentSpec(
            name="defense-tiny",
            kind="defense",
            seed=0,
            params={**TINY_ATTACK, "noise_scale": 8.0},
        )
        result = ExperimentRunner(cache=ArtifactCache()).run_one(spec)
        assert result.ok
        assert result.metrics["protected_accuracy"] <= result.metrics["baseline_accuracy"]

    def test_experiment_spec_runs_paper_experiment(self):
        config = HCPExperimentConfig(
            n_subjects=8, n_regions=24, n_timepoints=80,
            n_features=40, n_labelled_subjects=4,
            tsne_iterations=50, performance_repetitions=2,
            multisite_repetitions=1, multisite_n_timepoints=80, seed=1,
        )
        spec = ExperimentSpec(
            name="figure1", kind="experiment", params={"hcp_config": config}
        )
        cache = ArtifactCache()
        result = ExperimentRunner(cache=cache).run_one(spec)
        assert result.ok
        assert result.output.experiment_id == "figure1"
        assert "shape_holds" in result.metrics
        # The runner's explicit cache must be the one the experiment's
        # dataset layer populated (not the process-wide default).
        assert cache.stats("group_matrix").puts > 0

    def test_unknown_experiment_id_is_an_error_result(self):
        spec = ExperimentSpec(
            name="mystery", kind="experiment", params={"experiment": "figure99"}
        )
        result = ExperimentRunner(cache=ArtifactCache()).run_one(spec)
        assert not result.ok
        assert "figure99" in result.error

    def test_paper_experiment_specs_cover_registry(self):
        specs = paper_experiment_specs()
        assert sorted(spec.name for spec in specs) == sorted(PAPER_EXPERIMENTS)


class TestProcessPool:
    def test_process_executor_produces_same_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        specs = [tiny_spec("proc-0", seed=3)]
        inline = ExperimentRunner(cache=ArtifactCache()).run(specs)
        pooled = ExperimentRunner(max_workers=2, executor="process").run(specs)
        assert pooled[0].ok, pooled[0].error
        assert np.isclose(
            pooled[0].metrics["accuracy"], inline[0].metrics["accuracy"]
        )


class TestSharedDiskCache:
    def test_process_runner_defaults_to_the_shared_disk_tier(self):
        runner = ExperimentRunner(max_workers=2, executor="process")
        assert runner.cache_dir == default_cache_dir()
        assert runner.worker_config()["cache_dir"] == str(default_cache_dir())

    def test_memory_only_opt_out(self):
        runner = ExperimentRunner(
            max_workers=2, executor="process", shared_disk_cache=False
        )
        assert runner.cache_dir is None
        assert runner.worker_config()["cache_dir"] is None
        assert runner.worker_config()["shared_disk_cache"] is False

    def test_explicit_cache_dir_wins(self, tmp_path):
        runner = ExperimentRunner(
            max_workers=2, executor="process", cache_dir=tmp_path / "mine"
        )
        assert runner.cache_dir == tmp_path / "mine"

    def test_shared_transport_argument_removed(self):
        with pytest.raises(TypeError, match="shared_transport"):
            ExperimentRunner(max_workers=2, executor="process", shared_transport=True)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_worker_config_reports_pool_and_disk_tier_only(self, executor):
        config = ExperimentRunner(max_workers=2, executor=executor).worker_config()
        assert set(config) == {
            "max_workers", "executor", "base_seed", "cpu_count", "cache_dir",
            "shared_disk_cache",
        }
        assert config["executor"] == executor

    def test_contradictory_cache_config_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="contradict"):
            ExperimentRunner(cache_dir=tmp_path, shared_disk_cache=False)

    def test_thread_runner_stays_memory_only_by_default(self):
        runner = ExperimentRunner(max_workers=2)
        assert runner.cache_dir is None

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"

    def test_workers_share_artifacts_through_the_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        specs = [tiny_spec("disk-a", seed=9), tiny_spec("disk-b", seed=9, task="REST")]
        runner = ExperimentRunner(max_workers=2, executor="process")
        results = runner.run(specs)
        assert all(result.ok for result in results)
        # The workers persisted their group matrices into the shared tier.
        artifacts = list((tmp_path / "shared" / "group_matrix").glob("*.npz"))
        assert artifacts
