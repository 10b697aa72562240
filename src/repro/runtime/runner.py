"""Batched experiment execution: specs, the task registry, and the runner.

:class:`ExperimentSpec` names a unit of work — a de-anonymization attack, a
defense evaluation, an inference attack, or one of the paper's figure/table
experiments — as plain data.  :class:`ExperimentRunner` executes a batch of
specs through a worker pool, funnels intermediate artifacts through a shared
:class:`~repro.runtime.cache.ArtifactCache`, and returns one
:class:`~repro.runtime.results.RunResult` per spec, in input order.

Seeding is deterministic: each spec resolves to one integer seed derived
from its content (or its explicit ``seed``), so a batch produces identical
results whether it runs on one worker or eight.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, ValidationError
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import (
    ArtifactCache,
    _hash_part,
    default_cache_dir,
    get_default_cache,
    set_default_cache,
)
from repro.runtime.results import RunResult, TimingRecorder

#: Paper experiment id → one-line description (the CLI's ``list`` output).
PAPER_EXPERIMENTS: Dict[str, str] = {
    "figure1": "Pairwise similarity of resting-state connectomes",
    "figure2": "Pairwise similarity of language-task connectomes",
    "figure5": "Cross-task identification-accuracy matrix",
    "figure6": "t-SNE task clustering and task prediction",
    "table1": "Task-performance prediction error",
    "figure7": "ADHD subtype-1 inter-session similarity",
    "figure8": "ADHD subtype-3 inter-session similarity",
    "figure9": "Identification of the full ADHD-200 cohort",
    "table2": "Identification accuracy under multi-site acquisition",
    "defense": "Targeted-noise defense privacy/utility trade-off",
}


@dataclass
class ExperimentSpec:
    """One schedulable unit of work.

    Parameters
    ----------
    name:
        Unique label within the batch (also the paper experiment id for
        ``kind="experiment"`` unless ``params["experiment"]`` overrides it).
    kind:
        Task kind: ``"attack"``, ``"defense"``, ``"inference"``, or
        ``"experiment"``.
    params:
        Kind-specific keyword parameters (see the ``_task_*`` functions).
    seed:
        Explicit seed; when ``None`` a deterministic seed is derived from the
        spec's content.
    """

    name: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("spec name must be a non-empty string")
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(
                f"unknown spec kind {self.kind!r}; available: {sorted(TASK_KINDS)}"
            )

    def resolved_seed(self, base_seed: int = 0) -> int:
        """The deterministic seed this spec runs with."""
        if self.seed is not None:
            return int(self.seed)
        digest = hashlib.sha256()
        _hash_part(digest, [self.name, self.kind, int(base_seed)])
        _hash_part(digest, _canonical_params(self.params))
        return int.from_bytes(digest.digest()[:4], "little") & 0x7FFFFFFF


def _canonical_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Render params hashable: config objects collapse to their dict view."""
    canonical: Dict[str, Any] = {}
    for key, value in params.items():
        if hasattr(value, "as_dict"):
            canonical[key] = value.as_dict()
        else:
            canonical[key] = value
    return canonical


class TaskContext:
    """What a task sees at execution time: seed, cache, and a timing recorder."""

    def __init__(self, seed: int, cache: ArtifactCache):
        self.seed = int(seed)
        self.cache = cache
        self.timings = TimingRecorder()

    def build_group(self, scans, fisher: bool = False):
        """Cached batched group-matrix construction for task implementations."""
        return build_group_matrix_batched(scans, fisher=fisher, cache=self.cache)


# --------------------------------------------------------------------------- #
# Built-in task kinds
# --------------------------------------------------------------------------- #
def _task_attack(spec: ExperimentSpec, ctx: TaskContext) -> Tuple[Dict[str, float], Any]:
    """Core de-anonymization attack on a synthetic HCP-like cohort."""
    from repro.attack.pipeline import AttackPipeline
    from repro.datasets.hcp import HCPLikeDataset

    p = spec.params
    task_name = p.get("task", "REST")
    fisher = bool(p.get("fisher", False))
    with ctx.timings.section("data_s"):
        dataset = HCPLikeDataset(
            n_subjects=p.get("n_subjects", 20),
            n_regions=p.get("n_regions", 64),
            n_timepoints=p.get("n_timepoints", 160),
            random_state=p.get("dataset_seed", ctx.seed),
        )
        reference_scans = dataset.generate_session(task_name, encoding="LR", day=1)
        target_scans = dataset.generate_session(task_name, encoding="RL", day=2)
    with ctx.timings.section("build_s"):
        reference = ctx.build_group(reference_scans, fisher=fisher)
        target = ctx.build_group(target_scans, fisher=fisher)
    with ctx.timings.section("attack_s"):
        pipeline = AttackPipeline(
            n_features=p.get("n_features", 100), fisher=fisher, random_state=ctx.seed
        )
        report = pipeline.run_on_groups(reference, target)
    metrics = {
        "accuracy": report.accuracy,
        "n_features_used": float(report.n_features_used),
        "similarity_contrast": (
            report.similarity_contrast["diagonal_mean"]
            - report.similarity_contrast["off_diagonal_mean"]
        ),
    }
    return metrics, report


def _task_defense(spec: ExperimentSpec, ctx: TaskContext) -> Tuple[Dict[str, float], Any]:
    """Targeted-noise defense evaluated against the attack."""
    from repro.datasets.hcp import HCPLikeDataset
    from repro.defense.evaluation import evaluate_defense
    from repro.defense.noise_injection import SignatureNoiseDefense

    p = spec.params
    with ctx.timings.section("data_s"):
        dataset = HCPLikeDataset(
            n_subjects=p.get("n_subjects", 20),
            n_regions=p.get("n_regions", 64),
            n_timepoints=p.get("n_timepoints", 160),
            random_state=p.get("dataset_seed", ctx.seed),
        )
        reference_scans = dataset.generate_session(p.get("task", "REST"), "LR", day=1)
        target_scans = dataset.generate_session(p.get("task", "REST"), "RL", day=2)
    with ctx.timings.section("build_s"):
        reference = ctx.build_group(reference_scans)
        target = ctx.build_group(target_scans)
    with ctx.timings.section("defense_s"):
        defense = SignatureNoiseDefense(
            n_features=p.get("n_signature_features", 100),
            noise_scale=p.get("noise_scale", 6.0),
            random_state=ctx.seed,
        )
        outcome = evaluate_defense(
            reference,
            target,
            defense,
            attack_features=p.get("n_features", 100),
            include_graph_utility=bool(p.get("graph_utility", False)),
        )
    return dict(outcome), outcome


def _task_inference(spec: ExperimentSpec, ctx: TaskContext) -> Tuple[Dict[str, float], Any]:
    """Task-label or task-performance inference on anonymous scans."""
    from repro.attack.performance_inference import PerformanceInferenceAttack
    from repro.attack.task_inference import TaskInferenceAttack
    from repro.datasets.base import CohortDataset
    from repro.datasets.hcp import HCPLikeDataset

    p = spec.params
    target = p.get("target", "task")
    with ctx.timings.section("data_s"):
        dataset = HCPLikeDataset(
            n_subjects=p.get("n_subjects", 12),
            n_regions=p.get("n_regions", 48),
            n_timepoints=p.get("n_timepoints", 140),
            random_state=p.get("dataset_seed", ctx.seed),
        )
    if target == "task":
        task_names = p.get("tasks", ["REST", "LANGUAGE", "MOTOR"])
        with ctx.timings.section("build_s"):
            scans = []
            for task_name in task_names:
                scans.extend(dataset.generate_session(task_name, "LR", day=1))
            group = ctx.build_group(scans)
        with ctx.timings.section("inference_s"):
            attack = TaskInferenceAttack(
                n_labelled_subjects=p.get("n_labelled_subjects", dataset.n_subjects // 2),
                n_iterations=p.get("tsne_iterations", 150),
                pca_components=p.get("pca_components", 20),
                random_state=ctx.seed,
            )
            result = attack.run(group)
        return {"accuracy": result.accuracy()}, result
    if target == "performance":
        task_name = p.get("task", "LANGUAGE")
        with ctx.timings.section("build_s"):
            scans = dataset.generate_session(task_name, "LR", day=1)
            group = ctx.build_group(scans)
            performance = CohortDataset.performance_vector(scans)
        with ctx.timings.section("inference_s"):
            attack = PerformanceInferenceAttack(
                n_features=p.get("n_features", 150), random_state=ctx.seed
            )
            summary = attack.run(group, performance, n_repetitions=p.get("repetitions", 5))
        return dict(summary), summary
    raise ConfigurationError(
        f"inference target must be 'task' or 'performance', got {target!r}"
    )


def _task_experiment(spec: ExperimentSpec, ctx: TaskContext) -> Tuple[Dict[str, float], Any]:
    """One of the paper's figure/table experiments, by id."""
    import repro.experiments as experiments

    experiment_id = spec.params.get("experiment", spec.name)
    if experiment_id not in PAPER_EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(PAPER_EXPERIMENTS)}"
        )
    hcp_config = spec.params.get("hcp_config")
    adhd_config = spec.params.get("adhd_config")
    runners: Dict[str, Callable[[], Any]] = {
        "figure1": lambda: experiments.figure1_rest_similarity(hcp_config),
        "figure2": lambda: experiments.figure2_task_similarity(hcp_config),
        "figure5": lambda: experiments.figure5_cross_task_matrix(hcp_config),
        "figure6": lambda: experiments.figure6_task_prediction(hcp_config),
        "table1": lambda: experiments.table1_performance_prediction(hcp_config),
        "figure7": lambda: experiments.figure7_adhd_subtype1(adhd_config),
        "figure8": lambda: experiments.figure8_adhd_subtype3(adhd_config),
        "figure9": lambda: experiments.figure9_adhd_identification(adhd_config),
        "table2": lambda: experiments.table2_multisite_noise(hcp_config, adhd_config),
        "defense": lambda: experiments.defense_tradeoff(hcp_config),
    }
    with ctx.timings.section("experiment_s"):
        record = runners[experiment_id]()
    metrics = {
        key: float(value)
        for key, value in record.metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    metrics["shape_holds"] = float(record.shape_holds())
    return metrics, record


#: Registered task kinds (extensible; see :func:`register_task_kind`).
TASK_KINDS: Dict[str, Callable[[ExperimentSpec, TaskContext], Tuple[Dict[str, float], Any]]] = {
    "attack": _task_attack,
    "defense": _task_defense,
    "inference": _task_inference,
    "experiment": _task_experiment,
}


#: Bumped on task-kind registration, to detect process pools whose forked
#: workers hold a stale snapshot of :data:`TASK_KINDS`.
_task_kinds_generation = 0


def register_task_kind(
    kind: str,
    task: Callable[[ExperimentSpec, TaskContext], Tuple[Dict[str, float], Any]],
) -> None:
    """Register a custom task kind (module-level, so process workers see it)."""
    global _task_kinds_generation
    if not kind:
        raise ValidationError("task kind must be a non-empty string")
    TASK_KINDS[kind] = task
    _task_kinds_generation += 1


def execute_spec(
    spec: ExperimentSpec,
    seed: int,
    cache: Optional[ArtifactCache] = None,
) -> RunResult:
    """Execute one spec synchronously and wrap the outcome in a RunResult."""
    context = TaskContext(seed=seed, cache=cache if cache is not None else get_default_cache())
    with context.timings.section("total_s"):
        try:
            metrics, output = TASK_KINDS[spec.kind](spec, context)
        except Exception as exc:  # noqa: BLE001 - reported in the result record
            return RunResult(
                name=spec.name,
                kind=spec.kind,
                seed=seed,
                status="error",
                timings=context.timings.timings,
                error=f"{type(exc).__name__}: {exc}",
            )
    return RunResult(
        name=spec.name,
        kind=spec.kind,
        seed=seed,
        status="ok",
        metrics=metrics,
        timings=context.timings.timings,
        output=output,
    )


def _execute_in_subprocess(
    spec: ExperimentSpec, seed: int, cache_dir: Optional[str] = None
) -> RunResult:
    """Process-pool entry point.

    With ``cache_dir`` set (the default configuration) every worker builds an
    :class:`ArtifactCache` backed by the same on-disk tier, so artifacts
    computed in one worker are disk hits in every other and across batches.
    Without it each worker falls back to its own memory-only default cache.
    """
    if cache_dir is None:
        return execute_spec(spec, seed, cache=None)
    cache = ArtifactCache(cache_dir=cache_dir)
    with _default_cache_scope(cache):
        return execute_spec(spec, seed, cache=cache)


@contextmanager
def _default_cache_scope(cache: ArtifactCache):
    """Route the process-wide default cache to ``cache`` for a batch.

    Experiment-kind tasks reach group-matrix construction through
    ``CohortDataset.scans_to_group_matrix`` / ``AttackPipeline.build_group``,
    which consult the process default cache — so a runner configured with an
    explicit cache installs it as the default for the duration of the run.
    Concurrent runners with *different* explicit caches would race on this
    scope; the default configuration (every runner sharing the process
    cache) is unaffected.
    """
    previous = get_default_cache()
    if cache is previous:
        yield
        return
    set_default_cache(cache)
    try:
        yield
    finally:
        set_default_cache(previous)


class ExperimentRunner:
    """Executes batches of :class:`ExperimentSpec` through a worker pool.

    Parameters
    ----------
    cache:
        Artifact cache shared by all tasks; defaults to the process-wide
        cache.  An explicit cache is also installed as the process default
        for the duration of each run, so experiment-kind tasks (which reach
        caching through the datasets/pipeline layer) use it too.
    max_workers:
        Pool size; 1 (the default) runs inline with no pool at all.
    executor:
        ``"thread"`` (default; shares the cache, fine for NumPy-bound work
        that releases the GIL) or ``"process"``.
    base_seed:
        Mixed into every derived spec seed, so one batch can be re-run as an
        independent replicate by changing a single number.
    cache_dir:
        Directory of the shared on-disk cache tier.  ``None`` resolves to
        :func:`~repro.runtime.cache.default_cache_dir` for process-pool runs
        (so all workers share one disk tier — the default) and to no disk
        tier otherwise.  Ignored when an explicit ``cache`` is given (its own
        ``cache_dir`` is used instead).
    shared_disk_cache:
        Explicit opt-out: ``False`` keeps process-pool workers memory-only
        (the pre-disk-tier behaviour, where each worker caches privately).
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        max_workers: int = 1,
        executor: str = "thread",
        base_seed: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        shared_disk_cache: bool = True,
    ):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if executor not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self.shared_disk_cache = bool(shared_disk_cache)
        if cache_dir is not None and not self.shared_disk_cache:
            raise ConfigurationError(
                "cache_dir and shared_disk_cache=False contradict each other; "
                "drop one of them"
            )
        if cache is not None:
            self.cache = cache
        elif not self.shared_disk_cache:
            self.cache = get_default_cache()
        elif cache_dir is not None:
            self.cache = ArtifactCache(cache_dir=cache_dir)
        elif executor == "process":
            self.cache = ArtifactCache(cache_dir=default_cache_dir())
        else:
            self.cache = get_default_cache()
        self.max_workers = int(max_workers)
        self.executor = executor
        self.base_seed = int(base_seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = -1

    @property
    def cache_dir(self) -> Optional[Path]:
        """Directory of the disk tier shared with workers (``None`` = memory-only)."""
        if not self.shared_disk_cache:
            return None
        return self.cache.cache_dir

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[ExperimentSpec]) -> List[RunResult]:
        """Execute every spec and return results in input order."""
        specs = list(specs)
        if not specs:
            return []
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValidationError("spec names must be unique within one batch")
        seeds = [spec.resolved_seed(self.base_seed) for spec in specs]

        if self.executor == "process" and self.max_workers > 1:
            worker_cache_dir = self.cache_dir
            worker_dir_arg = str(worker_cache_dir) if worker_cache_dir is not None else None
            pool = self._ensure_pool()
            try:
                futures = [
                    pool.submit(_execute_in_subprocess, spec, seed, worker_dir_arg)
                    for spec, seed in zip(specs, seeds)
                ]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                # A dead worker poisons the whole executor; dispose of it so
                # the next run starts on a fresh pool instead of failing
                # forever on this one.
                self._pool = None
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        with _default_cache_scope(self.cache):
            if self.max_workers == 1:
                return [
                    execute_spec(spec, seed, cache=self.cache)
                    for spec, seed in zip(specs, seeds)
                ]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                futures = [
                    pool.submit(execute_spec, spec, seed, self.cache)
                    for spec, seed in zip(specs, seeds)
                ]
                return [future.result() for future in futures]

    def run_one(self, spec: ExperimentSpec) -> RunResult:
        """Execute a single spec inline (bypassing any pool)."""
        with _default_cache_scope(self.cache):
            return execute_spec(spec, spec.resolved_seed(self.base_seed), cache=self.cache)

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent process pool (created lazily, reused across runs).

        Forked workers snapshot the task-kind registry at fork, so a pool
        created before a later :func:`register_task_kind` is stale — it is
        recycled here, and the fresh fork sees the update.
        """
        generation = _task_kinds_generation
        if self._pool is not None and self._pool_generation != generation:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool_generation = generation
        return self._pool

    def shutdown(self) -> None:
        """Release the worker pool.

        Idempotent; the runner remains usable (the pool is recreated lazily
        on the next run).
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001 - interpreter may be tearing down
            pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def worker_config(self) -> Dict[str, Any]:
        """Pool configuration for reports and ``runtime-info``."""
        cache_dir = self.cache_dir
        return {
            "max_workers": self.max_workers,
            "executor": self.executor,
            "base_seed": self.base_seed,
            "cpu_count": os.cpu_count() or 1,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "shared_disk_cache": self.shared_disk_cache,
        }


def paper_experiment_specs(hcp_config=None, adhd_config=None) -> List[ExperimentSpec]:
    """One spec per paper figure/table, wired to the given configurations."""
    return [
        ExperimentSpec(
            name=experiment_id,
            kind="experiment",
            params={
                "experiment": experiment_id,
                "hcp_config": hcp_config,
                "adhd_config": adhd_config,
            },
        )
        for experiment_id in sorted(PAPER_EXPERIMENTS)
    ]
