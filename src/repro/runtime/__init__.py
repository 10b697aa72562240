"""Batched experiment runtime.

The runtime layer makes heavy multi-experiment workloads cheap to run:

``batch``
    Single-GEMM construction of group matrices from stacked time series,
    replacing the per-scan connectome loop.
``cache``
    Content-keyed artifact cache (connectomes, group matrices, leverage
    scores) with hit/miss statistics and an optional on-disk tier.
``runner``
    :class:`ExperimentRunner` executes batches of :class:`ExperimentSpec`
    through a thread/process pool with deterministic per-spec seeding.
``shm``
    The ``/dev/shm`` segment-name prefix the leak checks glob for.
``results``
    Uniform :class:`RunResult` records with timing breakdowns and JSON
    serialization.
``info``
    Environment introspection behind the ``repro-attack runtime-info``
    command (cache stats, worker config, BLAS threading).
``faults``
    Deterministic, seeded fault injection (:class:`FaultPlan`): named
    injection sites across the serving stack — worker crash/hang/slow
    replies, IPC frame truncation/corruption, disk-cache I/O errors,
    dropped HTTP connections — for chaos and soak testing.
"""

from repro.runtime.batch import (
    batch_correlation_connectomes,
    batch_group_features,
    batch_vectorize_connectomes,
    build_group_matrix_batched,
    stack_timeseries,
)
from repro.runtime.cache import (
    ArtifactCache,
    CacheStats,
    default_cache_dir,
    get_default_cache,
    set_default_cache,
)
from repro.runtime.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    active_plan,
    install_plan,
    maybe_fire,
)
from repro.runtime.info import detect_blas_threading, format_runtime_info, runtime_info
from repro.runtime.results import (
    RunResult,
    TimingRecorder,
    load_results_json,
    summarize_results,
    write_results_json,
)
from repro.runtime.runner import (
    PAPER_EXPERIMENTS,
    ExperimentRunner,
    ExperimentSpec,
    execute_spec,
    paper_experiment_specs,
    register_task_kind,
)

__all__ = [
    # batch
    "batch_correlation_connectomes",
    "batch_group_features",
    "batch_vectorize_connectomes",
    "build_group_matrix_batched",
    "stack_timeseries",
    # cache
    "ArtifactCache",
    "CacheStats",
    "default_cache_dir",
    "get_default_cache",
    "set_default_cache",
    # faults
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "install_plan",
    "maybe_fire",
    # runner
    "PAPER_EXPERIMENTS",
    "ExperimentRunner",
    "ExperimentSpec",
    "execute_spec",
    "paper_experiment_specs",
    "register_task_kind",
    # results
    "RunResult",
    "TimingRecorder",
    "load_results_json",
    "summarize_results",
    "write_results_json",
    # info
    "detect_blas_threading",
    "format_runtime_info",
    "runtime_info",
]
