"""One configuration object for the whole serving stack.

:class:`ServiceConfig` owns every knob of an identification deployment —
gallery fit parameters, the matching backend, cache tiers, batching, HTTP,
the router fleet and fault injection — in one typed, JSON-round-trippable
place, and knows how to build the cache and gallery constructor kwargs from
itself.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exceptions import ConfigurationError
from repro.gallery.index import DEFAULT_INDEX_RANK
from repro.runtime.backend import INDEXED_PRECISION, PRECISIONS, resolve_backend
from repro.runtime.cache import (
    DEFAULT_MAX_MEMORY_BYTES as _DEFAULT_MAX_MEMORY_BYTES,
    DEFAULT_MAX_MEMORY_ITEMS as _DEFAULT_MAX_MEMORY_ITEMS,
    ArtifactCache,
    get_default_cache,
)
from repro.runtime.faults import FaultPlan


@dataclass
class ServiceConfig:
    """Knobs of an identification-service deployment.

    Parameters
    ----------
    n_features / rank / fisher / method / random_state:
        Gallery fit parameters (see
        :class:`~repro.gallery.reference.ReferenceGallery`).  ``random_state``
        is restricted to ``None`` or an integer so the config can round-trip
        through JSON (generator objects also defeat artifact caching).
    backend / precision:
        The matching-backend policy (see
        :func:`repro.runtime.backend.resolve_backend`).  ``backend=None``
        keeps the bit-exact default for the precision (``numpy64`` for
        float64, ``numpy32`` for float32); ``backend="auto"`` picks the
        fastest backend for the precision (``blas_blocked`` / ``numpy32``);
        an explicit name must agree with ``precision``.  ``precision``
        defaults to float64 — float32 is opt-in only, with a rank-agreement
        (not bit-identity) guarantee.
    max_galleries / gallery_ttl_s:
        Registry residency policy: at most ``max_galleries`` galleries held
        in memory (least-recently-used persisted galleries are evicted
        first) and persisted galleries idle longer than ``gallery_ttl_s``
        seconds are dropped.  ``None`` disables the respective bound;
        evicted galleries lazily reload from disk on next use.
    cache_dir / max_memory_items / max_memory_bytes:
        Artifact-cache tier settings.  With every cache field at its default
        the service shares the process-wide cache; any override builds a
        dedicated :class:`~repro.runtime.cache.ArtifactCache`.
    max_batch_size:
        Most concurrent identify requests merged into one stacked match.
    batch_window_s:
        How long the async micro-batcher waits for more concurrent requests
        before flushing; ``0.0`` flushes on the next event-loop tick, which
        already coalesces everything submitted concurrently (e.g. via
        ``asyncio.gather``).
    http_host / http_port:
        Bind address of the HTTP front end
        (:class:`~repro.service.http.HttpServiceServer`); ``http_port=0``
        binds an ephemeral port.
    max_request_bytes:
        Largest HTTP request body accepted; larger declared bodies are
        refused with ``413`` before the body is read.  Bounds buffered JSON
        bodies and binary identify streams; binary-framed enroll streams
        are bounded by ``max_stream_bytes`` instead.
    codec:
        Default request codec of CLI clients (``serve`` prints it, ``gallery
        identify --serve-url`` uses it): ``"json"`` (the bit-identity
        oracle) or ``"binary"`` (the frame codec of
        :mod:`repro.service.codec`; identical responses, a fraction of the
        wire bytes).  The server always accepts both — this knob never
        changes what the server understands.
    max_frame_bytes:
        Largest single binary frame (header or scan payload) the server
        accepts; larger declared frames are a structured ``400``.
    max_stream_bytes:
        Largest total binary-framed ``POST /enroll`` body.  The streaming
        enroll path decodes frame by frame without buffering the raw body,
        so this bound may sit far above ``max_request_bytes``.
    pipeline_depth:
        Most pipelined requests per HTTP connection in flight at once;
        deeper pipelines wait in the socket (TCP backpressure).
    http_keep_alive:
        Whether HTTP connections persist across requests.  ``False`` forces
        ``Connection: close`` on every response (debugging aid; persistent
        connections are the performant default).
    router_workers / ring_replicas:
        Multi-process scale-out (:class:`~repro.service.router.GalleryRouter`).
        ``router_workers=0`` (the default) serves single-process;
        ``router_workers=N`` partitions gallery names across N service
        worker processes via a consistent-hash ring with ``ring_replicas``
        virtual nodes per worker (more replicas = smoother spread, slower
        ring rebuilds).  Each worker runs its own
        :class:`~repro.service.service.IdentificationService` over the
        shared disk root, with the TTL/LRU residency policy applied per
        worker.  This is the serving stack's only process parallelism;
        matching itself runs in process.
    request_deadline_s:
        Deadline on every router data-channel IPC read
        (:class:`~repro.service.router.GalleryRouter`).  A worker that does
        not reply within it is treated exactly like a dead one — reaped,
        respawned, and (for identify) retried — so a *hung* worker can never
        stall its arc forever.
    retry_attempts / retry_base_delay_s:
        Bounded retry of idempotent routed identifies after a worker death
        or timeout: up to ``retry_attempts`` extra attempts, spaced by
        jittered exponential backoff starting at ``retry_base_delay_s``
        (see :class:`~repro.service.resilience.RetryPolicy`).  Enroll is
        **never** blindly retried regardless of these knobs.
    breaker_threshold:
        Consecutive failures after which a worker's circuit breaker opens
        (:class:`~repro.service.resilience.CircuitBreaker`): requests to the
        degraded arc fail fast, ``GET /healthz`` reports the failure detail,
        and the next successful health ping heals the breaker.
    warm_on_add:
        Whether a live ``add_worker``
        (:meth:`~repro.service.fleet.FleetControlPlane.add_worker`) warms
        the joining worker before the ring commit: the gallery names the
        prospective ring assigns to it are prefetched through the worker
        ``warm`` op, so the remapped arc serves its first identify from
        residency instead of a cold disk load.  ``False`` commits
        immediately and lets the newcomer warm lazily.
    drain_deadline_s:
        How long a live ``remove_worker`` waits for the leaving worker to
        drain — finish its in-flight request, persist resident galleries,
        and return its final stats snapshot.  A worker that misses the
        deadline is handled like a crash: SIGKILLed, and its last *polled*
        stats snapshot carried instead.
    admin_token:
        Bearer token of the fleet-administration endpoint
        (``POST /admin/workers``).  ``None`` (the default) disables the
        endpoint entirely — every request gets a structured ``403`` — so
        membership cannot be mutated over HTTP unless the operator opted
        in at startup.
    fault_plan:
        Optional fault-injection plan spec
        (:meth:`~repro.runtime.faults.FaultPlan.to_dict` payload) for chaos
        and soak testing; ``None`` (the default) disables injection
        entirely.  The plan rides through ``to_dict``/``from_dict`` into
        forked router workers like every other knob.
    index_enabled / index_rank / index_top_c:
        The candidate-pruning index tier
        (:class:`~repro.gallery.index.PruningIndex`).  Serving routes
        identifies through the index only when ``precision="indexed"``
        (strictly opt-in — the default path never changes bits);
        ``index_enabled=True`` additionally fits the index at gallery build
        time so the ``index`` artifact is warm before the precision flips.
        ``index_rank`` is the sketch rank (``None`` = the gallery's default)
        and ``index_top_c`` the per-probe candidate budget handed to the
        exact re-ranking kernel (``None`` = ``max(64, 4 * rank)``).
    """

    n_features: int = 100
    rank: Optional[int] = None
    fisher: bool = False
    method: str = "exact"
    random_state: Optional[int] = None
    backend: Optional[str] = None
    precision: str = "float64"
    cache_dir: Optional[str] = None
    max_memory_items: int = _DEFAULT_MAX_MEMORY_ITEMS
    max_memory_bytes: int = _DEFAULT_MAX_MEMORY_BYTES
    max_batch_size: int = 64
    batch_window_s: float = 0.0
    max_galleries: Optional[int] = None
    gallery_ttl_s: Optional[float] = None
    http_host: str = "127.0.0.1"
    http_port: int = 8035
    max_request_bytes: int = 64 * 1024 * 1024
    codec: str = "json"
    max_frame_bytes: int = 16 * 1024 * 1024
    max_stream_bytes: int = 256 * 1024 * 1024
    pipeline_depth: int = 8
    http_keep_alive: bool = True
    router_workers: int = 0
    ring_replicas: int = 64
    request_deadline_s: float = 30.0
    retry_attempts: int = 1
    retry_base_delay_s: float = 0.05
    breaker_threshold: int = 3
    warm_on_add: bool = True
    drain_deadline_s: float = 30.0
    admin_token: Optional[str] = None
    fault_plan: Optional[Dict[str, Any]] = None
    index_enabled: bool = False
    index_rank: Optional[int] = None
    index_top_c: Optional[int] = None

    def __post_init__(self):
        if self.n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {self.n_features}")
        if self.rank is not None and int(self.rank) < 1:
            raise ConfigurationError(f"rank must be >= 1 or None, got {self.rank}")
        if self.method not in ("exact", "randomized"):
            raise ConfigurationError(
                f"method must be 'exact' or 'randomized', got {self.method!r}"
            )
        if self.random_state is not None and not isinstance(self.random_state, int):
            raise ConfigurationError(
                "random_state must be None or an integer (generator objects do "
                "not JSON-round-trip and defeat artifact caching); got "
                f"{type(self.random_state).__name__}"
            )
        if self.precision not in PRECISIONS + (INDEXED_PRECISION,):
            raise ConfigurationError(
                "precision must be one of "
                f"{PRECISIONS + (INDEXED_PRECISION,)}, got {self.precision!r}"
            )
        if self.index_rank is not None and int(self.index_rank) < 1:
            raise ConfigurationError(
                f"index_rank must be >= 1 or None, got {self.index_rank}"
            )
        if self.index_top_c is not None and int(self.index_top_c) < 1:
            raise ConfigurationError(
                f"index_top_c must be >= 1 or None, got {self.index_top_c}"
            )
        # Resolve eagerly so an unknown backend or a backend/precision
        # mismatch fails at construction, not at serving time.
        resolve_backend(self.backend, self.precision)
        if self.max_galleries is not None and int(self.max_galleries) < 1:
            raise ConfigurationError(
                f"max_galleries must be >= 1 or None, got {self.max_galleries}"
            )
        if self.gallery_ttl_s is not None and float(self.gallery_ttl_s) <= 0:
            raise ConfigurationError(
                f"gallery_ttl_s must be > 0 or None, got {self.gallery_ttl_s}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if not isinstance(self.http_host, str) or not self.http_host:
            raise ConfigurationError(
                f"http_host must be a non-empty string, got {self.http_host!r}"
            )
        if not 0 <= int(self.http_port) <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if int(self.max_request_bytes) < 1:
            raise ConfigurationError(
                f"max_request_bytes must be >= 1, got {self.max_request_bytes}"
            )
        if self.codec not in ("json", "binary"):
            raise ConfigurationError(
                f"codec must be 'json' or 'binary', got {self.codec!r}"
            )
        if int(self.max_frame_bytes) < 1:
            raise ConfigurationError(
                f"max_frame_bytes must be >= 1, got {self.max_frame_bytes}"
            )
        if int(self.max_stream_bytes) < 1:
            raise ConfigurationError(
                f"max_stream_bytes must be >= 1, got {self.max_stream_bytes}"
            )
        if int(self.pipeline_depth) < 1:
            raise ConfigurationError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if int(self.router_workers) < 0:
            raise ConfigurationError(
                f"router_workers must be >= 0 (0 = single-process), "
                f"got {self.router_workers}"
            )
        if int(self.ring_replicas) < 1:
            raise ConfigurationError(
                f"ring_replicas must be >= 1, got {self.ring_replicas}"
            )
        if float(self.request_deadline_s) <= 0:
            raise ConfigurationError(
                f"request_deadline_s must be > 0, got {self.request_deadline_s}"
            )
        if int(self.retry_attempts) < 0:
            raise ConfigurationError(
                f"retry_attempts must be >= 0, got {self.retry_attempts}"
            )
        if float(self.retry_base_delay_s) < 0:
            raise ConfigurationError(
                f"retry_base_delay_s must be >= 0, got {self.retry_base_delay_s}"
            )
        if int(self.breaker_threshold) < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if float(self.drain_deadline_s) <= 0:
            raise ConfigurationError(
                f"drain_deadline_s must be > 0, got {self.drain_deadline_s}"
            )
        if self.admin_token is not None and (
            not isinstance(self.admin_token, str) or not self.admin_token
        ):
            raise ConfigurationError(
                "admin_token must be a non-empty string or None, got "
                f"{self.admin_token!r}"
            )
        if self.fault_plan is not None:
            # Validate the spec eagerly so a bad plan fails at construction
            # (and before it is forked into router workers), not mid-serving.
            FaultPlan.from_dict(self.fault_plan)

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @property
    def uses_default_cache(self) -> bool:
        """Whether this config shares the process-wide artifact cache."""
        return (
            self.cache_dir is None
            and self.max_memory_items == _DEFAULT_MAX_MEMORY_ITEMS
            and self.max_memory_bytes == _DEFAULT_MAX_MEMORY_BYTES
        )

    def build_cache(self) -> ArtifactCache:
        """The artifact cache this deployment should run on.

        All-default cache settings share the process-wide cache (so the
        service stays warm with pipelines and datasets in the same process);
        any override builds a dedicated cache.
        """
        if self.uses_default_cache:
            return get_default_cache()
        return ArtifactCache(
            cache_dir=self.cache_dir,
            max_memory_items=self.max_memory_items,
            max_memory_bytes=self.max_memory_bytes,
        )

    def resolved_backend(self) -> str:
        """The matching-backend name the backend/precision policy selects."""
        return resolve_backend(self.backend, self.precision).name

    @property
    def index_active(self) -> bool:
        """Whether this deployment fits (and may serve through) a pruning index.

        ``precision="indexed"`` implies it; ``index_enabled=True`` fits the
        index at build time without routing identifies through it (useful for
        pre-building the ``index`` artifact before flipping the precision).
        """
        return self.index_enabled or self.precision == INDEXED_PRECISION

    def gallery_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs for a :class:`~repro.gallery.reference.ReferenceGallery`."""
        kwargs = {
            "n_features": self.n_features,
            "rank": self.rank,
            "fisher": self.fisher,
            "method": self.method,
            "random_state": self.random_state,
            "backend": self.resolved_backend(),
        }
        if self.index_active:
            kwargs["index_rank"] = (
                self.index_rank if self.index_rank is not None else DEFAULT_INDEX_RANK
            )
            kwargs["index_top_c"] = self.index_top_c
        return kwargs

    def replace(self, **overrides: Any) -> "ServiceConfig":
        """A copy of this config with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view of every knob."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceConfig":
        """Rebuild (and re-validate) a config from its :meth:`to_dict` payload."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ServiceConfig field(s): {sorted(unknown)}"
            )
        return cls(**payload)

    def to_json(self) -> str:
        """Serialize to one JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))
