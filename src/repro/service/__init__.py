"""Serving layer: the typed public API of the identification system.

This package is the recommended entrypoint for consuming the attack as a
service (datasets → gallery → service):

``messages``
    Typed request/response dataclasses (:class:`IdentifyRequest`,
    :class:`IdentifyResponse`, :class:`EnrollRequest`,
    :class:`EnrollResponse`, :class:`ServiceStats`) with JSON round-trip.
``config``
    :class:`ServiceConfig` — every cache/backend/batching/fleet knob of a
    deployment in one validated, serializable object.
``registry``
    :class:`GalleryRegistry` — named, persistable
    :class:`~repro.gallery.reference.ReferenceGallery` instances sharing one
    artifact cache.
``service``
    :class:`IdentificationService` — sync and ``asyncio`` identification,
    with the async path micro-batching concurrent requests into one stacked
    match (bit-identical to serial identifies).
``codec``
    The wire codecs of the HTTP transport: the JSON scan form (the
    bit-identity oracle) and the ``application/x-repro-frames`` binary
    frame codec (raw little-endian float64 buffers behind a JSON header).
    Normative spec: ``docs/protocol.md``.
``http``
    :class:`HttpServiceServer` / :class:`ServiceClient` — a stdlib-asyncio
    HTTP front end over ``identify_async`` (``POST /identify``,
    ``POST /enroll``, ``GET /stats``, ``GET /healthz``) with persistent
    pipelined keep-alive connections, content-negotiated codecs, and a
    streaming binary enroll path; responses are bit-identical to in-process
    identifies under either codec.
``fleet`` / ``router`` / ``worker``
    Multi-process scale-out, split control/data plane.
    :class:`FleetControlPlane` owns membership (the consistent-hash
    :class:`HashRing`), worker spawn/reap/respawn, live
    ``add_worker``/``remove_worker`` resizes (warm before commit, drain
    after commit), the breaker registry, and stats carry-forward;
    :class:`GalleryRouter` is the pure data plane — route → frame →
    dispatch → retry — with per-worker TTL/LRU residency over the shared
    root and routed responses bit-identical to single-process serving,
    including during a resize.
``resilience``
    The failure-handling policies behind the router: per-request
    :class:`Deadline` budgets, :class:`RetryPolicy` (bounded, jittered
    exponential backoff, idempotent identifies only), the per-worker
    consecutive-failure :class:`CircuitBreaker` that degrades an arc until
    a health ping heals it, and the fleet's :class:`BreakerRegistry`
    (incarnation-tagged breakers, retired on removal).  Chaos testing
    drives them through :class:`~repro.runtime.faults.FaultPlan`
    (``ServiceConfig.fault_plan``).
"""

from repro.service.config import ServiceConfig
from repro.service.messages import (
    EnrollRequest,
    EnrollResponse,
    IdentifyRequest,
    IdentifyResponse,
    ServiceStats,
)
from repro.service.registry import GalleryRegistry
from repro.service.service import IdentificationService
from repro.service.codec import CONTENT_TYPE_BINARY, CONTENT_TYPE_JSON, FrameError
from repro.service.http import (
    BackgroundHttpServer,
    HttpServiceError,
    HttpServiceServer,
    ServiceClient,
)
from repro.service.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.service.fleet import FleetControlPlane, ResizeInProgress
from repro.service.router import GalleryRouter, HashRing

__all__ = [
    "CONTENT_TYPE_BINARY",
    "CONTENT_TYPE_JSON",
    "FrameError",
    "ServiceConfig",
    "EnrollRequest",
    "EnrollResponse",
    "IdentifyRequest",
    "IdentifyResponse",
    "ServiceStats",
    "GalleryRegistry",
    "IdentificationService",
    "BackgroundHttpServer",
    "HttpServiceError",
    "HttpServiceServer",
    "ServiceClient",
    "FleetControlPlane",
    "GalleryRouter",
    "HashRing",
    "ResizeInProgress",
    "BreakerRegistry",
    "CircuitBreaker",
    "Deadline",
    "ResiliencePolicy",
    "RetryPolicy",
]
