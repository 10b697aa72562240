"""Typed request/response messages of the serving API.

Every interaction with :class:`~repro.service.service.IdentificationService`
goes through one of these dataclasses instead of positional kwargs, so the
service internals (micro-batching, caching) can evolve without
breaking callers.  Like :class:`~repro.runtime.results.RunResult`, each
message JSON-round-trips through ``to_dict``/``from_dict``; heavyweight
payloads (scan records, group matrices, match results) ride along in-process
only and are dropped from the serialized form.

**Relation to the wire (contract).** These messages are codec-agnostic: the
``to_dict`` envelope (``request_id``, ``gallery``, ``metadata``, counts) is
what both HTTP codecs serialize, and scan payloads travel as either nested
JSON lists (:func:`repro.service.codec.scan_to_wire`, the bit-identity
oracle) or raw float64 frames (:func:`repro.service.codec.encode_frames`).
Decoding either wire form reconstructs :class:`IdentifyRequest` /
:class:`EnrollRequest` objects whose scan arrays are bit-identical to the
sender's, which is what makes HTTP identify responses bit-identical to
in-process calls — the normative spec is ``docs/protocol.md``.  Responses
always serialize as the plain JSON ``to_dict`` form regardless of the
request codec.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.connectome.group import GroupMatrix
from repro.datasets.base import ScanRecord
from repro.exceptions import ValidationError

#: Process-wide request-id sequence (deterministic, log-friendly).
_REQUEST_COUNTER = itertools.count(1)
_REQUEST_COUNTER_LOCK = threading.Lock()


def _next_request_id(prefix: str) -> str:
    with _REQUEST_COUNTER_LOCK:
        return f"{prefix}-{next(_REQUEST_COUNTER):06d}"


def _check_gallery_name(name: Any) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError("gallery must be a non-empty string")
    return name


@dataclass
class IdentifyRequest:
    """One identification query against a named gallery.

    Parameters
    ----------
    gallery:
        Name of the target gallery in the service's registry.
    scans:
        Anonymous probe scans (the usual payload).  In-process only — not
        part of the JSON form.  The serving cache content-keys probe
        payloads by freezing their arrays (``writeable=False``), so scan
        time series handed to the service can no longer be mutated in
        place afterwards; pass copies if you need to keep editing them.
    probe:
        Alternative payload: a pre-built probe
        :class:`~repro.connectome.group.GroupMatrix` (mutually exclusive
        with ``scans``).  In-process only; its data array is frozen like
        scan payloads.
    request_id:
        Correlates the response with the request; auto-assigned when empty.
    metadata:
        Free-form JSON-serializable annotations carried through to the
        response.
    """

    gallery: str
    scans: Optional[Sequence[ScanRecord]] = field(default=None, repr=False)
    probe: Optional[GroupMatrix] = field(default=None, repr=False)
    request_id: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.gallery = _check_gallery_name(self.gallery)
        if self.scans is not None and self.probe is not None:
            raise ValidationError(
                "an IdentifyRequest takes scans or a pre-built probe, not both"
            )
        if self.scans is not None:
            self.scans = list(self.scans)
        if not self.request_id:
            self.request_id = _next_request_id("idreq")

    @property
    def n_probes(self) -> Optional[int]:
        """Number of probe columns this request carries (``None`` = no payload)."""
        if self.scans is not None:
            return len(self.scans)
        if self.probe is not None:
            return self.probe.n_scans
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the scan/probe payload is dropped)."""
        return {
            "request_id": self.request_id,
            "gallery": self.gallery,
            "n_probes": self.n_probes,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IdentifyRequest":
        """Rebuild the request envelope (without its in-process payload)."""
        return cls(
            gallery=payload["gallery"],
            request_id=payload.get("request_id", ""),
            metadata=dict(payload.get("metadata", {})),
        )


@dataclass
class EnrollRequest:
    """Enroll subjects into a named gallery (optionally creating it).

    Parameters
    ----------
    gallery:
        Target gallery name.
    scans:
        Identified reference scans to enroll.  In-process only.
    create:
        Build the gallery from these scans when the name is unknown
        (using the service's :class:`~repro.service.config.ServiceConfig`).
    """

    gallery: str
    scans: Optional[Sequence[ScanRecord]] = field(default=None, repr=False)
    create: bool = False
    request_id: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.gallery = _check_gallery_name(self.gallery)
        if self.scans is not None:
            self.scans = list(self.scans)
        self.create = bool(self.create)
        if not self.request_id:
            self.request_id = _next_request_id("enreq")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the scan payload is dropped)."""
        return {
            "request_id": self.request_id,
            "gallery": self.gallery,
            "n_scans": None if self.scans is None else len(self.scans),
            "create": self.create,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EnrollRequest":
        """Rebuild the request envelope (without its in-process payload)."""
        return cls(
            gallery=payload["gallery"],
            create=bool(payload.get("create", False)),
            request_id=payload.get("request_id", ""),
            metadata=dict(payload.get("metadata", {})),
        )


@dataclass
class IdentifyResponse:
    """Outcome of one :class:`IdentifyRequest`.

    Attributes
    ----------
    status:
        ``"ok"`` or ``"error"``.
    predicted_subject_ids / target_subject_ids:
        Per-probe predicted identity and the identity label the probe
        arrived with (per-position, matching the request's scan order).
    margins:
        Per-probe confidence margin (best minus second-best similarity).
    accuracy:
        Fraction of probes whose predicted identity equals the target label
        (meaningful when probes carry their true identities, as in
        evaluation workloads).
    batch_size:
        How many concurrent requests were coalesced into the micro-batch
        that served this one (1 = no coalescing happened).
    timings:
        Wall-clock sections of the serving batch, in seconds.
    match_result:
        The raw :class:`~repro.attack.matching.MatchResult` — bit-identical
        to a serial ``ReferenceGallery.identify`` of the same probes.
        In-process only.
    """

    request_id: str
    gallery: str
    status: str = "ok"
    predicted_subject_ids: List[str] = field(default_factory=list)
    target_subject_ids: List[str] = field(default_factory=list)
    margins: List[float] = field(default_factory=list)
    accuracy: Optional[float] = None
    n_gallery_subjects: int = 0
    batch_size: int = 1
    timings: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    match_result: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the request was served without an error."""
        return self.status == "ok"

    @property
    def n_probes(self) -> int:
        """Number of probe columns that were identified."""
        return len(self.target_subject_ids)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the ``match_result`` object is dropped)."""
        return {
            "request_id": self.request_id,
            "gallery": self.gallery,
            "status": self.status,
            "predicted_subject_ids": list(self.predicted_subject_ids),
            "target_subject_ids": list(self.target_subject_ids),
            "margins": [float(margin) for margin in self.margins],
            "accuracy": None if self.accuracy is None else float(self.accuracy),
            "n_gallery_subjects": int(self.n_gallery_subjects),
            "batch_size": int(self.batch_size),
            "timings": {key: float(value) for key, value in self.timings.items()},
            "error": self.error,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IdentifyResponse":
        """Rebuild a response from its :meth:`to_dict` payload."""
        return cls(
            request_id=payload["request_id"],
            gallery=payload["gallery"],
            status=payload.get("status", "ok"),
            predicted_subject_ids=list(payload.get("predicted_subject_ids", [])),
            target_subject_ids=list(payload.get("target_subject_ids", [])),
            margins=[float(m) for m in payload.get("margins", [])],
            accuracy=payload.get("accuracy"),
            n_gallery_subjects=int(payload.get("n_gallery_subjects", 0)),
            batch_size=int(payload.get("batch_size", 1)),
            timings=dict(payload.get("timings", {})),
            error=payload.get("error"),
            metadata=dict(payload.get("metadata", {})),
        )


@dataclass
class EnrollResponse:
    """Outcome of one :class:`EnrollRequest`."""

    request_id: str
    gallery: str
    status: str = "ok"
    enrolled: int = 0
    created: bool = False
    n_subjects: int = 0
    refit_count: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the enrollment succeeded."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view."""
        return {
            "request_id": self.request_id,
            "gallery": self.gallery,
            "status": self.status,
            "enrolled": int(self.enrolled),
            "created": bool(self.created),
            "n_subjects": int(self.n_subjects),
            "refit_count": int(self.refit_count),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EnrollResponse":
        """Rebuild a response from its :meth:`to_dict` payload."""
        return cls(
            request_id=payload["request_id"],
            gallery=payload["gallery"],
            status=payload.get("status", "ok"),
            enrolled=int(payload.get("enrolled", 0)),
            created=bool(payload.get("created", False)),
            n_subjects=int(payload.get("n_subjects", 0)),
            refit_count=int(payload.get("refit_count", 0)),
            error=payload.get("error"),
        )


@dataclass
class ServiceStats:
    """Point-in-time serving statistics snapshot.

    Attributes
    ----------
    requests / probes:
        Identify requests served and total probe columns across them.
    batches:
        Stacked matches executed (each serves one or more requests).
    coalesced_batches:
        Batches that actually merged more than one concurrent request.
    max_batch_size:
        Largest number of requests ever coalesced into one batch.
    errors:
        Requests that came back with ``status == "error"``.
    batchers:
        Live per-event-loop micro-batchers.  A well-behaved serving process
        runs every round of traffic on one event loop, so this stays at 1 —
        a higher number means callers are spinning up a fresh loop (and a
        fresh, never-warm batcher) per burst.
    galleries:
        Per-gallery identify-request counters.
    pruning:
        Per-gallery candidate-pruning counters, present only for galleries
        served through the indexed tier (``precision="indexed"``):
        ``candidates_scanned`` (columns the exact kernel re-ranked),
        ``columns_considered`` (columns a full scan would have touched),
        ``full_scans_avoided`` (their difference) and the derived
        ``pruning_ratio``.
    cache_kinds:
        Per-artifact-kind cache counters (hits/misses/disk hits), so an
        operator can verify the service is actually running warm.
    cache_dir:
        Location of the on-disk cache tier (``None`` = memory only).
    router:
        Routed-mode topology summary
        (:meth:`~repro.service.router.GalleryRouter.stats` fills it in):
        worker count, live workers, ring size, respawns, and per-worker
        request counters.  ``None`` for a single-process service.
    """

    requests: int = 0
    probes: int = 0
    batches: int = 0
    coalesced_batches: int = 0
    max_batch_size: int = 0
    errors: int = 0
    batchers: int = 0
    galleries: Dict[str, int] = field(default_factory=dict)
    pruning: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache_kinds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache_dir: Optional[str] = None
    router: Optional[Dict[str, Any]] = None

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests per stacked match (0.0 = never served)."""
        if self.batches == 0:
            return 0.0
        return self.requests / self.batches

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (includes the derived mean batch size)."""
        return {
            "requests": int(self.requests),
            "probes": int(self.probes),
            "batches": int(self.batches),
            "coalesced_batches": int(self.coalesced_batches),
            "max_batch_size": int(self.max_batch_size),
            "mean_batch_size": self.mean_batch_size,
            "errors": int(self.errors),
            "batchers": int(self.batchers),
            "galleries": dict(self.galleries),
            "pruning": {
                name: dict(counters) for name, counters in self.pruning.items()
            },
            "cache_kinds": {
                kind: dict(stats) for kind, stats in self.cache_kinds.items()
            },
            "cache_dir": self.cache_dir,
            "router": None if self.router is None else dict(self.router),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceStats":
        """Rebuild a snapshot from its :meth:`to_dict` payload."""
        return cls(
            requests=int(payload.get("requests", 0)),
            probes=int(payload.get("probes", 0)),
            batches=int(payload.get("batches", 0)),
            coalesced_batches=int(payload.get("coalesced_batches", 0)),
            max_batch_size=int(payload.get("max_batch_size", 0)),
            errors=int(payload.get("errors", 0)),
            batchers=int(payload.get("batchers", 0)),
            galleries=dict(payload.get("galleries", {})),
            pruning={
                name: dict(counters)
                for name, counters in payload.get("pruning", {}).items()
            },
            cache_kinds={
                kind: dict(stats)
                for kind, stats in payload.get("cache_kinds", {}).items()
            },
            cache_dir=payload.get("cache_dir"),
            router=(
                dict(payload["router"])
                if payload.get("router") is not None
                else None
            ),
        )

    def summary_lines(self) -> List[str]:
        """Plain-text operator summary (the CLI's ``serve`` output)."""
        lines = [
            f"requests served     : {self.requests} ({self.probes} probes, "
            f"{self.errors} errors)",
            f"stacked matches     : {self.batches} "
            f"({self.coalesced_batches} coalesced, "
            f"mean batch {self.mean_batch_size:.1f}, max {self.max_batch_size})",
            f"micro-batchers      : {self.batchers} event loop(s)",
            f"disk cache tier     : {self.cache_dir or '(memory only)'}",
        ]
        if self.router is not None:
            lines.append(
                f"router              : {self.router.get('alive_workers', 0)}/"
                f"{self.router.get('workers', 0)} workers alive, "
                f"ring size {self.router.get('ring_size', 0)}, "
                f"{self.router.get('respawns', 0)} respawn(s)"
            )
        for name in sorted(self.pruning):
            counters = self.pruning[name]
            lines.append(
                f"  - pruning[{name}]: "
                f"scanned={counters.get('candidates_scanned', 0):.0f} "
                f"avoided={counters.get('full_scans_avoided', 0):.0f} "
                f"ratio={counters.get('pruning_ratio', 0.0):.3f}"
            )
        for kind in sorted(self.cache_kinds):
            stats = self.cache_kinds[kind]
            lines.append(
                f"  - {kind:<13s}: hits={stats.get('hits', 0):.0f} "
                f"misses={stats.get('misses', 0):.0f} "
                f"disk_hits={stats.get('disk_hits', 0):.0f} "
                f"hit_rate={stats.get('hit_rate', 0.0):.2f}"
            )
        return lines

    def to_json(self) -> str:
        """Serialized snapshot (one JSON document)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
