"""Which public ``repro`` functions the traced run wraps, and as what.

Functions imported by name into another module are wrapped where they are
looked up, so every call site records the same span name.
"""

from __future__ import annotations

from repro.gallery import reference as reference_mod
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import codec as codec_mod
from repro.service import router as router_mod
from repro.service import service as service_mod
from repro.service import worker as worker_mod
from repro.service.messages import IdentifyResponse
from repro.service.registry import GalleryRegistry
from repro.service.router import GalleryRouter
from repro.service.service import IdentificationService

from perfbench.spans import Tracer

#: (owner, attribute, span name); the span-name prefix names the layer.
TARGETS = (
    (IdentificationService, "identify", "service.identify"),
    (IdentificationService, "identify_async", "service.identify_async"),
    (IdentificationService, "enroll", "service.enroll"),
    (GalleryRegistry, "get", "registry.get"),
    (service_mod, "build_group_matrix_batched", "batch.group_matrix"),
    (reference_mod, "build_group_matrix_batched", "batch.group_matrix"),
    (service_mod, "frozen_array_digest", "cache.digest"),
    (ArtifactCache, "key", "cache.digest"),
    (ArtifactCache, "get", "cache.lookup"),
    (ArtifactCache, "put", "cache.store"),
    (service_mod, "normalize_columns", "matching.normalize"),
    (service_mod, "match_normalized", "matching.match"),
    (ReferenceGallery, "enroll", "reference.refit"),
    (ReferenceGallery, "save", "reference.save"),
    (ReferenceGallery, "load", "reference.load"),
    (codec_mod, "identify_request_from_frames", "codec.decode"),
    (worker_mod, "identify_request_from_frames", "codec.decode"),
    (worker_mod, "enroll_request_from_frames", "codec.decode"),
    (router_mod, "encode_identify_frames", "codec.encode"),
    (router_mod, "encode_enroll_frames", "codec.encode"),
    (IdentifyResponse, "to_dict", "codec.encode"),
    (IdentifyResponse, "from_dict", "codec.decode"),
    (GalleryRouter, "identify", "router.identify"),
    (GalleryRouter, "enroll", "router.enroll"),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; :meth:`Tracer.unwrap` undoes it."""
    for owner, attr, name in TARGETS:
        tracer.wrap(owner, attr, name)
    # A worker persists right after ``service.enroll`` returns, outside any
    # span of the request: it inherits the thread's last request id.
    tracer.wrap(GalleryRegistry, "persist", "registry.persist", sticky=True)
