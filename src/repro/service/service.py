"""The identification service: typed façade with micro-batched serving.

:class:`IdentificationService` is the recommended entrypoint for running the
attack as a service.  It wraps a
:class:`~repro.service.registry.GalleryRegistry` behind typed
request/response messages and serves identification two ways:

* **Sync** — :meth:`identify` / :meth:`identify_many` serve one or many
  requests inline.
* **Async** — :meth:`identify_async` submits a request to a per-event-loop
  micro-batcher that coalesces every concurrently awaited request targeting
  the same gallery into **one** stacked match.

Micro-batching is bit-exact by construction: each request's probe columns
are reduced and normalized exactly as a serial
:meth:`~repro.gallery.reference.ReferenceGallery.identify` would (per
request, never across the stack), and the stacked similarity is computed by
the fixed-order contraction kernel whose per-element accumulation depends
only on the feature dimension — so slicing a request's columns back out of
the batch yields the same bits a serial identify would have produced.

Warm serving is content-keyed: the reduced, normalized probe of a request is
cached under the ``probe`` artifact kind (keyed on scan content plus the
gallery fingerprint), and the gallery's normalized signature matrix under
``gallery_norm`` — so repeat queries skip the probe group-matrix build and
the normalization entirely while remaining impossible to serve stale.  The
content keys are memoized by freezing the payload arrays
(:func:`~repro.runtime.cache.frozen_array_digest`): scan time series handed
to the service become read-only, so a repeat request keys in microseconds
and an accidental in-place edit raises instead of poisoning a key.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.matching import MatchResult, prepare_match_inputs
from repro.exceptions import ReproError, ValidationError
from repro.gallery.matching import match_normalized, normalize_columns
from repro.gallery.reference import ReferenceGallery
from repro.runtime.backend import INDEXED_PRECISION
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import frozen_array_digest
from repro.runtime.faults import FaultPlan, install_plan
from repro.runtime.results import TimingRecorder
from repro.service.config import ServiceConfig
from repro.service.messages import (
    EnrollRequest,
    EnrollResponse,
    IdentifyRequest,
    IdentifyResponse,
    ServiceStats,
)
from repro.service.registry import GalleryRegistry

#: A request's serving-ready probe: normalized columns, degenerate mask,
#: per-probe identity labels.
_ProbeSignature = Tuple[np.ndarray, np.ndarray, List[str]]


class IdentificationService:
    """Typed serving façade over a gallery registry.

    Parameters
    ----------
    registry:
        Gallery registry to serve from; built from ``config`` when omitted.
    config:
        Deployment knobs; defaults to the registry's config (or a default
        :class:`~repro.service.config.ServiceConfig`).
    """

    def __init__(
        self,
        registry: Optional[GalleryRegistry] = None,
        config: Optional[ServiceConfig] = None,
    ):
        if config is None:
            config = registry.config if registry is not None else ServiceConfig()
        self.config = config
        #: The configured fault-injection plan (chaos/soak testing), if any.
        #: Installing it process-wide lets hooks that never see the config —
        #: the artifact cache's disk tier — find it too.
        self.fault_plan = (
            install_plan(FaultPlan.from_dict(config.fault_plan))
            if config.fault_plan
            else None
        )
        self.registry = registry if registry is not None else GalleryRegistry(config=config)
        self.cache = self.registry.cache
        #: Serializes gallery mutation (enroll-driven refits swap
        #: ``selector_``/``signatures_`` non-atomically) against batch
        #: serving, so an identify can never match probes reduced by a
        #: post-enroll selector against pre-enroll signatures.
        self._serve_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._probes = 0
        self._batches = 0
        self._coalesced_batches = 0
        self._max_batch_size = 0
        self._errors = 0
        self._per_gallery: Dict[str, int] = {}
        #: Per-gallery pruning-index counters (``precision="indexed"`` only):
        #: cumulative deltas of candidates scanned vs full-scan columns,
        #: accumulated per stacked batch under the stats lock.
        self._pruning: Dict[str, Dict[str, int]] = {}
        #: One micro-batcher per event loop (an asyncio future is bound to
        #: the loop that created it, so batch state cannot be shared across
        #: loops).  Keyed weakly: a dead loop drops its batcher.
        self._batchers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # Enrollment
    # ------------------------------------------------------------------ #
    def enroll(self, request: EnrollRequest) -> EnrollResponse:
        """Enroll subjects into (or create) the request's gallery.

        Note that enrolled scan arrays may be frozen (``writeable=False``)
        by the content-keyed serving caches; callers that want to keep
        mutating their arrays should pass copies.
        """
        try:
            with self._serve_lock:
                return self._enroll_locked(request)
        except ReproError as exc:
            return EnrollResponse(
                request_id=request.request_id,
                gallery=request.gallery,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )

    def _enroll_locked(self, request: EnrollRequest) -> EnrollResponse:
        if request.scans is None or not request.scans:
            raise ValidationError("an EnrollRequest needs at least one scan")
        if request.gallery in self.registry:
            created = False
            enrolled = self.registry.enroll(request.gallery, request.scans)
        elif request.create:
            created = True
            self.registry.build(request.gallery, request.scans)
            enrolled = len(request.scans)
        else:
            raise ValidationError(
                f"unknown gallery {request.gallery!r} "
                "(set create=True to build it from these scans)"
            )
        gallery = self.registry.get(request.gallery)
        return EnrollResponse(
            request_id=request.request_id,
            gallery=request.gallery,
            enrolled=enrolled,
            created=created,
            n_subjects=gallery.n_subjects,
            refit_count=gallery.refit_count_,
        )

    # ------------------------------------------------------------------ #
    # Sync identification
    # ------------------------------------------------------------------ #
    def identify(self, request: IdentifyRequest) -> IdentifyResponse:
        """Serve one identification request inline (batch of one)."""
        return self.identify_many([request])[0]

    def identify_many(self, requests: Sequence[IdentifyRequest]) -> List[IdentifyResponse]:
        """Serve many requests at once, coalescing per target gallery.

        Requests targeting the same gallery share one stacked match;
        responses come back in input order and are bit-identical to serving
        each request through a serial ``ReferenceGallery.identify``.
        """
        requests = list(requests)
        by_gallery: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            by_gallery.setdefault(request.gallery, []).append(index)
        responses: List[Optional[IdentifyResponse]] = [None] * len(requests)
        for name, indices in by_gallery.items():
            group = [requests[i] for i in indices]
            for start in range(0, len(group), self.config.max_batch_size):
                chunk = group[start:start + self.config.max_batch_size]
                chunk_indices = indices[start:start + self.config.max_batch_size]
                for index, response in zip(chunk_indices, self._identify_batch(name, chunk)):
                    responses[index] = response
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Async identification (micro-batched)
    # ------------------------------------------------------------------ #
    async def identify_async(self, request: IdentifyRequest) -> IdentifyResponse:
        """Serve one request through the event loop's micro-batcher.

        Every request awaited concurrently (same event-loop tick, or within
        ``config.batch_window_s``) that targets the same gallery is merged
        into one stacked match — so ``asyncio.gather`` over N requests costs
        one gallery-wide match, not N.
        """
        loop = asyncio.get_running_loop()
        batcher = self._batchers.get(loop)
        if batcher is None:
            batcher = _MicroBatcher(self)
            self._batchers[loop] = batcher
        return await batcher.submit(request)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Lifecycle hook shared with :class:`~repro.service.router.GalleryRouter`.

        An in-process service holds nothing to release — matching runs
        inline — so this is a no-op.  It exists so the HTTP front end, the
        CLI and router workers close either kind of service the same way;
        serving stays possible afterwards.
        """

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Snapshot of the serving counters and cache behaviour."""
        with self._stats_lock:
            snapshot = ServiceStats(
                requests=self._requests,
                probes=self._probes,
                batches=self._batches,
                coalesced_batches=self._coalesced_batches,
                max_batch_size=self._max_batch_size,
                errors=self._errors,
                # Count batchers of loops that are still open: a loop that
                # exited (e.g. a finished asyncio.run) may linger in a GC
                # cycle for a while, but its batcher can never serve again.
                batchers=sum(
                    1 for loop in self._batchers if not loop.is_closed()
                ),
                galleries=dict(self._per_gallery),
                pruning={
                    name: {
                        **entry,
                        "pruning_ratio": (
                            1.0 - entry["candidates_scanned"] / entry["columns_considered"]
                            if entry["columns_considered"]
                            else 0.0
                        ),
                    }
                    for name, entry in self._pruning.items()
                },
            )
        snapshot.cache_kinds = self.cache.stats_by_kind()
        snapshot.cache_dir = (
            str(self.cache.cache_dir) if self.cache.cache_dir is not None else None
        )
        return snapshot

    def healthz(self) -> Dict[str, Any]:
        """Liveness document served at ``GET /healthz``.

        A single-process service is healthy whenever it can answer at all;
        the routed deployment (:class:`~repro.service.router.GalleryRouter`)
        overrides this with per-worker health checks and may report
        ``status="degraded"``.
        """
        return {"status": "ok", "galleries": self.registry.names()}

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def _identify_batch(
        self, name: str, requests: Sequence[IdentifyRequest]
    ) -> List[IdentifyResponse]:
        """Serve a coalesced batch of requests against one gallery.

        Per-request failures (bad payloads, feature-space mismatches) come
        back as ``status="error"`` responses; the remaining requests are
        still served from the stacked match.
        """
        requests = list(requests)
        timings = TimingRecorder()
        batch_size = len(requests)
        responses: List[Optional[IdentifyResponse]] = [None] * batch_size

        with self._serve_lock, timings.section("batch_s"):
            try:
                gallery = self.registry.get(name)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
                responses = [
                    self._error_response(request, error, batch_size)
                    for request in requests
                ]
                self._record(name, responses, batch_size, probes=0)
                return responses

            signatures: List[Optional[_ProbeSignature]] = []
            with timings.section("probe_s"):
                for index, request in enumerate(requests):
                    try:
                        signatures.append(self._probe_signature(gallery, request))
                    except ReproError as exc:
                        signatures.append(None)
                        responses[index] = self._error_response(
                            request, f"{type(exc).__name__}: {exc}", batch_size
                        )

            served = [
                (index, request, signature)
                for index, (request, signature) in enumerate(zip(requests, signatures))
                if signature is not None
            ]
            if served:
                with timings.section("match_s"):
                    stacked = np.hstack([sig[0] for _, _, sig in served])
                    stacked_mask = np.concatenate([sig[1] for _, _, sig in served])
                    ref_normalized, ref_degenerate = self._reference_normalization(gallery)
                    # The indexed tier is strictly opt-in: one coarse pass
                    # scores the whole stacked batch and only the surviving
                    # candidate columns reach the exact kernel.  Top-1 and
                    # the top-1/top-2 margin are exact by the index's
                    # admissible bound, so predictions and margins below are
                    # bit-identical to the full scan.
                    index = None
                    if self.config.precision == INDEXED_PRECISION:
                        index = gallery.ensure_index(
                            rank=self.config.index_rank,
                            top_c=self.config.index_top_c,
                        )
                        pruning_before = index.counters()
                    similarity = match_normalized(
                        ref_normalized,
                        stacked,
                        ref_degenerate,
                        stacked_mask,
                        backend=gallery.backend,
                        index=index,
                        index_top_c=self.config.index_top_c,
                    )
                    if index is not None:
                        self._record_pruning(name, pruning_before, index.counters())
                    predictions = np.argmax(similarity, axis=0)
                    margins = _stacked_margins(similarity)
                offset = 0
                reference_ids = list(gallery.reference.subject_ids)
                for index, request, (_, _, target_ids) in served:
                    width = len(target_ids)
                    block = np.ascontiguousarray(similarity[:, offset:offset + width])
                    result = MatchResult(
                        similarity=block,
                        predicted_reference_index=predictions[offset:offset + width].copy(),
                        reference_subject_ids=list(reference_ids),
                        target_subject_ids=list(target_ids),
                    )
                    responses[index] = IdentifyResponse(
                        request_id=request.request_id,
                        gallery=name,
                        predicted_subject_ids=result.predicted_subject_ids,
                        target_subject_ids=list(target_ids),
                        margins=[float(m) for m in margins[offset:offset + width]],
                        accuracy=result.accuracy(),
                        n_gallery_subjects=gallery.n_subjects,
                        batch_size=batch_size,
                        metadata=dict(request.metadata),
                        match_result=result,
                    )
                    offset += width

        for response in responses:
            response.timings = dict(timings.timings)
        self._record(
            name,
            responses,
            batch_size,
            probes=sum(len(sig[2]) for _, _, sig in served) if served else 0,
        )
        return responses  # type: ignore[return-value]

    def _error_response(
        self, request: IdentifyRequest, error: str, batch_size: int
    ) -> IdentifyResponse:
        return IdentifyResponse(
            request_id=request.request_id,
            gallery=request.gallery,
            status="error",
            batch_size=batch_size,
            metadata=dict(request.metadata),
            error=error,
        )

    def _record(
        self,
        name: str,
        responses: Sequence[IdentifyResponse],
        batch_size: int,
        probes: int,
    ) -> None:
        errors = sum(1 for response in responses if not response.ok)
        with self._stats_lock:
            self._requests += len(responses)
            self._probes += probes
            self._batches += 1
            if batch_size > 1:
                self._coalesced_batches += 1
            self._max_batch_size = max(self._max_batch_size, batch_size)
            self._errors += errors
            self._per_gallery[name] = self._per_gallery.get(name, 0) + len(responses)

    def _record_pruning(
        self, name: str, before: Dict[str, Any], after: Dict[str, Any]
    ) -> None:
        """Accumulate one batch's pruning-counter delta for ``name``.

        Deltas (not raw index counters) are recorded because an
        enroll-driven refit replaces the index object and resets its
        counters — the service totals must survive that.
        """
        with self._stats_lock:
            entry = self._pruning.setdefault(
                name,
                {"candidates_scanned": 0, "columns_considered": 0, "full_scans_avoided": 0},
            )
            for key in ("candidates_scanned", "columns_considered", "full_scans_avoided"):
                entry[key] += int(after[key]) - int(before[key])

    # ------------------------------------------------------------------ #
    # Probe / reference preparation
    # ------------------------------------------------------------------ #
    def _probe_signature(
        self, gallery: ReferenceGallery, request: IdentifyRequest
    ) -> _ProbeSignature:
        """The request's reduced, normalized probe columns (content-cached).

        A cache miss reproduces the serial identify path exactly — probe
        group matrix through the batched runtime, reduction by the gallery's
        selected indices, the same validation, the same per-request column
        normalization — so a hit can only ever return what the serial path
        would have computed.
        """
        if request.scans is not None:
            if not request.scans:
                raise ValidationError("an IdentifyRequest needs at least one probe scan")
            target_ids = [scan.subject_id for scan in request.scans]
        elif request.probe is not None:
            target_ids = list(request.probe.subject_ids)
        else:
            raise ValidationError(
                "an IdentifyRequest needs probe scans or a pre-built probe matrix"
            )

        cacheable = gallery._cacheable
        normalized = degenerate = None
        if cacheable:
            if request.scans is not None:
                content = [frozen_array_digest(scan.timeseries) for scan in request.scans]
            else:
                content = [frozen_array_digest(request.probe.data)]
            params = {"fisher": gallery.fisher, "fingerprint": gallery.fingerprint}
            normalized_key = self.cache.key("probe", content, factor="normalized", **params)
            degenerate_key = self.cache.key("probe", content, factor="degenerate", **params)
            normalized = self.cache.get("probe", normalized_key)
            degenerate = self.cache.get("probe", degenerate_key)

        if normalized is None or degenerate is None:
            if request.probe is not None:
                probe = request.probe
            else:
                probe = build_group_matrix_batched(
                    request.scans, fisher=gallery.fisher, cache=self.cache
                )
            if probe.n_features != gallery.reference.n_features:
                raise ValidationError(
                    "probe and gallery must share the connectome feature space, "
                    f"got {probe.n_features} and {gallery.reference.n_features} features"
                )
            reduced = probe.data[gallery.selector_.selected_indices_, :]
            _, reduced, _, target_ids = prepare_match_inputs(
                gallery.signatures_, reduced, gallery.reference.subject_ids, target_ids
            )
            normalized, degenerate = normalize_columns(reduced)
            if cacheable:
                self.cache.put("probe", normalized_key, normalized)
                self.cache.put("probe", degenerate_key, degenerate)
        elif len(target_ids) != normalized.shape[1]:
            raise ValidationError(
                "target_subject_ids length does not match probe columns"
            )
        return normalized, np.asarray(degenerate, dtype=bool), list(target_ids)

    def _reference_normalization(
        self, gallery: ReferenceGallery
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized gallery signatures, cached under ``gallery_norm``.

        Keyed by the gallery fingerprint (a content hash of reference data
        plus fit parameters), so enrollment-driven refits key fresh entries
        automatically.  Uncacheable fits (randomized SVD without an integer
        seed) are normalized per batch instead.
        """
        if not gallery._cacheable:
            return normalize_columns(gallery.signatures_)
        fingerprint = gallery.fingerprint
        normalized_key = self.cache.key("gallery_norm", fingerprint, factor="normalized")
        degenerate_key = self.cache.key("gallery_norm", fingerprint, factor="degenerate")
        normalized = self.cache.get("gallery_norm", normalized_key)
        degenerate = self.cache.get("gallery_norm", degenerate_key)
        if normalized is None or degenerate is None:
            normalized, degenerate = normalize_columns(gallery.signatures_)
            self.cache.put("gallery_norm", normalized_key, normalized)
            self.cache.put("gallery_norm", degenerate_key, degenerate)
        return normalized, np.asarray(degenerate, dtype=bool)


def _stacked_margins(similarity: np.ndarray) -> np.ndarray:
    """Per-column confidence margins of a stacked similarity matrix.

    Column-wise identical to :meth:`~repro.attack.matching.MatchResult.margin`
    on any column slice (``np.sort`` along axis 0 treats every column
    independently), including the single-reference degenerate case.
    """
    if similarity.shape[0] < 2:
        return similarity[0, :].copy()
    ordered = np.sort(similarity, axis=0)
    return ordered[-1, :] - ordered[-2, :]


class _MicroBatcher:
    """Coalesces concurrently awaited identify requests on one event loop.

    Requests submitted while a flush is pending join its batch; the flush
    itself runs one event-loop tick (or ``batch_window_s``) after the first
    submission, groups the drained requests by gallery, and serves each
    group through :meth:`IdentificationService._identify_batch` in chunks of
    ``max_batch_size``.

    The batcher deliberately holds **no** reference to its event loop (it
    resolves ``get_running_loop()`` per call): it lives as a value in the
    service's loop-keyed ``WeakKeyDictionary``, and a value that referenced
    its own key would pin dead loops — and their batchers — forever.
    """

    def __init__(self, service: IdentificationService):
        self._service = service
        self._pending: List[Tuple[IdentifyRequest, "asyncio.Future[IdentifyResponse]"]] = []
        self._flush_task: Optional["asyncio.Task[None]"] = None

    async def submit(self, request: IdentifyRequest) -> IdentifyResponse:
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[IdentifyResponse]" = loop.create_future()
        self._pending.append((request, future))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush_after_window())
        return await future

    async def _flush_after_window(self) -> None:
        window = self._service.config.batch_window_s
        # sleep(0) yields exactly one loop tick: every coroutine already
        # scheduled (e.g. the rest of an asyncio.gather) gets to submit
        # before the flush drains the batch.
        await asyncio.sleep(window)
        await self._flush()

    async def _flush(self) -> None:
        batch = self._pending
        self._pending = []
        # Drained: requests submitted while the executor computes this batch
        # must be able to schedule their own flush, so the task handle is
        # cleared now, not when this coroutine finishes.
        self._flush_task = None
        if not batch:
            return
        by_gallery: Dict[str, List[Tuple[IdentifyRequest, Any]]] = {}
        for request, future in batch:
            by_gallery.setdefault(request.gallery, []).append((request, future))
        max_batch = self._service.config.max_batch_size
        for name, entries in by_gallery.items():
            for start in range(0, len(entries), max_batch):
                chunk = entries[start:start + max_batch]
                try:
                    # The stacked match is CPU-bound; run it off the event
                    # loop so other coroutines (heartbeats, unrelated
                    # requests) keep running while the batch computes.
                    responses = await asyncio.get_running_loop().run_in_executor(
                        None,
                        self._service._identify_batch,
                        name,
                        [request for request, _ in chunk],
                    )
                except Exception as exc:  # noqa: BLE001 - delivered through futures
                    for _, future in chunk:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                for (_, future), response in zip(chunk, responses):
                    if not future.done():
                        future.set_result(response)
