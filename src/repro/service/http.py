"""HTTP front end over the identification service (stdlib only).

This module is the network seam of the serving stack and the home of its
transport contracts (normative spec: ``docs/protocol.md``; deployment
lifecycle: ``docs/serving.md``):

**Routes.** :class:`HttpServiceServer` exposes an
:class:`~repro.service.service.IdentificationService` over a small
``asyncio``-streams HTTP/1.1 server — no third-party web framework, no new
dependency: ``POST /identify``, ``POST /enroll``, ``GET /stats``,
``GET /healthz``, and — on routed deployments that configured an
``admin_token`` — ``POST /admin/workers`` for live fleet resizes
(bearer-token gated, 409 while another resize is in flight).

**Codec negotiation (contract).** Request bodies are content-negotiated via
``Content-Type``: ``application/json`` (the default and the bit-identity
*oracle* — JSON floats round-trip exactly) or ``application/x-repro-frames``
(the length-prefixed binary frame codec of :mod:`repro.service.codec` —
raw little-endian float64 buffers behind a small JSON header, decoded with
``np.frombuffer`` straight into kernel-consumable arrays).  Responses are
always ``application/json``.  Decoding either codec yields bit-identical
scans, so identify responses are **bit-identical** to an in-process
:meth:`~repro.gallery.reference.ReferenceGallery.identify` of the same
probes regardless of the request codec.

**Bit-identity (contract).** Every connection handler is a coroutine on the
server's event loop and identifies flow through :meth:`identify_async`, so
concurrent HTTP clients — and requests pipelined on one connection — are
coalesced by the same per-event-loop micro-batcher that serves in-process
``asyncio.gather`` load; the stacked match is bit-identical to serial
identifies (the fixed-order float64 kernel, see
:func:`repro.gallery.matching.similarity_kernel`).

**Persistent pipelined connections.** Connections are keep-alive by
default.  A client may pipeline requests back-to-back without awaiting
responses: the server reads ahead (bounded by
``ServiceConfig.pipeline_depth``), dispatches request handlers
concurrently — pipelined identifies coalesce into stacked matches — and
writes responses strictly in request order.

**Streaming enroll.** A binary-framed ``POST /enroll`` body is consumed
frame by frame as it arrives: each scan frame is bounded by
``ServiceConfig.max_frame_bytes``, the stream total by
``ServiceConfig.max_stream_bytes`` (default far above
``max_request_bytes``, which keeps bounding buffered JSON bodies and binary
identify streams) — large reference sets upload in chunked frames instead
of one giant buffered body.

**Structured errors (contract).** Non-2xx responses always carry
``{"status": "error", "error": {"type", "message"}}``: malformed body →
``400``, unknown gallery → ``404``, wrong method → ``405``, oversized body →
``413`` (with a lingering close so a client mid-upload reads the response
instead of a broken pipe), chunked Transfer-Encoding → ``501``.  Structural
binary-frame violations (bad magic, truncated/oversized frames, shape
mismatches) are a ``400`` with type ``FrameError`` followed by a clean
close — never a connection desync.

Shutdown is graceful: :meth:`HttpServiceServer.shutdown` stops accepting,
drains every in-flight request (letting pending micro-batches flush), and
closes idle connections — the CLI's ``serve --http`` mode wires SIGINT /
SIGTERM to it (and, in routed mode, drains the fleet afterwards).

:class:`ServiceClient` is the matching blocking client on stdlib
``http.client``: it holds **one keep-alive connection** across requests
(reconnecting only when a resend is provably safe — a non-idempotent POST is
never blindly retried), speaks either codec, streams binary enroll uploads
buffer-by-buffer, and can pipeline identify requests over a dedicated
connection (:meth:`ServiceClient.identify_pipelined`).
:class:`BackgroundHttpServer` runs a server on a dedicated thread with its
own event loop for in-process tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ScanRecord
from repro.exceptions import ReproError, ValidationError
from repro.runtime.faults import FaultPlan
from repro.service import codec as wire_codec
from repro.service.codec import (
    CONTENT_TYPE_BINARY,
    CONTENT_TYPE_JSON,
    FrameError,
    scan_from_wire,
    scan_to_wire,
)
from repro.service.messages import (
    EnrollRequest,
    EnrollResponse,
    IdentifyRequest,
    IdentifyResponse,
    ServiceStats,
)
from repro.service.fleet import ResizeInProgress
from repro.service.service import IdentificationService

#: Reason phrases for the status codes the server actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Routes and the methods they accept (anything else is 404/405).
_ROUTES = {
    "/identify": ("POST",),
    "/enroll": ("POST",),
    "/stats": ("GET",),
    "/healthz": ("GET",),
    "/admin/workers": ("POST",),
}


class HttpServiceError(ReproError):
    """A non-2xx response from the HTTP serving API.

    Carries the HTTP ``status`` and the decoded JSON ``payload`` so callers
    (and tests) can distinguish a 404 from a 400 without string matching.
    """

    def __init__(self, status: int, payload: Dict[str, Any]):
        self.status = int(status)
        self.payload = dict(payload)
        detail = payload.get("error")
        if isinstance(detail, dict):
            message = f"{detail.get('type', 'Error')}: {detail.get('message', '')}"
        else:
            message = str(detail or payload)
        super().__init__(f"HTTP {status}: {message}")


# --------------------------------------------------------------------------- #
# JSON envelope codecs (scan codecs live in repro.service.codec)
# --------------------------------------------------------------------------- #
def identify_request_to_wire(request: IdentifyRequest) -> Dict[str, Any]:
    """The full JSON-codec HTTP body of an identify request."""
    if request.scans is None:
        raise ValidationError(
            "the HTTP transport carries scan payloads only; build the "
            "IdentifyRequest with scans= (pre-built probe matrices are "
            "in-process only)"
        )
    document = request.to_dict()
    document["scans"] = [scan_to_wire(scan) for scan in request.scans]
    return document


def identify_request_from_wire(payload: Dict[str, Any]) -> IdentifyRequest:
    """Decode a JSON-codec identify body into a payload-carrying request."""
    if not isinstance(payload, dict):
        raise ValidationError("the request body must be a JSON object")
    if "gallery" not in payload:
        raise ValidationError("an identify body needs a 'gallery' field")
    scans = payload.get("scans")
    if not isinstance(scans, list) or not scans:
        raise ValidationError("an identify body needs a non-empty 'scans' list")
    return IdentifyRequest(
        gallery=payload["gallery"],
        scans=[scan_from_wire(scan) for scan in scans],
        request_id=str(payload.get("request_id", "")),
        metadata=dict(payload.get("metadata") or {}),
    )


def enroll_request_to_wire(request: EnrollRequest) -> Dict[str, Any]:
    """The full JSON-codec HTTP body of an enroll request."""
    if request.scans is None:
        raise ValidationError("an HTTP EnrollRequest needs a scans payload")
    document = request.to_dict()
    document["scans"] = [scan_to_wire(scan) for scan in request.scans]
    return document


def enroll_request_from_wire(payload: Dict[str, Any]) -> EnrollRequest:
    """Decode a JSON-codec enroll body into a payload-carrying request."""
    if not isinstance(payload, dict):
        raise ValidationError("the request body must be a JSON object")
    if "gallery" not in payload:
        raise ValidationError("an enroll body needs a 'gallery' field")
    scans = payload.get("scans")
    if not isinstance(scans, list) or not scans:
        raise ValidationError("an enroll body needs a non-empty 'scans' list")
    return EnrollRequest(
        gallery=payload["gallery"],
        scans=[scan_from_wire(scan) for scan in scans],
        create=bool(payload.get("create", False)),
        request_id=str(payload.get("request_id", "")),
        metadata=dict(payload.get("metadata") or {}),
    )


def _error_body(kind: str, message: str) -> Dict[str, Any]:
    """The structured error document every non-2xx response carries."""
    return {"status": "error", "error": {"type": kind, "message": message}}


class _HttpRequest:
    """One parsed inbound request.

    ``body`` holds the raw bytes of a buffered (JSON-codec) body; for a
    binary-framed body the incremental reader already decoded the structure
    and ``frames`` holds ``(header, arrays)`` instead (semantic decoding
    into typed messages happens at dispatch, so semantic errors stay
    keep-alive 400s).
    """

    __slots__ = ("method", "path", "headers", "body", "frames", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        frames: Optional[Tuple[Dict[str, Any], List[np.ndarray]]] = None,
    ):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.frames = frames
        self.keep_alive = headers.get("connection", "keep-alive").lower() != "close"


class _BadRequestLine(Exception):
    """Unparseable request line / headers: answer 400 and drop the connection."""


class _OversizedBody(Exception):
    """Declared body exceeds the limit: answer 413 and drop the connection."""


class _UnsupportedEncoding(Exception):
    """Transfer-Encoding request bodies are not supported: answer 501.

    Silently ignoring the header would desync the connection (the unread
    chunk framing would be parsed as the next request line), so the
    connection is answered cleanly and closed instead.
    """


class _Pending:
    """One queued response slot of a pipelined connection (written in order)."""

    __slots__ = ("task", "status", "body", "keep_alive", "counted")

    def __init__(self, task=None, status=None, body=None, keep_alive=False, counted=False):
        self.task = task
        self.status = status
        self.body = body
        self.keep_alive = keep_alive
        self.counted = counted

    @classmethod
    def immediate(cls, status: int, body: Dict[str, Any]) -> "_Pending":
        """A pre-computed (error) response; always closes the connection."""
        return cls(status=status, body=body, keep_alive=False)


class HttpServiceServer:
    """Serve an :class:`IdentificationService` over asyncio HTTP.

    Parameters
    ----------
    service:
        The service to expose.  Its config supplies the defaults for every
        transport knob below.
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_request_bytes:
        Largest accepted buffered request body (JSON bodies and binary
        identify streams); larger declared bodies are refused with ``413``
        before any byte of the body is read.
    max_frame_bytes / max_stream_bytes:
        Binary-codec limits: largest single frame, and largest total
        ``POST /enroll`` frame stream (the streaming enroll path may exceed
        ``max_request_bytes`` up to this bound because it never buffers the
        raw body).
    pipeline_depth:
        How many pipelined requests per connection may be in flight at
        once; further reads wait (TCP backpressure), so a client cannot
        queue unbounded work.

    Lifecycle: ``await start()`` binds the listener, ``await
    serve_forever()`` runs until :meth:`stop` (loop-thread) is called, then
    performs the graceful :meth:`shutdown` — stop accepting, drain every
    in-flight request, close idle connections.
    """

    def __init__(
        self,
        service: IdentificationService,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_request_bytes: Optional[int] = None,
        max_frame_bytes: Optional[int] = None,
        max_stream_bytes: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
    ):
        config = service.config
        self.service = service
        self.host = host if host is not None else config.http_host
        self.port = int(port if port is not None else config.http_port)
        self.max_request_bytes = int(
            max_request_bytes if max_request_bytes is not None else config.max_request_bytes
        )
        self.max_frame_bytes = int(
            max_frame_bytes if max_frame_bytes is not None else config.max_frame_bytes
        )
        self.max_stream_bytes = int(
            max_stream_bytes if max_stream_bytes is not None else config.max_stream_bytes
        )
        self.pipeline_depth = int(
            pipeline_depth if pipeline_depth is not None else config.pipeline_depth
        )
        self.keep_alive_enabled = bool(getattr(config, "http_keep_alive", True))
        for name in ("max_request_bytes", "max_frame_bytes", "max_stream_bytes",
                     "pipeline_depth"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Chaos hook: a configured fault plan may drop connections here.
        self._fault_plan = (
            FaultPlan.from_dict(config.fault_plan)
            if getattr(config, "fault_plan", None)
            else None
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._inflight = 0
        self._closing = False
        self._requests_served = 0
        self._connections_accepted = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (and resolve an ephemeral port)."""
        if self._server is not None:
            raise ValidationError("the server is already started")
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Request shutdown (call on the server's event loop thread)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` is called, then shut down gracefully."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close connections.

        Idempotent.  In-flight requests finish through their pending
        micro-batches (nothing is cancelled) and their responses are
        written; only then are the remaining keep-alive connections closed.
        """
        self._closing = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        # In-flight work is done (responses written); unblock idle keep-alive
        # connections and wait for every handler to observe EOF and exit, so
        # the event loop shuts down without cancelling anything mid-cleanup.
        for writer in list(self._writers):
            writer.close()
        while self._writers:
            await asyncio.sleep(0.005)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return self.host, self.port

    @property
    def requests_served(self) -> int:
        """How many HTTP responses this server has written."""
        return self._requests_served

    @property
    def connections_accepted(self) -> int:
        """How many TCP connections this server has accepted.

        With well-behaved keep-alive clients this grows far slower than
        :attr:`requests_served` — the observable proof that connections are
        actually persistent.
        """
        return self._connections_accepted

    # ------------------------------------------------------------------ #
    # Connection handling (pipelined: read loop + ordered writer)
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_accepted += 1
        self._writers.add(writer)
        # Responses are written strictly in request order by a dedicated
        # writer coroutine; the bounded queue is the pipeline-depth
        # backpressure (reads wait when the client is too far ahead).
        queue: asyncio.Queue = asyncio.Queue(maxsize=max(1, self.pipeline_depth))
        write_task = asyncio.create_task(self._write_responses(queue, writer))
        linger = False
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except _BadRequestLine as exc:
                    await queue.put(
                        _Pending.immediate(400, _error_body("MalformedRequest", str(exc)))
                    )
                    break
                except _OversizedBody as exc:
                    # The client may still be mid-upload; a plain close would
                    # RST the un-read upload away and the 413 with it.
                    linger = True
                    await queue.put(
                        _Pending.immediate(413, _error_body("PayloadTooLarge", str(exc)))
                    )
                    break
                except FrameError as exc:
                    # The declared framing cannot be trusted any more, so the
                    # connection closes after the structured 400 — answering
                    # and terminating cleanly is what keeps a broken frame
                    # stream from desyncing into the next request.
                    linger = True
                    await queue.put(
                        _Pending.immediate(400, _error_body("FrameError", str(exc)))
                    )
                    break
                except _UnsupportedEncoding as exc:
                    await queue.put(
                        _Pending.immediate(501, _error_body("NotImplemented", str(exc)))
                    )
                    break
                if request is None:
                    break
                if (
                    self._fault_plan is not None
                    and self._fault_plan.should_fire("http.drop_connection") is not None
                ):
                    # Injected fault: tear the connection down without a
                    # response.  The client's resend rules decide what is
                    # safe to retry (GETs and provably-unsent requests).
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    break
                keep_alive = request.keep_alive and self.keep_alive_enabled
                # In-flight covers the response write too, so a draining
                # shutdown never closes a connection mid-answer.
                self._inflight += 1
                task = asyncio.create_task(self._dispatch(request))
                await queue.put(_Pending(task=task, keep_alive=keep_alive, counted=True))
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            await queue.put(None)
            await write_task
            if linger:
                await self._linger_close(reader, writer)
            self._writers.discard(writer)
            writer.close()

    async def _write_responses(self, queue: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        """Drain the response queue in order; never dies before the sentinel.

        A broken client socket stops the writing but not the draining —
        every pending dispatch is still awaited so the in-flight counter
        (which the graceful shutdown waits on) always reaches zero.
        """
        broken = False
        while True:
            pending = await queue.get()
            if pending is None:
                return
            try:
                if pending.task is not None:
                    try:
                        status, body = await pending.task
                    except Exception as exc:  # noqa: BLE001 - belt and braces; _dispatch guards
                        status, body = 500, _error_body(type(exc).__name__, str(exc))
                else:
                    status, body = pending.status, pending.body
                if not broken:
                    try:
                        await self._write_response(
                            writer, status, body, pending.keep_alive and not self._closing
                        )
                        self._requests_served += 1
                    except (ConnectionError, OSError):
                        broken = True
            finally:
                if pending.counted:
                    self._inflight -= 1

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
        """Parse one request off the stream (``None`` = clean EOF).

        The body is fully consumed before returning — buffered for the JSON
        codec, decoded frame by frame for the binary codec — so the stream
        is request-aligned for the next read whatever dispatch decides.
        """
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _BadRequestLine("request line too long") from None
        if not request_line or not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequestLine(f"malformed request line: {request_line[:80]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise _BadRequestLine("header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _UnsupportedEncoding(
                "Transfer-Encoding request bodies are not supported; "
                "send a Content-Length body (the binary frame codec streams "
                "within one Content-Length body)"
            )
        try:
            content_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequestLine("unparseable Content-Length header") from None
        if content_length < 0:
            raise _BadRequestLine("negative Content-Length header")
        path = target.split("?", 1)[0]
        content_type = headers.get("content-type", "").partition(";")[0].strip().lower()
        if content_type == CONTENT_TYPE_BINARY:
            # The streaming enroll path never buffers the raw body, so its
            # bound is the (much larger) stream limit, not the buffer limit.
            limit = self.max_stream_bytes if path == "/enroll" else self.max_request_bytes
            if content_length > limit:
                raise _OversizedBody(
                    f"binary frame stream of {content_length} bytes exceeds "
                    f"the {limit}-byte limit"
                )
            frames = await self._read_framed_body(reader, content_length)
            return _HttpRequest(method.upper(), path, headers, b"", frames=frames)
        if content_length > self.max_request_bytes:
            raise _OversizedBody(
                f"request body of {content_length} bytes exceeds the "
                f"{self.max_request_bytes}-byte limit"
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return _HttpRequest(method.upper(), path, headers, body)

    async def _read_framed_body(
        self, reader: asyncio.StreamReader, content_length: int
    ) -> Tuple[Dict[str, Any], List[np.ndarray]]:
        """Incrementally decode one binary frame stream off the wire.

        Structural validation happens as the bytes arrive: magic, header
        frame, then exactly one frame per declared scan, each checked
        against its shape-implied byte count and the per-frame limit.  The
        raw body is never buffered whole — each frame becomes its float64
        array as soon as it is read (this is the streaming enroll path).
        Raises :class:`FrameError` on structural violations; the caller
        answers 400 and closes.
        """
        remaining = content_length

        async def take(count: int, what: str) -> bytes:
            nonlocal remaining
            if count > remaining:
                raise FrameError(
                    f"truncated frame stream: {what} needs {count} bytes but "
                    f"only {remaining} remain of the declared body"
                )
            chunk = await reader.readexactly(count)
            remaining -= count
            return chunk

        wire_codec.check_magic(await take(4, "stream magic"))
        header_length = wire_codec.parse_frame_length(
            await take(4, "header frame"), self.max_frame_bytes, "header frame"
        )
        header = wire_codec.parse_header(await take(header_length, "header frame payload"))
        arrays: List[np.ndarray] = []
        for index, (meta, expected_bytes) in enumerate(
            wire_codec.expected_scan_frames(header)
        ):
            frame_length = wire_codec.parse_frame_length(
                await take(4, f"scan frame {index}"),
                self.max_frame_bytes,
                f"scan frame {index}",
            )
            if frame_length != expected_bytes:
                raise FrameError(
                    f"scan frame {index} declares {frame_length} bytes but its "
                    f"shape {meta.get('shape')} implies {expected_bytes}"
                )
            payload = await take(frame_length, f"scan frame {index} payload")
            arrays.append(wire_codec.array_from_payload(payload, meta["shape"]))
        if remaining:
            raise FrameError(
                f"{remaining} trailing byte(s) after the last scan frame"
            )
        return header, arrays

    async def _linger_close(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        deadline_s: float = 10.0,
    ) -> None:
        """Half-close, then discard the client's remaining upload until EOF.

        A refused request (413, or a structurally broken frame stream) is
        answered while the client may still be writing megabytes of body;
        closing the socket outright makes the kernel RST the connection and
        the client sees a broken pipe instead of the response.  Shutting
        down only our write side and draining the upload (time-bounded)
        lets the client finish sending and read the answer.
        """
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (OSError, RuntimeError):
            return
        deadline = asyncio.get_running_loop().time() + deadline_s
        try:
            while asyncio.get_running_loop().time() < deadline:
                chunk = await asyncio.wait_for(reader.read(65536), timeout=deadline_s)
                if not chunk:
                    break
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # slow or gone client: give up on the lingering drain

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: _HttpRequest) -> Tuple[int, Dict[str, Any]]:
        methods = _ROUTES.get(request.path)
        if methods is None:
            return 404, _error_body("NotFound", f"unknown path {request.path!r}")
        if request.method not in methods:
            return 405, _error_body(
                "MethodNotAllowed",
                f"{request.path} accepts {'/'.join(methods)}, not {request.method}",
            )
        try:
            loop = asyncio.get_running_loop()
            if request.path == "/healthz":
                # Off the event loop: a routed service pings every worker
                # (and respawns dead ones) to answer this.
                document = await loop.run_in_executor(None, self.service.healthz)
                status = 200 if document.get("status") == "ok" else 503
                return status, document
            if request.path == "/stats":
                # Off the event loop: a routed service polls every worker.
                stats = await loop.run_in_executor(None, self.service.stats)
                return 200, stats.to_dict()
            if request.path == "/identify":
                return await self._handle_identify(request)
            if request.path == "/admin/workers":
                return await self._handle_admin_workers(request)
            return await self._handle_enroll(request)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the connection loop
            return 500, _error_body(type(exc).__name__, str(exc))

    def _decode_json(self, request: _HttpRequest) -> Dict[str, Any]:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValidationError("the request body must be a JSON object")
        return payload

    async def _handle_admin_workers(
        self, request: _HttpRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /admin/workers``: live fleet membership changes.

        Admin-only: the endpoint is disabled (structured 403) unless the
        deployment configured an ``admin_token``, and every request must
        present it as ``Authorization: Bearer <token>``.  The body selects
        the change — ``{"action": "add"|"remove", "worker": optional}`` —
        and one resize runs at a time: a request racing an in-flight resize
        gets a 409 instead of queueing behind it.
        """
        add = getattr(self.service, "add_worker", None)
        remove = getattr(self.service, "remove_worker", None)
        if add is None or remove is None:
            return 404, _error_body(
                "NotRouted",
                "fleet administration requires routed serving "
                "(start with router_workers >= 1)",
            )
        token = getattr(self.service.config, "admin_token", None)
        if not token:
            return 403, _error_body(
                "AdminDisabled",
                "the admin endpoint is disabled; configure admin_token to enable it",
            )
        supplied = request.headers.get("authorization", "")
        # Constant-time comparison: a plain != leaks how much of the token
        # prefix matched through response timing.
        if not hmac.compare_digest(
            supplied.encode("utf-8"), f"Bearer {token}".encode("utf-8")
        ):
            return 403, _error_body(
                "Forbidden", "missing or invalid admin bearer token"
            )
        try:
            payload = self._decode_json(request)
        except ReproError as exc:
            return 400, _error_body(type(exc).__name__, str(exc))
        action = payload.get("action")
        worker = payload.get("worker")
        if action not in ("add", "remove"):
            return 400, _error_body(
                "UnknownAction",
                f"action must be 'add' or 'remove', got {action!r}",
            )
        if worker is not None and (not isinstance(worker, str) or not worker):
            return 400, _error_body(
                "BadWorkerName", "worker must be a non-empty string when given"
            )
        # Off the event loop: a resize spawns/drains worker processes.
        loop = asyncio.get_running_loop()
        mutate = add if action == "add" else remove
        try:
            record = await loop.run_in_executor(None, mutate, worker)
        except ResizeInProgress as exc:
            return 409, _error_body("ResizeInProgress", str(exc))
        except ReproError as exc:
            return 400, _error_body(type(exc).__name__, str(exc))
        return 200, {
            "status": "ok",
            "action": action,
            "workers": list(getattr(self.service, "workers", [])),
            "resize": record,
        }

    async def _handle_identify(self, request: _HttpRequest) -> Tuple[int, Dict[str, Any]]:
        try:
            if request.frames is not None:
                message = wire_codec.identify_request_from_frames(*request.frames)
            else:
                message = identify_request_from_wire(self._decode_json(request))
        except ReproError as exc:
            return 400, _error_body(type(exc).__name__, str(exc))
        if message.gallery not in self.service.registry:
            return 404, _error_body(
                "UnknownGallery", f"unknown gallery {message.gallery!r}"
            )
        response = await self.service.identify_async(message)
        return (200 if response.ok else 400), response.to_dict()

    async def _handle_enroll(self, request: _HttpRequest) -> Tuple[int, Dict[str, Any]]:
        try:
            if request.frames is not None:
                message = wire_codec.enroll_request_from_frames(*request.frames)
            else:
                message = enroll_request_from_wire(self._decode_json(request))
        except ReproError as exc:
            return 400, _error_body(type(exc).__name__, str(exc))
        if not message.create and message.gallery not in self.service.registry:
            return 404, _error_body(
                "UnknownGallery",
                f"unknown gallery {message.gallery!r} (set create=true to build it)",
            )
        # Enrollment re-fits the gallery (CPU-bound); keep the loop serving.
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(None, self.service.enroll, message)
        return (200 if response.ok else 400), response.to_dict()


class BackgroundHttpServer:
    """Run an :class:`HttpServiceServer` on its own thread and event loop.

    The in-process harness tests and benchmarks use: start a server without
    blocking the caller, read back the bound port, and stop it with a
    graceful drain.  Usable as a context manager.
    """

    def __init__(
        self,
        service: IdentificationService,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_request_bytes: Optional[int] = None,
        max_frame_bytes: Optional[int] = None,
        max_stream_bytes: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
    ):
        self.server = HttpServiceServer(
            service,
            host=host,
            port=port,
            max_request_bytes=max_request_bytes,
            max_frame_bytes=max_frame_bytes,
            max_stream_bytes=max_stream_bytes,
            pipeline_depth=pipeline_depth,
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "BackgroundHttpServer":
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self.server.serve_forever()

        def run() -> None:
            try:
                asyncio.run(main())
            except BaseException:  # noqa: BLE001 - startup errors surface via start()
                if not self._started.is_set():
                    self._started.set()

        self._thread = threading.Thread(target=run, name="repro-http-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise ValidationError("the HTTP server did not start within the timeout")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the server thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.server.stop)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServiceClient:
    """Blocking HTTP client of the serving API (stdlib ``http.client``).

    One client owns **one persistent keep-alive connection**, reused across
    requests; it reconnects only when a resend is provably safe — a send
    that failed before the server could have read a whole request, or a GET
    — so a non-idempotent POST (enroll!) is never blindly retried.  It is
    **not** thread-safe: use one client per thread (each holding its own
    connection is also what makes concurrent clients coalesce server-side).

    Parameters
    ----------
    host / port / timeout:
        Where to connect and the per-operation socket timeout.
    codec:
        Request codec: ``"json"`` (the default and the bit-identity oracle)
        or ``"binary"`` (the frame codec — identical responses, a fraction
        of the wire cost; enroll uploads stream buffer-by-buffer).
    """

    CODECS = ("json", "binary")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8035,
        timeout: float = 60.0,
        codec: str = "json",
    ):
        import http.client

        if codec not in self.CODECS:
            raise ValidationError(f"codec must be one of {self.CODECS}, got {codec!r}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.codec = codec
        self.connections_opened = 0
        self._conn = http.client.HTTPConnection(host, self.port, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _send(self, method: str, path: str, body, headers: Dict[str, str]) -> None:
        """Issue one request on the persistent connection (dial if needed)."""
        if self._conn.sock is None:
            self.connections_opened += 1
        self._conn.request(method, path, body=body, headers=headers)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        frames: Optional[Sequence[bytes]] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        import http.client

        if frames is not None:
            # Binary codec: the frame buffers are handed to http.client as a
            # re-iterable sequence, so the upload streams buffer-by-buffer
            # (never one giant joined body) and a safe resend re-streams it.
            body: Any = list(frames)
            headers = {
                "Content-Type": CONTENT_TYPE_BINARY,
                "Content-Length": str(sum(len(buffer) for buffer in body)),
            }
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": CONTENT_TYPE_JSON}
        else:
            body = None
            headers = {}
        if extra_headers:
            headers.update(extra_headers)
        try:
            self._send(method, path, body, headers)
        except (ConnectionError, OSError):
            # The send failed: either the server closed an idle keep-alive
            # connection, or it refused mid-upload (413 lingering close).
            # A waiting response takes priority — only if none is readable
            # is it safe to resend (the server never saw a whole request,
            # so a non-idempotent POST cannot have executed).
            response = data = None
            if self._conn.sock is not None:
                try:
                    response = self._conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    response = None
            if response is None:
                self._conn.close()
                self._send(method, path, body, headers)
                response = self._conn.getresponse()
                data = response.read()
        else:
            try:
                response = self._conn.getresponse()
                data = response.read()
            except (ConnectionError, OSError):
                # The request was fully sent but the response never came
                # back.  Re-sending would be safe for GETs only — the server
                # may have executed a POST (enroll!) before dying, and a
                # blind retry would run it twice.
                self._conn.close()
                if method != "GET":
                    raise
                self._send(method, path, body, headers)
                response = self._conn.getresponse()
                data = response.read()
        if response.will_close:
            self._conn.close()
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpServiceError(
                response.status, _error_body("MalformedResponse", str(exc))
            ) from None
        if response.status >= 400:
            raise HttpServiceError(response.status, document)
        return document

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    def _identify_body(self, request: IdentifyRequest):
        """``(payload, frames)`` of one identify request in this client's codec."""
        if self.codec == "binary":
            return None, wire_codec.encode_identify_frames(request)
        return identify_request_to_wire(request), None

    def identify(
        self,
        request: Optional[IdentifyRequest] = None,
        *,
        gallery: Optional[str] = None,
        scans: Optional[Sequence[ScanRecord]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> IdentifyResponse:
        """POST one identify request; returns the typed response message."""
        if request is None:
            if gallery is None or scans is None:
                raise ValidationError(
                    "identify() needs an IdentifyRequest or gallery= and scans="
                )
            request = IdentifyRequest(
                gallery=gallery, scans=list(scans), metadata=dict(metadata or {})
            )
        payload, frames = self._identify_body(request)
        document = self._request("POST", "/identify", payload=payload, frames=frames)
        return IdentifyResponse.from_dict(document)

    def identify_pipelined(
        self, requests: Sequence[IdentifyRequest]
    ) -> List[IdentifyResponse]:
        """Pipeline many identifies on one dedicated connection.

        All requests are written back-to-back (a sender thread keeps the
        upload flowing while responses are read, so deep pipelines cannot
        deadlock on socket buffers) and the responses — which the server
        writes strictly in request order — are read in order.  Pipelined
        identifies dispatch concurrently server-side, so they coalesce into
        stacked micro-batches exactly like concurrent clients.

        Uses a fresh connection per call (the persistent ``identify()``
        connection cannot interleave); raises :class:`HttpServiceError` on
        the first non-2xx response.
        """
        import socket

        if not requests:
            return []
        chunks: List[bytes] = []
        for request in requests:
            payload, frames = self._identify_body(request)
            if frames is None:
                frames = [json.dumps(payload).encode("utf-8")]
                content_type = CONTENT_TYPE_JSON
            else:
                content_type = CONTENT_TYPE_BINARY
            length = sum(len(buffer) for buffer in frames)
            chunks.append(
                (
                    f"POST /identify HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {length}\r\n"
                    "Connection: keep-alive\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            chunks.extend(frames)

        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self.connections_opened += 1
        send_error: List[BaseException] = []

        def pump() -> None:
            try:
                for chunk in chunks:
                    sock.sendall(chunk)
            except OSError as exc:  # reader side surfaces the failure
                send_error.append(exc)

        sender = threading.Thread(target=pump, name="repro-pipeline-send", daemon=True)
        sender.start()
        responses: List[IdentifyResponse] = []
        try:
            stream = sock.makefile("rb")
            try:
                for _ in requests:
                    status, document = self._read_pipelined_response(stream)
                    if status >= 400:
                        raise HttpServiceError(status, document)
                    responses.append(IdentifyResponse.from_dict(document))
            finally:
                stream.close()
        finally:
            sender.join(timeout=self.timeout)
            sock.close()
        if send_error and len(responses) < len(requests):
            raise ConnectionError(f"pipelined send failed: {send_error[0]}")
        return responses

    @staticmethod
    def _read_pipelined_response(stream) -> Tuple[int, Dict[str, Any]]:
        """Parse one HTTP/1.1 response off a buffered socket stream."""
        status_line = stream.readline()
        if not status_line:
            raise ConnectionError("server closed the pipelined connection early")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"malformed pipelined status line: {status_line!r}")
        status = int(parts[1])
        content_length = 0
        while True:
            line = stream.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        data = stream.read(content_length) if content_length else b""
        if len(data) != content_length:
            raise ConnectionError("pipelined response body was truncated")
        return status, json.loads(data.decode("utf-8"))

    def enroll(
        self,
        request: Optional[EnrollRequest] = None,
        *,
        gallery: Optional[str] = None,
        scans: Optional[Sequence[ScanRecord]] = None,
        create: bool = False,
    ) -> EnrollResponse:
        """POST one enroll request; returns the typed response message.

        With ``codec="binary"`` the reference set streams as length-prefixed
        frames — the server decodes scan by scan and accepts streams up to
        ``ServiceConfig.max_stream_bytes``, so large enrollments are not
        limited by the buffered-body cap (``max_request_bytes``).
        """
        if request is None:
            if gallery is None or scans is None:
                raise ValidationError(
                    "enroll() needs an EnrollRequest or gallery= and scans="
                )
            request = EnrollRequest(gallery=gallery, scans=list(scans), create=create)
        if self.codec == "binary":
            document = self._request(
                "POST", "/enroll", frames=wire_codec.encode_enroll_frames(request)
            )
        else:
            document = self._request("POST", "/enroll", payload=enroll_request_to_wire(request))
        return EnrollResponse.from_dict(document)

    def stats(self) -> ServiceStats:
        """GET the serving statistics snapshot."""
        return ServiceStats.from_dict(self._request("GET", "/stats"))

    def healthz(self) -> Dict[str, Any]:
        """GET the liveness document."""
        return self._request("GET", "/healthz")

    def admin_workers(
        self,
        action: str,
        worker: Optional[str] = None,
        token: Optional[str] = None,
    ) -> Dict[str, Any]:
        """POST a live fleet resize (``action`` is ``"add"`` or ``"remove"``).

        Requires the server-side ``admin_token``; a missing or wrong token
        is a structured 403, a racing resize a structured 409 (both raise
        :class:`HttpServiceError` with the status attached).
        """
        payload: Dict[str, Any] = {"action": action}
        if worker is not None:
            payload["worker"] = worker
        extra = {"Authorization": f"Bearer {token}"} if token is not None else None
        return self._request(
            "POST", "/admin/workers", payload=payload, extra_headers=extra
        )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BackgroundHttpServer",
    "CONTENT_TYPE_BINARY",
    "CONTENT_TYPE_JSON",
    "FrameError",
    "HttpServiceError",
    "HttpServiceServer",
    "ServiceClient",
    "enroll_request_from_wire",
    "enroll_request_to_wire",
    "identify_request_from_wire",
    "identify_request_to_wire",
    "scan_from_wire",
    "scan_to_wire",
]
