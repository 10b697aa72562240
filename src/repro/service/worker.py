"""Service worker process of the gallery router.

One worker = one process = one
:class:`~repro.service.service.IdentificationService` over its own
:class:`~repro.service.registry.GalleryRegistry` rooted at the **shared**
gallery directory.  The router partitions gallery names across workers
(consistent hashing, :mod:`repro.service.router`); each worker lazily loads
only the galleries routed to it and applies the TTL/LRU residency policy of
its config per process — so a fleet holds each gallery resident exactly once
while every worker can reload any gallery from disk after a respawn.

**IPC transport.** Router and worker talk over two ``socket.socketpair``
channels — *data* (identify/enroll, potentially large scan payloads) and
*control* (ping/stats, so health checks never queue behind a long identify).
Every message is one length-prefixed frame stream reusing the HTTP binary
frame codec verbatim (:mod:`repro.service.codec`): a u32-LE total length,
then ``RPF1`` magic + JSON header frame + one raw little-endian float64
frame per scan.  Scan arrays therefore cross the process boundary with every
float64 bit pattern intact, and replies carry response documents in the JSON
header — the same shortest-round-trip float encoding the HTTP layer uses —
so routed identify responses are bit-identical to single-process serving.

**Write durability.** A successful enroll (or create) is persisted to the
shared root before the reply is sent: a respawned worker — or a TTL/LRU
eviction — lazily reloads the post-enroll state, so a worker crash after an
acknowledged enroll never loses data.

The worker ignores ``SIGINT`` (a terminal Ctrl-C reaches the whole process
group; the router drains workers explicitly) and exits when the router sends
the ``shutdown`` op — or the fleet control plane sends ``drain`` during a
live ``remove_worker`` (persist residents, reply with a final stats
snapshot, exit) — on the data channel, closing its service before the
router joins it.
The control channel additionally answers ``warm`` (prefetch a list of
gallery names) so ``add_worker`` can warm a joining worker's arc before the
ring commit.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.faults import FaultPlan, corrupt_buffer, truncate_buffer
from repro.service.codec import (
    FrameError,
    decode_frames,
    encode_frames,
    enroll_request_from_frames,
    identify_request_from_frames,
)
from repro.service.config import ServiceConfig
from repro.service.registry import GalleryRegistry
from repro.service.service import IdentificationService

#: struct format of the per-message length prefix (unsigned 32-bit LE, the
#: same convention as the frame codec's per-frame prefixes).
_LENGTH_FORMAT = "<I"
_LENGTH_BYTES = 4


# --------------------------------------------------------------------------- #
# Message transport (shared by router and worker)
# --------------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF at a message boundary."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise FrameError(
                f"IPC peer closed mid-message ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(
    sock: socket.socket, header: Dict[str, Any], payloads: Sequence[bytes] = ()
) -> None:
    """Write one length-prefixed frame-stream message onto the socket."""
    body = b"".join(encode_frames(header, list(payloads)))
    sock.sendall(struct.pack(_LENGTH_FORMAT, len(body)) + body)


def recv_message(
    sock: socket.socket, max_message_bytes: int
) -> Optional[Tuple[Dict[str, Any], List[np.ndarray]]]:
    """Read one message; returns ``(header, arrays)`` or ``None`` on EOF."""
    prefix = _recv_exact(sock, _LENGTH_BYTES)
    if prefix is None:
        return None
    (length,) = struct.unpack(_LENGTH_FORMAT, prefix)
    if length > max_message_bytes:
        raise FrameError(
            f"IPC message declares {length} bytes, over the "
            f"{max_message_bytes}-byte limit"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("IPC peer closed before the declared message body")
    return decode_frames(body)


def _reply(document: Dict[str, Any]) -> Dict[str, Any]:
    """An ok reply header carrying a JSON response document."""
    return {"kind": "response", "ok": True, "document": document, "scans": []}


def _error_reply(exc: BaseException) -> Dict[str, Any]:
    return {
        "kind": "response",
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "scans": [],
    }


def _send_reply(
    sock: socket.socket, reply: Dict[str, Any], plan: Optional[FaultPlan]
) -> bool:
    """Send one data-channel reply, applying any planned reply faults.

    Returns ``False`` when the channel can no longer be trusted (a truncated
    frame leaves the router waiting on bytes that will never come), so the
    serve loop exits and the router's read surfaces the failure.
    """
    if plan is None:
        send_message(sock, reply)
        return True
    if plan.should_fire("worker.crash") is not None:
        # Die exactly like a SIGKILL'd worker: no reply, no service.close().
        os._exit(17)
    rule = plan.should_fire("worker.hang")
    if rule is not None:
        # Stuck, not dead: only the router's data-channel deadline can tell.
        time.sleep(rule.delay_s if rule.delay_s > 0 else 3600.0)
    rule = plan.should_fire("worker.slow_reply")
    if rule is not None:
        time.sleep(rule.delay_s)
    body = b"".join(encode_frames(reply, []))
    rule = plan.should_fire("ipc.truncate_frame")
    if rule is not None:
        sock.sendall(struct.pack(_LENGTH_FORMAT, len(body)) + truncate_buffer(body))
        return False
    rule = plan.should_fire("ipc.corrupt_frame")
    if rule is not None:
        # Length-aligned but byte-corrupted: the router's codec rejects the
        # magic with a typed FrameError instead of desyncing.
        sock.sendall(struct.pack(_LENGTH_FORMAT, len(body)) + corrupt_buffer(body))
        return True
    sock.sendall(struct.pack(_LENGTH_FORMAT, len(body)) + body)
    return True


# --------------------------------------------------------------------------- #
# Worker process main
# --------------------------------------------------------------------------- #
def _drain_document(
    worker_id: str,
    service: IdentificationService,
    registry: GalleryRegistry,
) -> Dict[str, Any]:
    """The ``drain`` reply: persist residents, snapshot final stats.

    Every acked enroll was already persisted before its reply, so the
    persist pass here is a defensive sweep, not a durability requirement;
    per-gallery failures are reported, never fatal.  The stats snapshot is
    complete (nothing accrues after it — the serve loop exits next), so the
    router can fold it into the carried accumulator without losing a single
    counter to the removal.
    """
    info = registry.info()
    persisted: List[str] = []
    persist_errors: Dict[str, str] = {}
    for name, entry in (info.get("galleries") or {}).items():
        if not entry.get("resident"):
            continue
        try:
            registry.persist(name)
            persisted.append(name)
        except Exception as exc:  # noqa: BLE001 - reported per gallery
            persist_errors[name] = f"{type(exc).__name__}: {exc}"
    stats = service.stats().to_dict()
    stats["registry"] = _registry_detail(registry)
    return {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "drained": True,
        "persisted": sorted(persisted),
        "persist_errors": persist_errors,
        "stats": stats,
    }


def _serve_data_op(
    header: Dict[str, Any],
    arrays: List[np.ndarray],
    service: IdentificationService,
    registry: GalleryRegistry,
) -> Optional[Dict[str, Any]]:
    """Serve one data-channel op; ``None`` means shutdown was requested.

    ``drain`` is handled by the serve loop itself (it ends the loop after
    the reply); this dispatcher only serves request-shaped ops.
    """
    kind = header.get("kind")
    if kind == "shutdown":
        return None
    if kind == "identify":
        request = identify_request_from_frames(header, arrays)
        return _reply(service.identify(request).to_dict())
    if kind == "enroll":
        request = enroll_request_from_frames(header, arrays)
        response = service.enroll(request)
        if response.ok:
            # Durability before acknowledgement: the shared root now holds
            # the post-enroll state, so a respawn (or TTL/LRU eviction)
            # lazily reloads it instead of losing the write.
            registry.persist(request.gallery)
        return _reply(response.to_dict())
    raise FrameError(f"unknown data op {kind!r}")


def _registry_detail(registry: GalleryRegistry) -> Dict[str, Any]:
    """Residency detail of this worker's registry (for ``per_worker`` stats)."""
    info = registry.info()
    return {
        "resident": sorted(
            name
            for name, entry in info["galleries"].items()
            if entry.get("resident")
        ),
        "auto_evictions": info["auto_evictions"],
        "max_galleries": info["max_galleries"],
        "ttl_seconds": info["ttl_seconds"],
    }


def _control_document(
    header: Dict[str, Any],
    worker_id: str,
    service: IdentificationService,
    registry: GalleryRegistry,
) -> Dict[str, Any]:
    op = header.get("kind")
    if op == "ping":
        detail = _registry_detail(registry)
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "resident": detail["resident"],
            "auto_evictions": detail["auto_evictions"],
        }
    if op == "stats":
        document = service.stats().to_dict()
        document["registry"] = _registry_detail(registry)
        return document
    if op == "warm":
        # Prefetch the gallery names a prospective ring change assigns to
        # this worker, so a join commits with its arc already resident.
        # Loads respect the residency policy: under a max_galleries cap
        # only the first ``cap`` names are attempted (warming more would
        # just evict the earlier ones again).
        requested = [str(name) for name in (header.get("names") or [])]
        cap = registry.max_galleries
        to_warm = requested if cap is None else requested[: int(cap)]
        warmed: List[str] = []
        failed: Dict[str, str] = {}
        for name in to_warm:
            try:
                registry.get(name)
                warmed.append(name)
            except Exception as exc:  # noqa: BLE001 - reported per name
                failed[name] = f"{type(exc).__name__}: {exc}"
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "requested": len(requested),
            "warmed": warmed,
            "failed": failed,
        }
    raise FrameError(f"unknown control op {op!r}")


def _control_loop(
    control_sock: socket.socket,
    worker_id: str,
    service: IdentificationService,
    registry: GalleryRegistry,
    max_message_bytes: int,
) -> None:
    """Answer ping/stats on the dedicated channel (never blocked by serving)."""
    while True:
        try:
            message = recv_message(control_sock, max_message_bytes)
        except (OSError, FrameError):
            return
        if message is None:
            return
        header, _ = message
        try:
            reply = _reply(_control_document(header, worker_id, service, registry))
        except Exception as exc:  # noqa: BLE001 - reported to the router
            reply = _error_reply(exc)
        try:
            send_message(control_sock, reply)
        except OSError:
            return


def worker_main(
    data_sock: socket.socket,
    control_sock: socket.socket,
    config_payload: Dict[str, Any],
    root: str,
    worker_id: str,
) -> None:
    """Entry point of one router worker process.

    Builds a fresh registry + service over the shared ``root`` (galleries
    load lazily, never eagerly — a respawned worker starts cold and warms on
    demand) and serves the two IPC channels until the router sends
    ``shutdown`` (or the data channel reaches EOF).  The service is closed
    before the process exits.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    config = ServiceConfig.from_dict(config_payload)
    registry = GalleryRegistry(root=root, config=config)
    service = IdentificationService(registry=registry, config=config)
    # The service installed the configured fault plan process-wide (so the
    # cache's disk-tier hooks see it); reply faults draw from the same plan.
    plan = service.fault_plan
    max_message_bytes = int(config.max_stream_bytes)
    control_thread = threading.Thread(
        target=_control_loop,
        args=(control_sock, worker_id, service, registry, max_message_bytes),
        name=f"{worker_id}-control",
        daemon=True,
    )
    control_thread.start()
    try:
        while True:
            try:
                message = recv_message(data_sock, max_message_bytes)
            except (OSError, FrameError):
                break
            if message is None:
                break
            header, arrays = message
            if header.get("kind") == "drain":
                # Leaving the fleet: persist resident galleries (the shared
                # root already holds every acked enroll — this covers any
                # other in-memory state), hand the router a final stats
                # snapshot to fold into its carried accumulator, then exit
                # the serve loop so the service closes before the router
                # joins the process.
                try:
                    send_message(
                        data_sock,
                        _reply(_drain_document(worker_id, service, registry)),
                    )
                except OSError:
                    pass
                break
            try:
                reply = _serve_data_op(header, arrays, service, registry)
            except Exception as exc:  # noqa: BLE001 - reported to the router
                reply = _error_reply(exc)
            if reply is None:
                # Shutdown op: acknowledge, then fall through to cleanup so
                # the router's join observes a fully-released worker.
                try:
                    send_message(data_sock, _reply({"worker_id": worker_id}))
                except OSError:
                    pass
                break
            try:
                if not _send_reply(data_sock, reply, plan):
                    break
            except OSError:
                break
    finally:
        service.close()
        for sock in (data_sock, control_sock):
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass


__all__ = ["recv_message", "send_message", "worker_main"]
