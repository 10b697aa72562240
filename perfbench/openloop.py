"""Open-loop load generation: requests are sent when due, whether or not
earlier ones have finished, and timed from when they were due."""

from __future__ import annotations

import collections
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from perfbench.measure import tail


@dataclass
class Record:
    index: int
    due: float
    sent: float = 0.0
    received: float = 0.0
    done: float = 0.0
    status: int = 0
    response: Any = None

    @property
    def latency(self) -> float:
        """Completion minus *due* time: a stalled sender charges its stall to
        every request scheduled behind it."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def poisson_dues(rng: np.random.Generator, rate: float, seconds: float, start: float) -> List[float]:
    """Arrival times of a Poisson process of ``rate`` over ``seconds``."""
    dues, t = [], start
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= start + seconds:
            return dues
        dues.append(t)


def paced_dues(rate: float, seconds: float, start: float) -> List[float]:
    """Evenly spaced arrivals at ``rate`` over ``seconds``: an open loop
    whose requests never arrive in bursts, so none queues behind another."""
    return [start + k / rate for k in range(1, int(seconds * rate))]


class HttpConnection:
    """One keep-alive connection: pipelined sends, an in-order reader thread."""

    def __init__(self, host: str, port: int, decode: Callable[[bytes], Any], complete):
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending: collections.deque = collections.deque()
        self._decode = decode
        self._complete = complete
        self._stream = self.sock.makefile("rb")
        self._reader = threading.Thread(target=self._read, name="openloop-reader", daemon=True)
        self._reader.start()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def _read(self) -> None:
        stream = self._stream
        while True:
            try:
                status_line = stream.readline()
                if not status_line:
                    return
                length = 0
                while True:
                    line = stream.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = stream.read(length)
            except (OSError, ValueError):
                return
            received = time.perf_counter()
            record = self.pending.popleft()
            record.received = received
            record.status = int(status_line.split()[1])
            record.response = self._decode(body)
            record.done = time.perf_counter()
            self._complete(record)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(timeout=10.0)
        self._stream.close()
        self.sock.close()


class OpenLoop:
    """Send ``prepare(i)`` over the connections: at each due time (:meth:`run`)
    or whenever a slot frees (:meth:`saturate`)."""

    def __init__(self, prepare: Callable[[int], bytes]):
        self.prepare = prepare
        self.connections: Sequence = ()
        self._outstanding = 0
        self._cond = threading.Condition()

    def complete(self, record: Record) -> None:
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def run(self, dues: Sequence[float], first: int) -> List[Record]:
        records = []
        for k, due in enumerate(dues):
            payload = self.prepare(first + k)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = Record(first + k, due)
            self._send(self.connections[k % len(self.connections)], record, payload)
            records.append(record)
        return records

    def saturate(self, depth: int, seconds: float, first: int) -> List[Record]:
        """Closed loop for ``seconds``: keep ``depth`` requests in flight per
        connection, each due when its slot frees."""
        records = []
        limit = depth * len(self.connections)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            payload = self.prepare(first + len(records))
            with self._cond:
                if not self._cond.wait_for(lambda: self._outstanding < limit, timeout=30.0):
                    raise TimeoutError(f"no response within 30 s with {limit} in flight")
            record = Record(first + len(records), time.perf_counter())
            self._send(min(self.connections, key=lambda c: len(c.pending)), record, payload)
            records.append(record)
        return records

    def _send(self, connection, record: Record, payload: bytes) -> None:
        with self._cond:
            self._outstanding += 1
        connection.pending.append(record)
        record.sent = time.perf_counter()
        connection.send(payload)

    def drain(self, timeout: float) -> bool:
        """Wait until every sent request completed."""
        with self._cond:
            return self._cond.wait_for(lambda: self._outstanding == 0, timeout)


def completed_rps(records: Sequence[Record], start: float, end: float) -> float:
    """Completions per second among those inside ``[start, end]``."""
    done = sorted(r.done for r in records if start <= r.done <= end)
    return (len(done) - 1) / (done[-1] - done[0]) if len(done) > 1 else 0.0


def step_sustained(records: Sequence[Record], limit_s: float) -> Optional[bool]:
    """A rate is sustained when the tail latency stays under ``limit_s`` and
    the backlog does not grow (the last quarter is not slower than twice
    the first quarter plus a millisecond)."""
    if len(records) < 8:
        return None
    latencies = [record.latency for record in records]
    quarter = len(latencies) // 4
    first = float(np.median(latencies[:quarter]))
    last = float(np.median(latencies[-quarter:]))
    return tail(latencies)[0] <= limit_s and last <= 2.0 * first + 1e-3
