"""``http_open``: an open loop of binary-codec ``POST /identify`` over two
pipelined keep-alive connections, against a server in its own process on
a CPU of its own.

The loop offers a fixed ladder of arrival rates, the same on every commit,
each after the previous one's backlog drained.  The first (nominal) rate is
paced evenly, gets most of the measured time and gives the latency metrics:
without Poisson bursts no request queues behind another, so its median is
the latency of one request rather than of a queue whose length swings with
the host's speed.  The higher rates arrive as Poisson processes, which is
where requests coalesce.
``sustained_rps`` is the highest rate that meets the latency limit without a
growing backlog.  The last part (``SATURATE_SHARE``) keeps a fixed number of
requests in flight and measures the server's capacity (``identify_rps``).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import IdentifyRequest, ServiceClient
from repro.service.codec import CONTENT_TYPE_BINARY, encode_identify_frames
from repro.service.messages import IdentifyResponse

from perfbench import gen, measure, procs
from perfbench.common import Phase, check_teardown, same_answer, timed_setups
from perfbench.openloop import (
    HttpConnection,
    OpenLoop,
    completed_rps,
    paced_dues,
    poisson_dues,
    step_sustained,
)
from perfbench.spans import Tracer, load_dumps

GALLERY = "g"
CONNECTIONS = 2
#: Offered rates (requests/s); the first is the nominal rate, low enough
#: that a host busy with other work rarely queues it, the last above what
#: the server completes on its one CPU (about 1000/s on a 2.1 GHz Xeon).
LADDER = (100, 300, 600, 900, 1200)
#: Shares of the measured time at the nominal rate and at saturation; the
#: other rates share the rest.
NOMINAL_SHARE = 0.5
SATURATE_SHARE = 0.35
#: Requests in flight per connection at saturation.
DEPTH = 8
#: Latency limit on the tail percentile of a sustained rate.
LIMIT_S = 0.050
WARMUP = 32
HEALTHZ_PINGS = 50
START_TIMEOUT_S = 60.0


def _decode(body: bytes) -> IdentifyResponse:
    return IdentifyResponse.from_dict(json.loads(body))


def _split_cpus():
    """Give the server a CPU of its own and this process the others, so the
    scheduler does not place server and generator differently on every run.
    Returns the server's CPU, or ``None`` with fewer than two CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, cpus[1:])
    return cpus[0]


class Server:
    """The server process and the gallery it serves."""

    def __init__(self, work: Path, gallery_dir: Path, spans_dir: Path = None, cpu: int = None):
        command = [sys.executable, "-m", "perfbench.server", "--gallery", str(gallery_dir)]
        if spans_dir is not None:
            command += ["--spans", str(spans_dir)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self.process = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class HttpOpen:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cohort = gen.Cohort.make(0)
        self.stream = gen.ProbeStream(self.cohort, seed)
        self.warm = gen.ProbeStream(self.cohort, seed, stream=1)
        self.spans_dir = None
        self.server_cpu = _split_cpus()

    def _setup(self) -> Server:
        gallery = ReferenceGallery.from_scans(
            self.cohort.gallery_scans, n_features=gen.N_FEATURES, cache=ArtifactCache()
        )
        gallery.save(self.work / GALLERY)
        server = Server(self.work, self.work / GALLERY, self.spans_dir, self.server_cpu)
        with ServiceClient(port=server.port, codec="binary") as client:
            for i in range(WARMUP):
                client.identify(gallery=GALLERY, scans=[self.warm.probe(i)])
        return server

    def _payload(self, i: int, sizes: list, encodes: list) -> bytes:
        request = IdentifyRequest(gallery=GALLERY, scans=[self.stream.probe(i)], request_id=f"h{i}")
        start = time.perf_counter()
        frames = encode_identify_frames(request)
        encodes.append((start, time.perf_counter(), request.request_id))
        body = b"".join(frames)
        sizes.append(len(body))
        head = (
            "POST /identify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {CONTENT_TYPE_BINARY}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        return head + body

    def phase(self, seconds: float, repeats: int, traced: bool, first: int = 0) -> Phase:
        phase = Phase()
        shm_before = procs.shm_segments()
        if traced:
            self.spans_dir = self.work / "spans"
            self.spans_dir.mkdir(exist_ok=True)
        server, phase.setup_s = timed_setups(self._setup, Server.stop, repeats)
        with ServiceClient(port=server.port) as client:
            healthz = []
            for _ in range(HEALTHZ_PINGS):
                start = time.perf_counter()
                client.healthz()
                healthz.append(time.perf_counter() - start)

        sizes, encodes = [], []
        loop = OpenLoop(lambda i: self._payload(i, sizes, encodes))
        loop.connections = [
            HttpConnection("127.0.0.1", server.port, _decode, loop.complete)
            for _ in range(CONNECTIONS)
        ]
        rng = np.random.default_rng([self.seed, 2])
        steps, index = [], first
        measured_from = time.perf_counter()
        rest = seconds * (1.0 - NOMINAL_SHARE - SATURATE_SHARE) / (len(LADDER) - 1)
        step_seconds = [seconds * NOMINAL_SHARE] + [rest] * (len(LADDER) - 1)
        for rate, duration in zip(LADDER, step_seconds):
            start = time.perf_counter() + 0.02
            dues = (paced_dues(rate, duration, start) if rate == LADDER[0]
                    else poisson_dues(rng, rate, duration, start))
            records = loop.run(dues, index)
            index += len(records)
            drained = loop.drain(timeout=30.0)
            phase.note(drained, f"rate {rate}/s: responses still missing after 30 s")
            steps.append({
                "rate": rate,
                "records": records,
                "completed_rps": completed_rps(records, start, start + duration),
                "sustained": drained and step_sustained(records, LIMIT_S),
            })
        start, duration = time.perf_counter(), seconds * SATURATE_SHARE
        saturated = loop.saturate(DEPTH, duration, index)
        index += len(saturated)
        phase.note(loop.drain(timeout=30.0), "saturation: responses still missing after 30 s")
        capacity = completed_rps(saturated, start, start + duration)
        phase.wall_s = time.perf_counter() - measured_from
        for connection in loop.connections:
            connection.close()
        phase.rss_mb = procs.family_peak_rss_mb()
        with ServiceClient(port=server.port) as client:
            stats = client.stats()
        server.stop()
        check_teardown(phase, shm_before)

        nominal = steps[0]["records"]
        phase.identify_s = [r.latency for r in nominal]
        passing = [step["rate"] for step in steps if step["sustained"]]
        offered = [r for step in steps for r in step["records"]]
        every = offered + saturated
        phase.extra.update({
            "identify_rps": capacity,
            "cache_kinds": stats.cache_kinds,
            "next_probe": index,
            "notes": {
                "ladder (rate: completed/s, sustained)": ", ".join(
                    f"{s['rate']}: {s['completed_rps']:.0f} {s['sustained']}" for s in steps
                ),
                f"saturation with {DEPTH * CONNECTIONS} in flight (completed/s)": f"{capacity:.0f}",
            },
            "layer_metrics": {
                "sustained_rps": max(passing) if passing else 0.0,
                "http.healthz_rtt_ms": 1e3 * float(np.median(healthz)),
                "codec.request_bytes": float(np.mean(sizes)),
                "loadgen.lag_p99_ms": 1e3 * measure.tail([r.lag for r in offered])[0],
                **self._overheads(nominal),
            },
        })
        if traced:
            phase.extra["traced_metrics"] = self._traced(phase, nominal, encodes)
        self._check(phase, every)
        return phase

    @staticmethod
    def _overheads(records) -> dict:
        """Client latency minus the server's in-batch time."""
        overhead = [
            (r.received - r.sent) - r.response.timings.get("batch_s", 0.0)
            for r in records if r.response is not None
        ]
        return {
            "http.overhead_p50_ms": 1e3 * float(np.median(overhead)),
            "http.overhead_p99_ms": 1e3 * measure.tail(overhead)[0],
        }

    def _traced(self, phase: Phase, nominal, encodes) -> dict:
        """Client spans of the nominal step joined with the server's spans.

        A probe is encoded before it is due, so the encode span lies outside
        the request's latency; it still counts in ``codec.encode_ms``.
        """
        tracer = Tracer()
        rids = {r.response.request_id for r in nominal}
        for start, end, rid in encodes:
            if rid in rids:
                tracer.record("codec.encode", start, end, rid=rid)
        for r in nominal:
            rid = r.response.request_id
            root = tracer.record("client", r.due, r.done, rid=rid)
            tracer.record("loadgen.lag", r.due, r.sent, rid=rid, parent=root.sid)
            tracer.record("http.inflight", r.sent, r.received, rid=rid, parent=root.sid)
            tracer.record("codec.decode", r.received, r.done, rid=rid, parent=root.sid)
        start, end = nominal[0].due, nominal[-1].done
        server_spans = [s for s in load_dumps(self.spans_dir) if start <= s.start and s.end <= end]
        phase.spans = tracer.spans + server_spans
        queue = {}
        for span in server_spans:
            if span.name == "service.identify_async":
                queue[span.rid] = span.end - span.start
        waits = [
            queue[r.response.request_id] - r.response.timings.get("batch_s", 0.0)
            for r in nominal if r.response.request_id in queue
        ]
        return {
            "batcher.queue_wait_p50_ms": 1e3 * float(np.median(waits)) if waits else 0.0,
            "batcher.queue_wait_p99_ms": 1e3 * measure.tail(waits)[0] if waits else 0.0,
        }

    def _check(self, phase: Phase, records) -> None:
        oracle = ReferenceGallery.load(self.work / GALLERY, cache=ArtifactCache())
        for r in records:
            phase.attempted += 1
            response = r.response
            if r.status != 200 or response is None or not response.ok:
                phase.failed += 1
                continue
            phase.timings.append(response.timings)
            phase.batch_sizes.append(response.batch_size)
            scan = self.stream.probe(r.index)
            phase.fresh += 1
            phase.fresh_top1 += response.predicted_subject_ids[0] == scan.subject_id
            if not same_answer(response, oracle.identify([scan])):
                phase.problems.append(f"probe {r.index}: response differs from serial identify")
