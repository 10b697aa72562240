"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import threading
import time
from collections import Counter

import numpy as np
import pytest

from perfbench import gen, layers, measure
from perfbench.openloop import OpenLoop, paced_dues, poisson_dues
from perfbench.spans import Span, Tracer, self_times


@pytest.fixture(scope="module")
def cohort():
    return gen.Cohort.make(0)


def _digest(scan) -> str:
    return hashlib.sha256(scan.timeseries.tobytes()).hexdigest()


def test_same_seed_gives_byte_identical_probes(cohort):
    first = gen.ProbeStream(cohort, seed=7)
    again = gen.ProbeStream(cohort, seed=7)
    for i in (0, 1, 500, len(first) - 1):
        assert _digest(first.probe(i)) == _digest(again.probe(i))
        assert first.probe(i).subject_id == again.probe(i).subject_id


def test_other_seed_gives_other_probe_bytes(cohort):
    a, b = gen.ProbeStream(cohort, seed=7), gen.ProbeStream(cohort, seed=8)
    assert all(_digest(a.probe(i)) != _digest(b.probe(i)) for i in range(20))


def test_stream_probes_are_fresh_and_hot_set_is_disjoint(cohort):
    stream = gen.ProbeStream(cohort, seed=3)
    fresh = {_digest(stream.probe(i)) for i in range(2000)}
    assert len(fresh) == 2000
    assert not fresh & {_digest(scan) for scan in stream.hot_set(8)}


def test_probe_is_base_scan_plus_small_noise(cohort):
    scan = gen.ProbeStream(cohort, seed=1).probe(0)
    base = next(b for b in cohort.probe_bases if b.subject_id == scan.subject_id)
    noise = scan.timeseries - base.timeseries
    assert 0 < noise.std() < 0.2 * base.timeseries.std()


def test_mixed_ops_fix_the_mix_per_block_and_follow_the_seed():
    def first(seed, count):
        ops = gen.mixed_ops(np.random.default_rng(seed), galleries=4, block=64, hot_set=8)
        return [next(ops) for _ in range(count)]

    ops = first(5, 3 * 64)
    for k in range(3):
        block = ops[64 * k:64 * (k + 1)]
        assert Counter(kind for kind, _, _ in block) == {"enroll": 1, "hot": 31, "fresh": 32}
        assert Counter(g for _, g, _ in block) == {0: 16, 1: 16, 2: 16, 3: 16}
        assert all(0 <= rank < 8 for _, _, rank in block)
    assert first(5, 3 * 64) == ops
    assert first(6, 3 * 64) != ops


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99.0, 10), (5000, 99.0, 50), (100, 90.0, 10), (50, 80.0, 10)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    samples = list(np.random.default_rng(0).permutation(np.arange(1.0, n + 1)))
    value, reached = measure.tail(samples)
    assert reached == pytest.approx(percentile)
    assert sum(s > value for s in samples) == beyond


def test_tail_falls_back_to_median_without_ten_samples_beyond():
    value, reached = measure.tail([5.0, 1.0, 3.0, 2.0, 4.0])
    assert value == 3.0 and reached == pytest.approx(60.0)


def _span(name, start, end, parent=None, sid=0, rid=None, pid=1):
    return Span(name, start, end, parent, rid, sid, pid)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("client", 0.0, 10.0, sid=1),
        _span("service.a", 1.0, 4.0, parent=1, sid=2),
        _span("batch.b", 2.0, 3.0, parent=2, sid=3),
        _span("cache.c", 5.0, 9.0, parent=1, sid=4),
        _span("cache.d", 8.0, 9.5, parent=1, sid=5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (3.0 + 4.5))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    shares = layers.attribute(spans)
    assert shares["unattributed_s"] == pytest.approx(2.5)
    assert shares["per_layer_s"]["service.service"] == pytest.approx(2.0)
    assert shares["per_layer_s"]["runtime.cache"] == pytest.approx(4.0 + 1.5)


def test_tracer_nests_calls_and_links_other_processes():
    tracer = Tracer()

    class Request:
        request_id = "r1"

    def inner():
        time.sleep(0.002)

    def outer(request):
        inner_wrapped()

    inner_wrapped = lambda: tracer.call("batch.inner", inner, (), {})  # noqa: E731
    tracer.call("client", outer, (Request(),), {})
    inner_span, root = tracer.spans
    assert inner_span.parent == root.sid and inner_span.rid == "r1"
    # A span of the same request in another process nests under the
    # innermost local span that contains it.
    worker = _span("service.identify", inner_span.start, inner_span.end, sid=99, rid="r1", pid=-1)
    result = layers.attribute(tracer.spans + [worker])
    assert worker.parent == inner_span.sid
    assert result["per_layer_s"]["service.service"] > 0.0015
    assert result["per_layer_s"]["runtime.batch"] < 0.0005


def test_open_loop_latency_counts_from_due_time():
    """A sender stalled on request 0 makes every request due during the
    stall late; their latency includes the wait, not just send-to-reply."""
    stall = 0.05

    class StallingConnection:
        def __init__(self, loop):
            self.pending = []
            self.loop = loop
            self.calls = 0

        def send(self, payload):
            if self.calls == 0:
                time.sleep(stall)
            self.calls += 1
            record = self.pending.pop(0)
            record.received = record.done = time.perf_counter()
            self.loop.complete(record)

    loop = OpenLoop(lambda i: b"x")
    loop.connections = [StallingConnection(loop)]
    start = time.perf_counter() + 0.01
    dues = [start + 0.01 * k for k in range(5)]
    records = loop.run(dues, first=0)
    assert loop.drain(timeout=1.0)
    for record in records[1:4]:
        send_to_reply = record.done - record.sent
        assert send_to_reply < 0.01
        assert record.latency >= stall - (record.due - records[0].due) - 0.002
    assert records[1].lag > 0.03


def test_saturate_keeps_depth_requests_in_flight_per_connection():
    lock = threading.Lock()
    in_flight = peak = 0

    class DelayedConnection:
        def __init__(self, loop):
            self.pending = []
            self.loop = loop

        def send(self, payload):
            nonlocal in_flight, peak
            record = self.pending[-1]
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            threading.Timer(0.002, self.finish, (record,)).start()

        def finish(self, record):
            nonlocal in_flight
            with lock:
                in_flight -= 1
                self.pending.remove(record)
            record.done = time.perf_counter()
            self.loop.complete(record)

    loop = OpenLoop(lambda i: b"x")
    loop.connections = [DelayedConnection(loop), DelayedConnection(loop)]
    records = loop.saturate(depth=3, seconds=0.1, first=0)
    assert loop.drain(timeout=2.0)
    assert peak == 6 and len(records) > 6
    assert all(record.done >= record.sent >= record.due for record in records)


def test_poisson_schedule_is_seeded_and_bounded():
    a = poisson_dues(np.random.default_rng(1), 500.0, 2.0, 10.0)
    b = poisson_dues(np.random.default_rng(1), 500.0, 2.0, 10.0)
    assert a == b and 800 < len(a) < 1200
    assert 10.0 < a[0] and a[-1] < 12.0 and a == sorted(a)


def test_paced_schedule_is_evenly_spaced_and_bounded():
    dues = paced_dues(100.0, 2.0, 10.0)
    assert len(dues) == 199 and dues[0] == 10.01 and dues[-1] < 12.0
    assert np.allclose(np.diff(dues), 0.01)


def test_tracer_is_thread_local():
    tracer = Tracer()

    def work(name):
        tracer.call("client", lambda: tracer.call(name, time.sleep, (0.001,), {}), (), {})

    threads = [threading.Thread(target=work, args=(f"cache.t{k}",)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    roots = {s.sid: s for s in tracer.spans if s.name == "client"}
    children = [s for s in tracer.spans if s.name != "client"]
    assert len(roots) == 4 and all(c.parent in roots for c in children)
    assert len({c.parent for c in children}) == 4
