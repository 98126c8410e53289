"""The one event recorder: single emission, bounded buffers, clean
shutdowns that leave no fault behind."""

import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import odin
from repro.chaos.__main__ import main as chaos_main
from repro.mpi.errors import AbortError, RankFailure
from repro.odin import opcodes
from repro.odin.context import OdinContext
from repro.trace import TRACER
from repro.trace.analyze import load_chrome_trace
from repro.trace.export import chrome_trace_events
from repro.trace.tracer import Tracer


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_clean_shutdown_records_no_fault(backend, flight, tmp_path,
                                         monkeypatch):
    dump = tmp_path / "dump.json"
    monkeypatch.setenv("REPRO_OBS_DUMP", str(dump))
    for _ in range(2):
        with OdinContext(2, backend=backend) as ctx:
            np.asarray(odin.array(np.arange(8.0), ctx=ctx) * 2.0)
    assert flight.last_fault is None
    assert not dump.exists()


def test_process_worker_sigkill_is_still_a_rank_failure(flight, tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DUMP", str(tmp_path / "dump.json"))
    ctx = OdinContext(2, backend="process", timeout=30.0)
    try:
        x = odin.arange(100, ctx=ctx, dtype=np.float64)
        assert x.gather().shape == (100,)
        os.kill(ctx.worker_pids()[0], signal.SIGKILL)
        with pytest.raises((RankFailure, AbortError)):
            for _ in range(5):  # the first op may ride a live socket
                odin.sqrt(x).gather()
    finally:
        ctx.shutdown()
    assert flight.last_fault["kind"] == "RankFailure"
    assert (tmp_path / "dump.json").exists()


@odin.local
def _unpicklable_on_second_worker(x):
    return float(x.sum()) if odin.worker_index() == 0 else threading.Lock()


def test_process_worker_error_outside_an_op_is_a_prompt_rank_failure(
        flight, tmp_path, monkeypatch):
    """A worker whose result gather raises (outside ``execute_op``)
    leaves its loop abnormally: it must not say BYE, so the driver sees
    its EOF as a failure at once instead of waiting out the timeout."""
    monkeypatch.setenv("REPRO_OBS_DUMP", str(tmp_path / "dump.json"))
    ctx = OdinContext(2, backend="process", timeout=60.0)
    try:
        x = odin.arange(100, ctx=ctx, dtype=np.float64)
        t0 = time.monotonic()
        with pytest.raises(RankFailure):
            _unpicklable_on_second_worker(x)
        assert time.monotonic() - t0 < 10.0
    finally:
        ctx.shutdown()
    assert flight.last_fault["kind"] == "RankFailure"


def test_buffers_stay_at_peak_thread_concurrency():
    def run():
        with OdinContext(2) as ctx:
            np.asarray(odin.array(np.arange(8.0), ctx=ctx) + 1.0)

    for _ in range(2):
        run()
    after_two = len(TRACER._buffers)
    for _ in range(18):
        run()
    assert len(TRACER._buffers) <= after_two


@pytest.mark.parametrize("enabled", [True, False])
def test_thread_churn_keeps_events_and_bounds_buffers(enabled):
    """Waves of short-lived threads record while a reader exports: with
    tracing on no event is lost, with it off each buffer keeps its
    newest events, and exited threads' buffers are reused either way."""
    rec = Tracer(enabled=enabled, capacity=50)
    waves, width, per_thread = 3, 8, 200
    stop = threading.Event()

    def work(k):
        for i in range(per_thread):
            rec.instant("t", "e", rank=k, i=i)

    def read():
        while not stop.is_set():
            rec.events()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    reader = threading.Thread(target=read)
    reader.start()
    try:
        for wave in range(waves):
            threads = [threading.Thread(target=work, args=(wave * width + j,))
                       for j in range(width)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        stop.set()
        reader.join(timeout=30)
        sys.setswitchinterval(old)
    assert not reader.is_alive()
    assert len(rec._buffers) <= width
    by_rank = {}
    for ev in rec.events():
        by_rank.setdefault(ev[3], []).append(ev[6]["i"])
    if enabled:
        assert len(by_rank) == waves * width
        assert all(v == list(range(per_thread)) for v in by_rank.values())
    else:
        # each (possibly reused) window holds the newest 50 events
        assert sum(map(len, by_rank.values())) <= 50 * len(rec._buffers)
        assert all(v == list(range(per_thread - len(v), per_thread))
                   for v in by_rank.values())


def test_coarse_site_emits_one_event_with_tracing_on(tracer, tmp_path):
    with OdinContext(2) as ctx:
        x = odin.array(np.arange(8.0), ctx=ctx)
        ctx.flush()
        tracer.clear()
        np.asarray(x)  # one synchronizing GATHER
        path = tracer.dump(str(tmp_path / "flight.json"))

    def gathers(events):
        return [ev for ev in events if ev[0] == "X"
                and ev[1] == "odin.control"
                and ev[2] == str(opcodes.GATHER)]

    dumped = gathers(load_chrome_trace(path))
    exported = [ev for ev in chrome_trace_events(tracer)
                if ev["ph"] == "X" and ev["cat"] == "odin.control"
                and ev["name"] == str(opcodes.GATHER)]
    assert len(dumped) == 1 and len(exported) == 1
    assert dumped[0][6]["op_id"] == exported[0]["args"]["op_id"]


def test_chaos_repro_dump_keeps_exited_rank_events(flight, tmp_path,
                                                   capsys):
    out = tmp_path / "repro.json"
    code = chaos_main(["--seed", "1235", "--programs", "1",
                       "--nranks", "3", "--chaos", "crash", "--strict",
                       "--no-shrink", "--repro-out", str(out)])
    assert code == 1
    artifact = json.loads(out.read_text())
    events = load_chrome_trace(artifact["flight_dump"])
    assert any(ev[1] == "obs.fault" for ev in events)
    assert {1, 2} <= {ev[3] for ev in events if ev[1] == "mpi.coll"}


@pytest.mark.parametrize("capacity", [4, 0])
def test_switching_tracing_off_keeps_the_trace(capacity):
    rec = Tracer(enabled=True, capacity=capacity)
    for i in range(20):
        rec.instant("t", "e", rank=0, i=i)
    rec.disable()
    assert [ev[6]["i"] for ev in rec.events()] == list(range(20))
    for i in range(20, 30):  # after the switch: the bounded window
        rec.instant("t", "e", rank=0, i=i)
    kept = list(range(20)) + list(range(30 - capacity, 30))
    assert [ev[6]["i"] for ev in rec.events()] == kept
    rec.clear()
    assert rec.events() == []


def test_span_timers_count_overlapping_spans_of_other_threads():
    rec = Tracer(enabled=True)
    both_started = threading.Barrier(2)

    def driver():
        t0 = rec.now()
        both_started.wait(timeout=30)
        rec.complete("odin.control", "op", "driver", t0)

    threads = [threading.Thread(target=driver) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert rec.span_timers()[("driver", "odin.control:op")].calls == 2
