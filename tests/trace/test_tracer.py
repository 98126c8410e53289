"""Core Tracer behavior: events, rank attribution, disabled path."""

import time

from repro import trace
from repro.trace import NULL_SPAN, TRACER
from tests.conftest import spmd


class TestDisabled:
    def test_span_is_shared_null_object(self):
        TRACER.disable()
        assert TRACER.span("cat", "name") is NULL_SPAN
        with TRACER.span("cat", "name") as sp:
            sp.add_args(ignored=1)
        assert TRACER.events() == []

    def test_module_instant_is_noop(self):
        TRACER.disable()
        trace.instant("cat", "marker", detail=1)
        assert TRACER.events() == []


class TestEmit:
    def test_span_records_complete_event(self, tracer):
        with tracer.span("test", "work", rank=7, items=3):
            time.sleep(0.002)
        (ph, cat, name, rank, ts, dur, args), = tracer.events()
        assert (ph, cat, name, rank) == ("X", "test", "work", 7)
        assert dur >= 0.002
        assert args == {"items": 3}

    def test_add_args_from_inside_span(self, tracer):
        with tracer.span("test", "work", rank=0) as sp:
            sp.add_args(result=42)
        event = tracer.events()[0]
        assert event[6] == {"result": 42}

    def test_begin_complete_pair(self, tracer):
        t0 = tracer.now()
        time.sleep(0.002)
        tracer.complete("test", "hot", 1, t0, nbytes=64)
        (_ph, _cat, name, rank, ts, dur, args), = tracer.events()
        assert name == "hot" and rank == 1
        assert abs(ts - t0) < 1e-9 and dur >= 0.002
        assert args == {"nbytes": 64}

    def test_instant_event(self, tracer):
        tracer.instant("test", "marker", rank=2, hit=True)
        (ph, _cat, name, rank, _ts, dur, args), = tracer.events()
        assert ph == "i" and name == "marker" and rank == 2
        assert dur == 0.0 and args == {"hit": True}

    def test_events_sorted_by_timestamp(self, tracer):
        for i in range(5):
            tracer.instant("test", f"e{i}", rank=0)
        stamps = [ev[4] for ev in tracer.events()]
        assert stamps == sorted(stamps)

    def test_clear_drops_events_and_timers(self, tracer):
        with tracer.span("test", "work", rank=0):
            pass
        tracer.clear()
        assert tracer.events() == [] and tracer.span_timers() == {}

    def test_nested_spans_same_key_are_safe(self, tracer):
        # re-entrant span on the same (rank, cat:name) exercises the
        # nested-start Time semantics: only the outer activation counts
        with tracer.span("test", "outer_inner", rank=0):
            with tracer.span("test", "outer_inner", rank=0):
                time.sleep(0.001)
        assert len(tracer.events()) == 2
        timer = tracer.span_timers()[(0, "test:outer_inner")]
        assert timer.calls == 1 and timer.total >= 0.001


class TestRankAttribution:
    def test_main_thread_falls_back_to_label(self, tracer):
        tracer.instant("test", "from-main")
        assert tracer.events()[0][3] == "main"

    def test_spmd_threads_attributed_by_world_rank(self, tracer):
        def body(comm):
            trace.instant("test", "tick", r=comm.rank)
            return comm.rank
        spmd(3)(body)
        ranks = sorted(ev[3] for ev in tracer.events()
                       if ev[2] == "tick")
        assert ranks == [0, 1, 2]
        for ev in tracer.events():
            if ev[2] == "tick":
                assert ev[6]["r"] == ev[3]

    def test_unbind_restores_fallback(self, tracer):
        def body(comm):
            return None
        spmd(2)(body)
        # after the SPMD region the (dead) worker threads are unbound;
        # the main thread never was bound
        tracer.instant("test", "after")
        assert tracer.events()[-1][3] == "main"


class TestSpanTimers:
    def test_accumulate_across_calls(self, tracer):
        for _ in range(4):
            with tracer.span("phase", "step", rank=0):
                pass
        timer = tracer.span_timers()[(0, "phase:step")]
        assert timer.calls == 4 and timer.total >= 0.0

    def test_complete_updates_timers_too(self, tracer):
        t0 = tracer.now()
        tracer.complete("phase", "hot", 0, t0)
        timer = tracer.span_timers()[(0, "phase:hot")]
        assert timer.calls == 1


class TestModuleApi:
    def test_enable_disable_roundtrip(self):
        trace.set_enabled(True)
        assert trace.enabled()
        trace.disable()
        assert not trace.enabled()

    def test_get_tracer_is_singleton(self):
        assert trace.get_tracer() is TRACER
