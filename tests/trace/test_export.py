"""Exporters: Chrome trace JSON, text summary, traffic report."""

import io
import json

import numpy as np

from repro import mpi, trace
from repro.teuchos import TimeMonitor
from repro.trace import (chrome_trace_events, summary, traffic_report,
                         write_chrome_trace)
from tests.conftest import spmd


class TestChromeTrace:
    def test_metadata_names_rank_lanes(self, tracer):
        tracer.instant("t", "a", rank=1)
        tracer.instant("t", "b", rank="driver")
        events = chrome_trace_events(tracer)
        meta = [e for e in events if e["ph"] == "M"
                and e["name"] == "thread_name"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"rank 1", "driver"}
        # integer ranks take the first timeline rows
        by_name = {e["args"]["name"]: e["tid"] for e in meta}
        assert by_name["rank 1"] < by_name["driver"]

    def test_span_event_microsecond_fields(self, tracer):
        with tracer.span("cat", "work", rank=0, n=2):
            pass
        ev = [e for e in chrome_trace_events(tracer)
              if e["ph"] == "X"][0]
        assert ev["cat"] == "cat" and ev["name"] == "work"
        assert ev["ts"] >= 0 and ev["dur"] >= 0  # microseconds
        assert ev["args"] == {"n": 2}

    def test_instant_event_scope(self, tracer):
        tracer.instant("cat", "mark", rank=0)
        ev = [e for e in chrome_trace_events(tracer)
              if e["ph"] == "i"][0]
        assert ev["s"] == "t" and "dur" not in ev

    def test_write_produces_valid_json(self, tracer):
        with tracer.span("cat", "work", rank=0):
            pass
        buf = io.StringIO()
        n = write_chrome_trace(buf, tracer)
        payload = json.loads(buf.getvalue())
        assert len(payload["traceEvents"]) == n > 0
        assert payload["displayTimeUnit"] == "ms"

    def test_events_sorted_by_timestamp_within_lane(self, tracer):
        # record out of global order across two lanes: completion order
        # is inner-before-outer, but the export must stream each lane in
        # timestamp order for Perfetto's nesting reconstruction
        t0 = tracer.now()
        with tracer.span("cat", "outer", rank=0):
            with tracer.span("cat", "inner", rank=0):
                pass
        tracer.complete("cat", "late", 1, t0)
        events = [e for e in chrome_trace_events(tracer)
                  if e["ph"] == "X"]
        for tid in {e["tid"] for e in events}:
            ts = [e["ts"] for e in events if e["tid"] == tid]
            assert ts == sorted(ts)
        lane0 = [e["name"] for e in events if e["tid"] == 0]
        # equal-timestamp ties break longer-span-first: the enclosing
        # span precedes the child it starts simultaneously with
        assert lane0.index("outer") < lane0.index("inner")


class TestSummary:
    def test_empty(self, tracer):
        text = summary(tracer, merge_time_monitor=False)
        assert "no trace spans" in text

    def test_per_rank_blocks_and_totals(self, tracer):
        with tracer.span("solve", "cg", rank=0):
            pass
        with tracer.span("solve", "cg", rank=1):
            pass
        text = summary(tracer, merge_time_monitor=False)
        assert "-- rank 0 --" in text and "-- rank 1 --" in text
        assert "solve:cg" in text

    def test_merges_time_monitor(self, tracer):
        TimeMonitor.clear()
        with TimeMonitor("named phase"):
            pass
        text = summary(tracer)
        assert "TimeMonitor" in text and "named phase" in text
        TimeMonitor.clear()


class TestTrafficReport:
    def test_per_peer_bidirectional_lines(self):
        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.zeros(16), dest=right)
            comm.recv(source=left)
            return comm.context.world
        world = spmd(3)(body)[0]
        text = traffic_report(world)
        assert "bytes sent" in text and "bytes recvd" in text
        # every rank sent to and received from a neighbor
        assert "->" in text and "<-" in text

    def test_comm_time_column_with_tracer(self, tracer):
        def body(comm):
            comm.barrier()
            return comm.context.world
        world = spmd(2)(body)[0]
        text = traffic_report(world, tracer)
        assert "comm time (s)" in text

    def test_accepts_snapshot_sequence(self):
        from repro.mpi.counters import CommCounters
        c = CommCounters()
        c.record_send(1, 100)
        c.record_recv(1, 50)
        text = traffic_report([c.snapshot()])
        assert "-> 1:" in text and "<- 1:" in text

    def test_includes_rank_by_rank_matrix(self):
        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.zeros(16), dest=right)
            comm.recv(source=left)
            return comm.context.world
        world = spmd(3)(body)[0]
        text = traffic_report(world)
        assert "row = source rank" in text


class TestCounterMatrix:
    def test_reconciles_both_wire_ends(self):
        from repro.mpi.counters import CommCounters, CounterSnapshot
        c0, c1 = CommCounters(), CommCounters()
        c0.record_send(1, 100)
        c1.record_recv(0, 100)   # same transfer, receiver side
        c1.record_send(0, 40)    # counted on one end only
        mat = CounterSnapshot.matrix([c0.snapshot(), c1.snapshot()])
        assert mat.shape == (2, 2)
        assert mat[0, 1] == 100  # not double-counted
        assert mat[1, 0] == 40   # still visible from the single end
        assert mat[0, 0] == mat[1, 1] == 0

    def test_explicit_nranks_pads(self):
        from repro.mpi.counters import CommCounters, CounterSnapshot
        c = CommCounters()
        c.record_send(1, 8)
        mat = CounterSnapshot.matrix([c.snapshot()], nranks=4)
        assert mat.shape == (4, 4) and mat[0, 1] == 8


class TestLayerIntegration:
    """The instrumentation hooks produce events from every layer."""

    def test_mpi_collectives_tagged_by_algorithm(self, tracer):
        def body(comm):
            comm.bcast(comm.rank, root=0)
            comm.allreduce(1)
            comm.barrier()
            return None
        spmd(3)(body)
        colls = {ev[2]: ev[6] for ev in tracer.events()
                 if ev[1] == "mpi.coll"}
        assert colls["bcast"]["algorithm"] == "binomial-tree"
        assert colls["barrier"]["algorithm"] == "dissemination"
        assert "allreduce" in colls

    def test_mpi_p2p_send_recv_events(self, tracer):
        def body(comm):
            if comm.rank == 0:
                comm.send(b"x" * 32, dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return None
        spmd(2)(body)
        p2p = [ev for ev in tracer.events() if ev[1] == "mpi.p2p"]
        names = {ev[2] for ev in p2p}
        assert "send" in names and "recv" in names

    def test_odin_layers_and_solver_iterations(self, tracer):
        from repro import odin
        from repro.odin.context import OdinContext
        with OdinContext(2) as ctx:
            x = odin.arange(64, ctx=ctx)
            y = odin.sin(x) + x
            assert float(y.sum()) != 0.0
            b = odin.ones(32, ctx=ctx)
            _xs, info = odin.trilinos.solve(
                "Laplace1D", b, matrix_params={"n": 32},
                solver="CG", tol=1e-10)
            assert info["converged"]
        cats = {ev[1] for ev in tracer.events()}
        assert {"odin.control", "odin.worker",
                "solver.krylov"} <= cats
        # the driver control plane is its own timeline lane
        assert any(ev[3] == "driver" for ev in tracer.events()
                   if ev[1] == "odin.control")
        # per-iteration spans carry residual norms
        iters = [ev for ev in tracer.events() if ev[2] == "cg.iter"]
        assert iters and all("resid" in ev[6] for ev in iters)
        resids = [ev[6]["resid"] for ev in iters]
        assert resids[-1] <= 1e-10

    def test_nox_newton_iteration_events(self, tracer):
        from repro import solvers, tpetra
        from repro.teuchos import ParameterList

        def body(comm):
            m = tpetra.Map.create_contiguous(8, comm)

            def residual(x):
                r = tpetra.Vector(m)
                r.local_view[...] = x.local_view ** 2 - 4.0
                return r

            res = solvers.NewtonSolver(
                residual,
                params=ParameterList().set("Line Search", "Backtrack")
            ).solve(tpetra.Vector(m).putScalar(3.0))
            return res.converged
        assert all(spmd(2)(body))
        newton = [ev for ev in tracer.events()
                  if ev[1] == "solver.nox" and ev[2] == "newton.iter"]
        assert newton and all("fnorm" in ev[6] for ev in newton)
