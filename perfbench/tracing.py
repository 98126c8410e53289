"""Benchmark-side span tracing: wrappers around each layer's entry points.

Nothing in the program changes.  :func:`install` replaces public entry
points of every layer with wrappers that record one span per call; the
names say which layer a span belongs to:

``odin.driver.*``    repro.odin API calls on the driver thread
``odin.worker.*``    ``repro.odin.worker.execute_op`` (includes fusion
                     and Seamless kernels)
``mpi.coll.*``       repro.mpi.comm collectives, ``mpi.coll.select`` is
                     the cost-model algorithm choice
``mpi.transport.*``  ``RankContext`` send/recv (thread mailboxes, or
                     process sockets and shm)
``tpetra.*``         SpMV, halo Import, vector reductions, assembly
``solvers.*``        the Krylov solver
``seamless.*``       fused-kernel compilation

A span is ``[id, parent_id, name, lane, t0, t1, cpu0, cpu1, run_id]``:
wall times from ``time.perf_counter`` and CPU times from
``time.thread_time``.  On the thread backend wall minus CPU is time spent
waiting for the GIL or a mailbox.  The parent is the innermost open span
on the same thread, so a span's *self* time is its duration minus its
children's.  Spans stay in memory until :func:`write` at the end.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Union

__all__ = ["SpanRecorder", "install", "layer_of", "self_times", "write"]

_perf = time.perf_counter
_cpu = time.thread_time


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def wrap(self, owner, attr: str, name: Union[str, Callable]) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  *name* is a
        span name or a function of the call's arguments returning one."""
        orig = getattr(owner, attr)
        rec = self  # read at call time: a forked worker swaps its state

        def wrapper(*args, **kwargs):
            tls = rec._tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.lane = f"{os.getpid()}:{threading.current_thread().name}"
            sid = next(rec._ids)
            span = [sid, stack[-1] if stack else 0,
                    name(*args) if callable(name) else name, tls.lane,
                    _perf(), 0.0, _cpu(), 0.0, rec.run_id]
            rec.spans.append(span)
            stack.append(sid)
            try:
                return orig(*args, **kwargs)
            finally:
                span[7] = _cpu()
                span[5] = _perf()
                stack.pop()

        wrapper.__name__ = getattr(orig, "__name__", attr)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        setattr(owner, attr, wrapper)

    def after_fork_in_child(self) -> None:
        """A forked worker starts with no spans and no open stacks."""
        self.spans = []
        self._tls = threading.local()

    def finished(self) -> List[list]:
        return [s for s in self.spans if s[5]]


#: the active recorder; process-backend workers inherit it across fork
ACTIVE: Dict[str, SpanRecorder] = {}


def _collect_worker_spans(block):
    return ACTIVE["rec"].finished()


def install(rec: SpanRecorder) -> Callable:
    """Wrap every layer's entry points; returns a function that fetches
    process-backend workers' spans through an ``@odin.local`` call."""
    from repro import odin, seamless, solvers
    from repro.mpi import comm as mpi_comm
    from repro.mpi import runtime
    from repro.odin import context as odin_context
    from repro.odin.array import DistArray
    from repro.tpetra import crsmatrix, import_export, multivector

    ACTIVE["rec"] = rec
    os.register_at_fork(after_in_child=rec.after_fork_in_child)
    collect = odin.local(_collect_worker_spans,
                         name="perfbench.collect_worker_spans")

    from workloads import BINARY, UNARY
    for fn in UNARY + BINARY + ("sqrt", "evaluate", "array"):
        rec.wrap(odin, fn, f"odin.driver.{fn}")
    for meth in ("__add__", "__sub__", "__mul__", "__getitem__", "sum",
                 "gather", "redistribute"):
        rec.wrap(DistArray, meth, f"odin.driver.{meth.strip('_')}")
    rec.wrap(odin_context, "execute_op",
             lambda state, op: f"odin.worker.{op[0]}")

    for coll in ("barrier", "bcast", "scatter", "gather", "allgather",
                 "alltoall", "reduce", "allreduce", "scan", "exscan",
                 "reduce_scatter", "Bcast", "Scatter", "Scatterv", "Gather",
                 "Gatherv", "Allgather", "Allgatherv", "Alltoall", "Reduce",
                 "Allreduce", "Scan", "Exscan"):
        rec.wrap(mpi_comm.Intracomm, coll, f"mpi.coll.{coll}")
    rec.wrap(mpi_comm, "select_algorithm", "mpi.coll.select")
    rec.wrap(runtime.RankContext, "send_buffer", "mpi.transport.send")
    rec.wrap(runtime.RankContext, "send_object", "mpi.transport.send")
    rec.wrap(runtime.RankContext, "recv_message", "mpi.transport.recv")
    rec.wrap(runtime.RankContext, "poll_message", "mpi.transport.poll")

    rec.wrap(crsmatrix.CrsMatrix, "apply", "tpetra.spmv")
    rec.wrap(crsmatrix.CrsMatrix, "insert_global_values",
             "tpetra.assemble.insert")
    rec.wrap(crsmatrix.CrsMatrix, "fillComplete", "tpetra.assemble.fill")
    rec.wrap(import_export.Import, "apply", "tpetra.import")
    for meth in ("dot", "norm2", "update"):
        rec.wrap(multivector.MultiVector, meth, f"tpetra.{meth}")
    rec.wrap(solvers, "cg", "solvers.cg")
    rec.wrap(seamless, "compile_elementwise", "seamless.compile")
    return collect


_LAYERS = ("odin.driver", "odin.worker", "mpi.coll", "mpi.transport",
           "tpetra", "solvers", "seamless")


def layer_of(name: str) -> str:
    for layer in _LAYERS:
        if name.startswith(layer + "."):
            return layer
    return "other"


def self_times(spans: List[list]) -> List[tuple]:
    """(self wall s, self cpu s) per span: its duration minus the part of
    it that child spans cover.  Children nest on the parent's thread, so
    (lane, id) identifies a parent even across forked processes."""
    child_wall: Dict[tuple, float] = {}
    child_cpu: Dict[tuple, float] = {}
    for s in spans:
        if s[1]:
            key = (s[3], s[1])
            child_wall[key] = child_wall.get(key, 0.0) + s[5] - s[4]
            child_cpu[key] = child_cpu.get(key, 0.0) + s[7] - s[6]
    return [(s[5] - s[4] - child_wall.get((s[3], s[0]), 0.0),
             s[7] - s[6] - child_cpu.get((s[3], s[0]), 0.0)) for s in spans]


def write(path: str, spans: List[list]) -> None:
    """Write spans as JSON lines (one span per line)."""
    keys = ("id", "parent", "name", "lane", "t0", "t1", "cpu0", "cpu1",
            "run_id")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")
