"""Flight-recorder overhead: always-on must mean almost-free.

The flight recorder (:data:`repro.trace.TRACER`) records at every driver
control op, worker op and MPI collective even with tracing disabled, so
its cost rides on every ODIN workload.  The acceptance bound is <=5%
end-to-end on the C1 ufunc-scaling workload with tracing off.

Two measurements:

1. the C1 workload (two odin.random arrays, one fused expression,
   evaluate) with the recorder off (capacity 0) vs. on at the default
   4096-event capacity -- best-of-N wall clock on each side;
2. a microbenchmark of one ``FLIGHT.complete()`` append (the hot-path
   unit: a perf_counter read, a tuple build and a bounded deque
   append).
"""

import time
import timeit

import numpy as np

from repro import odin
from repro.trace.tracer import TRACER as FLIGHT
from repro.trace.tracer import Tracer
from repro.odin.context import OdinContext

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 200_000
WORKERS = 4
REPEATS = 5


def _workload():
    with OdinContext(WORKERS) as ctx:
        u = odin.random(N, ctx=ctx, seed=1)
        v = odin.random(N, ctx=ctx, seed=2)
        with odin.lazy():
            expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
        out = odin.evaluate(expr, use_seamless=False)
        return float(np.asarray(out.gather()).sum())


def _timed_run():
    t0 = time.perf_counter()
    _workload()
    return time.perf_counter() - t0


def _best_of(runs=REPEATS):
    # min-of-N: the least-interfered-with sample estimates the true cost
    return min(_timed_run() for _ in range(runs))


def _measure():
    was_capacity = FLIGHT.capacity
    try:
        FLIGHT.capacity = 0
        off = _best_of()
        FLIGHT.capacity = 4096
        on = _best_of()
    finally:
        FLIGHT.capacity = was_capacity

    # hot-path unit cost, isolated from the workload
    rec = Tracer(capacity=4096)
    t0 = rec.now()
    append = timeit.timeit(
        lambda: rec.complete("bench", "op", 0, t0), number=100_000)
    guard = timeit.timeit("r.recording", globals={"r": rec},
                          number=1_000_000)
    return off, on, append, guard


def generate_report() -> str:
    off, on, append, guard = _measure()
    overhead = 100.0 * (on - off) / off
    section = Section("C10: flight-recorder overhead "
                      f"({WORKERS} workers, N = {N:,}, tracing disabled)")
    section.add(table(
        ["configuration", "best-of-%d (s)" % REPEATS, "vs disabled"],
        [
            ("flight recorder off", f"{off:.4f}", "--"),
            ("flight recorder on (capacity 4096)", f"{on:.4f}",
             f"{overhead:+.1f}%"),
        ]))
    section.line()
    section.add(table(
        ["microbenchmark", "seconds", "ns/op"],
        [
            ("FLIGHT.complete() append (1e5)", f"{append:.4f}",
             f"{append * 1e4:.0f}"),
            ("FLIGHT.recording guard (1e6)", f"{guard:.4f}",
             f"{guard * 1e3:.1f}"),
        ]))
    section.line()
    section.line(
        "An append is a clock read, a tuple build and an append to "
        "the thread's bounded deque -- no locks, no growth past the "
        "capacity.  The acceptance bound is <=5% end-to-end "
        "with tracing disabled; the recorder earns its keep the first "
        "time a crash dump replaces a blind AbortError.")
    return section.render()


def test_flight_overhead_within_bound(benchmark):
    """Recorder-on stays within a generous CI bound of recorder-off
    (the report shows the measured figure; the acceptance bound of 5%
    is checked on quiet machines, CI uses slack for shared runners)."""
    def run():
        was = FLIGHT.capacity
        try:
            FLIGHT.capacity = 0
            off = _best_of(3)
            FLIGHT.capacity = 4096
            on = _best_of(3)
        finally:
            FLIGHT.capacity = was
        return off, on
    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on < off * 1.5


if __name__ == "__main__":
    main(generate_report)
