"""Structured per-rank event recording: tracing and the flight recorder.

One process-wide :class:`Tracer` records *span* (duration) and *instant*
events from every layer of the stack -- the MPI substrate, ODIN workers,
the driver control plane, and the solver stack.  It is the only event
recorder, with two retention modes per thread buffer:

- **full tracing** (``REPRO_TRACE=1`` or :func:`enable`): every event
  is kept, from every instrumented site;
- **flight recording** (tracing off, the default): only the newest
  ``capacity`` events are kept (``REPRO_OBS_FLIGHT``, default 4096;
  ``0``/``off`` turns the recorder off), from the coarse sites --
  driver control ops, worker op execution, MPI collectives, recovery
  and faults.  :class:`~repro.obs.flight.FaultDump` turns that window
  into a crash dump.

Design constraints:

- **Each site costs one predicate.**  Instrumented code holds a
  reference to the singleton and guards each site with
  ``if _TR.enabled:`` (fine sites, full tracing only) or
  ``if _TR.recording:`` (coarse sites), then makes one recorder call
  per event.
- **No locks on the hot path.**  Each thread appends to its own buffer
  (registered once, under a lock, on first use); export walks all
  buffers and groups events by rank.  A thread adopts the buffer of an
  exited thread, so the number of buffers stays at peak thread
  concurrency.
- **Per-rank attribution.**  :meth:`RankContext.bind()
  <repro.mpi.runtime.RankContext.bind>` publishes the world rank of the
  calling thread via :meth:`Tracer.set_thread_rank`, so events emitted
  anywhere down the call stack land in the right rank's timeline.
  Unbound threads (e.g. the ODIN driver's user thread) fall back to a
  thread-name label, and every emit API accepts an explicit rank.

Span totals per rank (:meth:`Tracer.span_timers`) are derived from the
recorded events as :class:`~repro.teuchos.timer.Time` objects, which is
what the text :func:`~repro.trace.export.summary` exporter renders and
merges with ``TimeMonitor.summarize()``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..obs.flight import FaultDump
from ..teuchos.timer import Time

__all__ = ["Tracer", "TRACER", "get_tracer", "enabled", "enable",
           "disable", "set_enabled", "clear", "span", "instant",
           "set_thread_rank"]

RankLabel = Union[int, str]

# Event tuples: (phase, category, name, rank, ts, dur, args)
#   phase "X" = complete (span) event, "i" = instant event
#   ts/dur are seconds relative to the tracer epoch; args a dict or None
Event = Tuple[str, str, str, RankLabel, float, float, Optional[dict]]

_DEFAULT_CAPACITY = 4096


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1", "true", "yes", "on")


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_OBS_FLIGHT", "").strip().lower()
    if raw in ("0", "off", "no", "false", "none"):
        return 0
    try:
        return int(raw) if raw else _DEFAULT_CAPACITY
    except ValueError:
        return _DEFAULT_CAPACITY


class _Buffer:
    """One thread's events (the thread owning it may be replaced by a
    new thread once it has exited).  ``events`` is the live store;
    ``kept`` holds what full tracing recorded before it was switched
    off, which the bounded window must not evict."""

    __slots__ = ("events", "kept", "owner")

    def __init__(self, maxlen: Optional[int], owner: threading.Thread):
        self.events: Deque[Event] = deque(maxlen=maxlen)
        self.kept: List[Event] = []
        self.owner = owner


class _Span:
    """Context manager recording one complete ("X") event."""

    __slots__ = ("_tracer", "_cat", "_name", "_args", "_rank", "_t0")

    def __init__(self, tracer: "Tracer", cat: str, name: str,
                 rank: Optional[RankLabel], args: Optional[dict]):
        self._tracer = tracer
        self._cat = cat
        self._name = name
        self._args = args
        self._rank = rank

    def __enter__(self) -> "_Span":
        tr = self._tracer
        if self._rank is None:
            self._rank = tr.thread_rank()
        self._t0 = tr.now()
        return self

    def __exit__(self, *exc) -> None:
        tr = self._tracer
        ts = time.perf_counter() - tr._epoch
        tr._thread_buffer().events.append(
            ("X", self._cat, self._name, self._rank, self._t0,
             ts - self._t0, self._args))

    def add_args(self, **kwargs) -> "_Span":
        """Attach/extend event args from inside the span body."""
        if self._args is None:
            self._args = {}
        self._args.update(kwargs)
        return self


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add_args(self, **kwargs):
        return self


NULL_SPAN = _NullSpan()


class Tracer(FaultDump):
    """Process-wide event recorder with per-thread (per-rank) buffers.

    ``enabled`` switches full tracing; ``capacity`` is the per-thread
    window kept while it is off.  ``recording`` (derived: either one is
    on) is the predicate of the coarse, always-on sites.
    """

    def __init__(self, enabled: Optional[bool] = None,
                 capacity: Optional[int] = None):
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self._tls = threading.local()
        object.__setattr__(self, "capacity", max(
            _env_capacity() if capacity is None else int(capacity), 0))
        self.enabled = _env_enabled() if enabled is None \
            else bool(enabled)

    def __setattr__(self, name, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("enabled", "capacity"):
            self._retune()

    def _retune(self) -> None:
        """Apply the retention mode to every buffer after ``enabled`` or
        ``capacity`` changed.  Leaving full tracing keeps the whole
        trace (until :meth:`clear`) and bounds only the events that
        follow; an event racing the switch may be lost."""
        self.recording = self.enabled or self.capacity > 0
        maxlen = self._maxlen()
        with self._lock:
            for buf in self._buffers:
                old = buf.events
                if old.maxlen == maxlen:
                    continue
                if old.maxlen is None:
                    buf.events = deque(maxlen=maxlen)
                    buf.kept.extend(old)
                else:
                    buf.events = deque(old, maxlen)

    def _maxlen(self) -> Optional[int]:
        return None if self.enabled else self.capacity

    # ------------------------------------------------------------------
    # rank binding
    # ------------------------------------------------------------------
    def set_thread_rank(self, rank: Optional[RankLabel]) -> None:
        """Publish the world rank of the calling thread (or ``None`` to
        clear it).  Called by ``RankContext.bind()/unbind()``."""
        self._tls.rank = rank

    def thread_rank(self) -> RankLabel:
        rank = getattr(self._tls, "rank", None)
        if rank is not None:
            return rank
        name = threading.current_thread().name
        return "main" if name == "MainThread" else name

    # ------------------------------------------------------------------
    # buffers
    # ------------------------------------------------------------------
    def _thread_buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._register()
        return buf

    def _register(self) -> _Buffer:
        """Give the calling thread a buffer: one left by an exited
        thread (its events age out of the window as usual), else a new
        one.  :meth:`now` registers, so every span of the adopting
        thread starts after the exited thread's last event ended."""
        me = threading.current_thread()
        with self._lock:
            for buf in self._buffers:
                if not buf.owner.is_alive():
                    break
            else:
                buf = _Buffer(self._maxlen(), me)
                self._buffers.append(buf)
            buf.owner = me
        self._tls.buf = buf
        return buf

    # ------------------------------------------------------------------
    # emit API
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Timestamp (seconds since the tracer epoch) for begin/complete
        pairs on hot paths."""
        if getattr(self._tls, "buf", None) is None:
            self._register()
        return time.perf_counter() - self._epoch

    def span(self, cat: str, name: str, rank: Optional[RankLabel] = None,
             **args):
        """A context manager recording a complete event around its body.

        Returns a shared no-op when tracing is disabled, so
        ``with tracer.span(...)`` stays safe either way; hot paths should
        still guard the call with ``if tracer.enabled:``.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, cat, name, rank, args or None)

    def complete(self, cat: str, name: str, rank: Optional[RankLabel],
                 t0: float, **args) -> None:
        """Record a complete event that started at ``t0 = tracer.now()``
        (``rank=None``: the calling thread's rank).

        The begin/complete pair is the cheapest span form: the guarded
        path is exactly one predicate at each end.
        """
        ts = time.perf_counter() - self._epoch
        if rank is None:
            rank = self.thread_rank()
        self._thread_buffer().events.append(
            ("X", cat, name, rank, t0, ts - t0, args or None))

    def instant(self, cat: str, name: str,
                rank: Optional[RankLabel] = None, **args) -> None:
        """Record a zero-duration marker event."""
        ts = time.perf_counter() - self._epoch
        if rank is None:
            rank = self.thread_rank()
        self._thread_buffer().events.append(
            ("i", cat, name, rank, ts, 0.0, args or None))

    # ------------------------------------------------------------------
    # control / introspection
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded events and the last fault (keeps the
        epoch and the buffers)."""
        with self._lock:
            for buf in self._buffers:
                buf.events.clear()
                buf.kept = []
        self.last_fault = None

    def absorb(self, events: List[Event]) -> None:
        """Merge events recorded by another process into this tracer
        (the driver-side merge point of the multiprocess transport:
        worker ranks ship their event lists back at gather/shutdown)."""
        if events:
            self._thread_buffer().events.extend(tuple(ev) for ev in events)

    def _per_buffer(self) -> List[List[Event]]:
        with self._lock:
            # list(deque) runs in C without releasing the GIL, so a
            # concurrent append cannot interleave with the copy
            return [buf.kept + list(buf.events) for buf in self._buffers]

    def events(self) -> List[Event]:
        """Snapshot of all events so far, in timestamp order."""
        merged = [ev for evs in self._per_buffer() for ev in evs]
        merged.sort(key=lambda ev: ev[4])
        return merged

    def span_timers(self) -> Dict[Tuple[RankLabel, str], Time]:
        """Per-(rank, category:name) span totals, derived from the
        recorded "X" events.

        Within one buffer, a span nested inside an earlier span of the
        same key is not counted again (the nested-start semantics of
        ``Time``).  Spans of different threads always count: those in
        one buffer never overlap (see :meth:`_register`)."""
        out: Dict[Tuple[RankLabel, str], Time] = {}
        for events in self._per_buffer():
            ends: Dict[Tuple[RankLabel, str], float] = {}
            spans = sorted((ev for ev in events if ev[0] == "X"),
                           key=lambda ev: (ev[4], -ev[5]))
            for _ph, cat, name, rank, ts, dur, _args in spans:
                key = (rank, cat + ":" + name)
                if ts + dur <= ends.get(key, -float("inf")):
                    continue
                ends[key] = ts + dur
                timer = out.get(key)
                if timer is None:
                    timer = out[key] = Time(key[1])
                timer.total += dur
                timer.calls += 1
        return out

    def __repr__(self):
        n = sum(len(b.kept) + len(b.events) for b in self._buffers)
        state = "enabled" if self.enabled else "disabled"
        return (f"Tracer({state}, capacity={self.capacity}, {n} events, "
                f"{len(self._buffers)} buffers)")


# The process-wide singleton every instrumentation site references.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def enabled() -> bool:
    """Is tracing currently on? (``REPRO_TRACE=1`` or :func:`enable`.)"""
    return TRACER.enabled


def enable() -> None:
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def set_enabled(flag: bool) -> None:
    TRACER.enabled = bool(flag)


def clear() -> None:
    TRACER.clear()


def span(cat: str, name: str, rank: Optional[RankLabel] = None, **args):
    return TRACER.span(cat, name, rank=rank, **args)


def instant(cat: str, name: str, rank: Optional[RankLabel] = None,
            **args) -> None:
    if TRACER.enabled:
        TRACER.instant(cat, name, rank=rank, **args)


def set_thread_rank(rank: Optional[RankLabel]) -> None:
    TRACER.set_thread_rank(rank)
