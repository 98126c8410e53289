"""Crash flight recording: the fault side of the one event recorder.

:class:`repro.trace.tracer.Tracer` is the only event recorder.  With
full tracing off it still keeps the newest ``REPRO_OBS_FLIGHT`` events
per thread (default 4096, ``0``/``off`` disables) from a handful of
coarse sites -- driver control ops, worker op execution, MPI
collectives, recovery and fault notifications.  This module is what
turns that bounded window into crash evidence; the tracer inherits it.

When something dies -- ``AbortError``, ``RankFailure``,
``DeadlockError``, ``InjectedFault`` -- :meth:`FaultDump.notify_fault`
records an ``obs.fault`` instant and dumps the recorder as the same
Chrome ``trace_event`` JSON :func:`repro.trace.export
.write_chrome_trace` produces, so the post-mortem analyzer
(:func:`repro.trace.analyze.load_chrome_trace`) reads a crash dump and
a deliberate trace identically.

Dumps to one path are rate-limited (at most one per second) so a fault
storm -- a chaos sweep injecting hundreds of crashes -- costs bounded
I/O, and they never print: the chaos CLI's byte-identical-replay
contract owns stdout.  ``REPRO_OBS_DUMP`` fixes the dump path (``0``/``off``
suppresses auto-dumps); the default is ``repro-flight-<pid>.json`` in
:func:`tempfile.gettempdir`.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Dict, Optional

from . import causal as _CZ

__all__ = ["FaultDump"]

#: Minimum seconds between two automatic dumps.
_MIN_DUMP_INTERVAL = 1.0


class FaultDump:
    """Fault notification and crash dumps, mixed into the Tracer."""

    #: Path of the most recent dump (None until the first one).
    last_dump_path: Optional[str] = None
    #: ``{"kind", "detail", "op_id", "epoch_id", "ranks"}`` of the most
    #: recent fault notification; the chaos CLI embeds it in
    #: ``--repro-out`` artifacts so shrunk repros are self-describing.
    last_fault: Optional[Dict[str, Any]] = None
    _last_dump_t = -float("inf")  # monotonic clock

    def default_dump_path(self) -> Optional[str]:
        """``REPRO_OBS_DUMP`` if set (None if it disables dumping),
        else a pid-salted file in the temp directory."""
        raw = os.environ.get("REPRO_OBS_DUMP", "").strip()
        if raw.lower() in ("0", "off", "no", "false", "none"):
            return None
        if raw:
            return raw
        return os.path.join(tempfile.gettempdir(),
                            f"repro-flight-{os.getpid()}.json")

    def dump(self, path: Optional[str] = None) -> Optional[str]:
        """Write the recorded events as Chrome trace JSON; returns the
        path."""
        from ..trace.export import write_chrome_trace
        if path is None:
            path = self.default_dump_path()
            if path is None:
                return None
        write_chrome_trace(path, tracer=self)
        self.last_dump_path = path
        return path

    def notify_fault(self, kind: str, detail: Optional[str] = None,
                     ranks: Optional[list] = None) -> Optional[str]:
        """Record a fault instant and auto-dump (rate-limited).

        *ranks* is an optional per-rank ``World.status()``-style
        snapshot captured by the caller at the moment of the fault; it
        rides in :attr:`last_fault` so post-mortem artifacts carry the
        pending-op evidence even after the world is gone.  Returns the
        dump path (possibly written by an earlier fault less than a
        second ago), or ``None`` when the recorder or dumping is off.
        """
        if not self.recording:
            return None
        oid, eid = _CZ.current()
        self.instant("obs.fault", kind, detail=detail, op_id=oid,
                     epoch_id=eid)
        self.last_fault = {
            "kind": kind,
            "detail": None if detail is None else str(detail),
            "op_id": oid,
            "epoch_id": eid,
            "ranks": ranks,
        }
        path = self.default_dump_path()
        if path is None:
            return None
        now = time.monotonic()
        with self._lock:
            throttled = (path == self.last_dump_path
                         and now - self._last_dump_t < _MIN_DUMP_INTERVAL)
            if not throttled:
                self._last_dump_t = now
        if throttled:
            return path
        try:
            return self.dump(path)
        except OSError:
            return None
