"""The runtime status endpoint: a stdlib ``http.server`` thread.

Opt-in only (``obs.serve()`` or ``REPRO_OBS_PORT=N`` in the
environment); when on, a daemon :class:`ThreadingHTTPServer` exposes:

- ``/metrics`` -- the existing Prometheus text exposition of
  :data:`repro.metrics.REGISTRY` (scrape-ready).
- ``/status`` -- JSON: per-context op/epoch clocks, checkpoint and
  plan-cache state, and the per-rank pending-op + heartbeat-age table
  (the ``DeadlockError`` dump, on demand).  Read-only and
  communication-free, so it answers even when the workload is hung.
- ``/flight`` -- the recorded events as Chrome trace JSON (what
  :func:`repro.trace.analyze.load_chrome_trace` reads), plus the last
  fault notification under ``otherData``.
- ``/profile?seconds=S`` -- folded stacks from the sampling profiler
  (the running global one, or an on-demand S-second capture).

``python -m repro.obs <status|metrics|flight|profile>`` pretty-prints
any of these from another terminal.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

__all__ = ["ObsServer", "serve", "shutdown"]

_INDEX = """repro.obs endpoints:
  /metrics            Prometheus text exposition
  /status             per-context + per-rank runtime state (JSON)
  /flight             recorded events (Chrome trace JSON)
  /profile?seconds=S  folded stacks from the sampling profiler
"""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1.0"

    def log_message(self, fmt, *args):  # noqa: D102 - no stderr chatter
        pass

    def do_GET(self):  # noqa: N802 - http.server API
        try:
            body, ctype = self._render()
        except Exception as exc:  # noqa: BLE001 - endpoint must not die
            self.send_error(500, explain=repr(exc))
            return
        if body is None:
            self.send_error(404)
            return
        data = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _render(self) -> Tuple[Optional[str], Optional[str]]:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/":
            return _INDEX, "text/plain; charset=utf-8"
        if path == "/metrics":
            from ..metrics import REGISTRY
            from ..metrics.report import exposition
            return exposition(REGISTRY), "text/plain; version=0.0.4"
        if path == "/status":
            from . import status
            return (json.dumps(status.snapshot(), indent=2, default=str)
                    + "\n", "application/json")
        if path == "/flight":
            from ..trace import TRACER
            from ..trace.export import chrome_trace_events
            payload = {
                "traceEvents": chrome_trace_events(TRACER),
                "displayTimeUnit": "ms",
                "otherData": {"producer": "repro.obs.flight",
                              "last_fault": TRACER.last_fault},
            }
            return json.dumps(payload, default=str), "application/json"
        if path == "/profile":
            qs = parse_qs(parsed.query)
            try:
                seconds = float(qs.get("seconds", ["0.5"])[0])
            except ValueError:
                seconds = 0.5
            from . import profiler
            return profiler.capture(seconds), "text/plain; charset=utf-8"
        return None, None


class ObsServer:
    """Handle on the running endpoint thread."""

    def __init__(self, httpd: ThreadingHTTPServer,
                 thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __repr__(self):
        return f"ObsServer({self.url})"


_server: Optional[ObsServer] = None
_server_lock = threading.Lock()


def serve(port: int = 0, host: str = "127.0.0.1") -> ObsServer:
    """Start the status endpoint (idempotent: one server per process).

    ``port=0`` binds an ephemeral port; read it back from
    ``serve().port``.  The server thread and every handler thread are
    daemons, so a process exit is never held up by observability.
    """
    global _server
    with _server_lock:
        if _server is not None:
            return _server
        httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        httpd.daemon_threads = True
        thread = threading.Thread(target=httpd.serve_forever,
                                  name="repro-obs-server", daemon=True)
        thread.start()
        _server = ObsServer(httpd, thread)
        return _server


def shutdown() -> None:
    """Stop the endpoint (tests; a live process just leaves it up)."""
    global _server
    with _server_lock:
        srv, _server = _server, None
    if srv is not None:
        srv.close()
