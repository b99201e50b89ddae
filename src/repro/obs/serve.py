"""Live HTTP endpoints for a running campaign (stdlib only).

:class:`TelemetryServer` runs a ``ThreadingHTTPServer`` on a daemon
thread next to the suite driver and exposes:

* ``/metrics`` — Prometheus text rendered from the live registry
  (authoritative state plus in-flight streamed snapshots), scrapeable
  mid-run;
* ``/healthz`` — ``{"status": "ok", "phase": running|done}``;
* ``/progress`` — runs done/total, per-worker lease state, and the
  headline retry/reclaim/steal counters as JSON;
* ``/events`` — the flight-recorder tail as JSON (``?limit=``,
  ``?kind=`` filters).

The server binds 127.0.0.1 by default — this is an operator window,
not a public API — and port 0 asks the OS for an ephemeral port (the
chosen port is reported by :meth:`TelemetryServer.start`).  Handlers
only ever *read* telemetry state, so a scrape can never perturb
results.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from ..errors import ObservabilityError
from .export import render_prometheus
from .metrics import (
    CACHE_HITS,
    CACHE_MISSES,
    DISPATCH_LEASES,
    DISPATCH_RECLAIMS,
    DISPATCH_STALE_COMMITS,
    DISPATCH_STEALS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUNS_COMPLETED,
    TELEMETRY_DROPPED,
)
from .stream import TelemetryPlane

#: The counters surfaced inline on ``/progress``.
PROGRESS_COUNTERS = {
    "runs_completed": RUNS_COMPLETED,
    "run_retries": RUN_RETRIES,
    "run_failures": RUN_FAILURES,
    "cache_hits": CACHE_HITS,
    "cache_misses": CACHE_MISSES,
    "leases": DISPATCH_LEASES,
    "reclaims": DISPATCH_RECLAIMS,
    "steals": DISPATCH_STEALS,
    "stale_commits": DISPATCH_STALE_COMMITS,
    "telemetry_dropped": TELEMETRY_DROPPED,
}


class _Handler(BaseHTTPRequestHandler):
    """Routes one GET; the plane hangs off the server object."""

    server_version = "repro-telemetry/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # telemetry must not spam the driver's stderr

    def _send(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        self._send(
            status, "application/json",
            json.dumps(payload, sort_keys=True) + "\n",
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        plane: TelemetryPlane = self.server.plane  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._send(
                    200, "text/plain; version=0.0.4",
                    render_prometheus(plane.live.snapshot()),
                )
            elif route == "/healthz":
                self._send_json({
                    "status": "ok",
                    "phase": self.server.phase,  # type: ignore[attr-defined]
                })
            elif route == "/progress":
                snapshot = plane.live.snapshot()
                payload = plane.progress.to_dict()
                payload["counters"] = {
                    short: snapshot.value(name)
                    for short, name in sorted(PROGRESS_COUNTERS.items())
                }
                payload["pending_streams"] = plane.live.pending_streams()
                self._send_json(payload)
            elif route == "/events":
                query = parse_qs(parsed.query)
                limit = int(query.get("limit", ["100"])[0])
                filters = {}
                if "kind" in query:
                    filters["kind"] = query["kind"][0]
                self._send_json({
                    "events": plane.events.tail(limit=limit,
                                                filters=filters),
                })
            else:
                self._send_json({"error": f"no route {route}"}, status=404)
        except BrokenPipeError:  # scraper went away mid-response
            pass


class TelemetryServer:
    """The live-telemetry HTTP endpoint, on a daemon thread."""

    def __init__(
        self,
        plane: TelemetryPlane,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.plane = plane
        self.host = host
        self.requested_port = int(port)
        self.port: Optional[int] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind and serve; returns the actual port."""
        if self._server is not None:
            raise ObservabilityError("telemetry server already started")
        try:
            server = ThreadingHTTPServer(
                (self.host, self.requested_port), _Handler
            )
        except OSError as error:
            raise ObservabilityError(
                f"cannot bind telemetry server on "
                f"{self.host}:{self.requested_port}: {error}"
            )
        server.daemon_threads = True
        server.plane = self.plane  # type: ignore[attr-defined]
        server.phase = "running"  # type: ignore[attr-defined]
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        if self.port is None:
            raise ObservabilityError("telemetry server not started")
        return f"http://{self.host}:{self.port}"

    def mark_done(self) -> None:
        """Flip ``/healthz`` to ``phase: done`` — the run is complete
        and every subsequent ``/metrics`` scrape is final."""
        if self._server is not None:
            self._server.phase = "done"  # type: ignore[attr-defined]

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
