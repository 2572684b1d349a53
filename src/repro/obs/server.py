"""Live status endpoint: the metrics registry over HTTP, mid-run.

A stdlib-only :class:`ThreadingHTTPServer` on a daemon thread, polling
the process-wide :data:`~repro.obs.metrics.METRICS` registry and
:data:`~repro.obs.trace.TRACER` run metadata while a run is in flight —
the first brick of ``repro serve`` (parallelization-as-a-service,
ROADMAP).  Enabled via ``--status-port`` on ``run``/``trace``/``analyze``
or the ``REPRO_STATUS_PORT`` environment variable.

Endpoints
---------
* ``/health`` — liveness: ``{"status": "ok", "uptime_s": ...}``.
* ``/metrics`` — JSON snapshot of the registry plus run metadata
  (validated by ``python -m repro.obs.schema --metrics``).
* ``/metrics.prom`` — the same snapshot in Prometheus text exposition
  format, ``worker.N.*`` registry entries folded into a ``worker="N"``
  label (validated by ``python -m repro.obs.schema --prom``).

The handler reads the registry under the GIL without locking: metric
updates are single attribute writes, so a snapshot taken concurrently
with a run is internally consistent per metric, which is all a poll
needs.  Consumers: ``python -m repro top`` (terminal dashboard) and any
Prometheus scraper.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .log import get_logger
from .metrics import METRICS, MetricsRegistry, render_prometheus
from .trace import TRACER, Tracer

log = get_logger("obs.server")

#: Environment variable supplying a default ``--status-port``.
STATUS_PORT_ENV = "REPRO_STATUS_PORT"

#: Version stamp in the ``/metrics`` JSON payload.
STATUS_FORMAT = 1

#: Bind address: loopback only — the endpoint is an observability
#: surface, not a public API.
DEFAULT_HOST = "127.0.0.1"


def resolve_status_port(port: Optional[int] = None) -> Optional[int]:
    """Resolve the status-server port: explicit flag > ``REPRO_STATUS_PORT``
    environment variable > disabled (None).  Port 0 asks the kernel for
    an ephemeral port (see :attr:`StatusServer.port` for the result)."""
    if port is not None:
        return port
    raw = os.environ.get(STATUS_PORT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{STATUS_PORT_ENV}={raw!r} is not an integer port")
    if not 0 <= value <= 65535:
        raise ValueError(f"{STATUS_PORT_ENV}={value} is outside [0, 65535]")
    return value


class StatusServer:
    """The in-process status endpoint; :meth:`start` / :meth:`stop`.

    Serves whatever registry/tracer it is constructed with (defaults to
    the process-wide singletons), so tests can run it against a private
    registry without touching global state.
    """

    def __init__(self, port: int = 0, host: str = DEFAULT_HOST,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.registry = registry if registry is not None else METRICS
        self.tracer = tracer if tracer is not None else TRACER
        self._requested = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- payloads ----------------------------------------------------------

    def metrics_payload(self) -> Dict[str, object]:
        """The ``/metrics`` JSON body (also the `top` poll format)."""
        tracer = self.tracer
        return {
            "status_format": STATUS_FORMAT,
            "generated_unix": time.time(),
            "uptime_s": (round(time.time() - self._started_at, 3)
                         if self._started_at else 0.0),
            "epoch_unix": tracer.epoch_unix,
            "run": dict(tracer.run_metadata),
            "metrics": self.registry.snapshot(),
        }

    def health_payload(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "uptime_s": (round(time.time() - self._started_at, 3)
                         if self._started_at else 0.0),
            "tracing": self.tracer.enabled,
            "metrics": len(self.registry),
        }

    def prometheus_text(self) -> str:
        return render_prometheus(self.registry.snapshot())

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The bound port (the resolved one, if 0 was requested)."""
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self) -> Optional[str]:
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StatusServer":
        """Bind and serve on a daemon thread; idempotent."""
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _reply(self, status: int, body: bytes,
                       content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/health":
                        body = json.dumps(server.health_payload(),
                                          sort_keys=True).encode()
                        self._reply(200, body, "application/json")
                    elif path == "/metrics":
                        body = json.dumps(server.metrics_payload(),
                                          sort_keys=True,
                                          default=str).encode()
                        self._reply(200, body, "application/json")
                    elif path == "/metrics.prom":
                        body = server.prometheus_text().encode()
                        self._reply(200, body,
                                    "text/plain; version=0.0.4")
                    else:
                        body = json.dumps(
                            {"error": f"unknown path {path!r}",
                             "endpoints": ["/health", "/metrics",
                                           "/metrics.prom"]}).encode()
                        self._reply(404, body, "application/json")
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away mid-reply; nothing to do

            def log_message(self, fmt: str, *args: object) -> None:
                log.debug("status: " + fmt, *args)

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-status",
            daemon=True)
        self._thread.start()
        log.info("status endpoint serving on %s", self.url)
        return self

    def stop(self) -> None:
        """Shut down the server and join the thread; idempotent."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_status_server(port: Optional[int] = None,
                        host: str = DEFAULT_HOST) -> Optional[StatusServer]:
    """Start the process-wide status endpoint if a port is configured
    (explicit argument or ``REPRO_STATUS_PORT``); returns the running
    server, or None when no port is configured."""
    resolved = resolve_status_port(port)
    if resolved is None:
        return None
    return StatusServer(port=resolved, host=host).start()
