"""The HTTP server: the live status endpoint, and the front of the job API.

A stdlib-only :class:`ThreadingHTTPServer` on a daemon thread, polling
the process-wide :data:`~repro.obs.metrics.METRICS` registry and
:data:`~repro.obs.trace.TRACER` run metadata while a run is in flight.
Enabled via ``--status-port`` on ``run``/``trace``/``analyze`` or the
``REPRO_STATUS_PORT`` environment variable.  ``repro serve`` runs the
same server with a route of its own (:class:`repro.service.app.ServiceApp`):
the one handler class, thread and lifecycle in the source.

Endpoints
---------
* ``/health`` — liveness: ``{"status": "ok", "uptime_s": ...}``.
* ``/metrics`` — JSON snapshot of the registry plus run metadata
  (validated by ``python -m repro.obs.schema --metrics``).
* ``/metrics.prom`` — the same snapshot in Prometheus text exposition
  format, ``worker.N.*`` registry entries folded into a ``worker="N"``
  label (validated by ``python -m repro.obs.schema --prom``).

A route given to :class:`StatusServer` sees every request instead and
serves these three through :meth:`StatusServer.endpoint`.  The handler
refuses a body with a bad ``Content-Length`` (400) or one over
:data:`MAX_BODY_BYTES` (413), and drops a connection that stalls for
:data:`READ_TIMEOUT_S`, so a hostile client cannot hold a thread.

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
from typing import Callable, Dict, Optional, Tuple

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

#: Request bodies above this size are rejected outright (413).
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stall mid-request (a body shorter than its
#: ``Content-Length``, say) before the handler drops it.
READ_TIMEOUT_S = 10.0

#: A reply: HTTP status, body (JSON-able dict/list, or bytes) and extra
#: headers (a ``Content-Type`` there overrides the default).
Reply = Tuple[int, object, Dict[str, str]]

#: A route: ``(method, path, read_body) -> Reply`` for every request;
#: ``read_body()`` returns the raw body or raises :class:`BodyError`.
Route = Callable[[str, str, Callable[[], bytes]], Reply]


class BodyError(ValueError):
    """A request body the server refuses to read; ``status`` is the
    HTTP status to answer with (400 or 413)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def resolve_port(port: Optional[int], env: str,
                 default: Optional[int] = None) -> Optional[int]:
    """Resolve a listening port: explicit flag > ``$env`` > ``default``.
    Port 0 asks the kernel for an ephemeral port (see
    :attr:`StatusServer.port` for the result).  Raises ValueError for a
    non-integer or out-of-range value, from the flag and the environment
    alike."""
    where = f"port {port}"
    if port is None:
        raw = os.environ.get(env, "").strip()
        if not raw:
            return default
        try:
            port = int(raw)
        except ValueError:
            raise ValueError(f"{env}={raw!r} is not an integer port") from None
        where = f"{env}={port}"
    if not 0 <= port <= 65535:
        raise ValueError(f"{where} is outside [0, 65535]")
    return port


class _Handler(BaseHTTPRequestHandler):
    """The one request handler: every request goes to the server's
    route, every reply out through :meth:`_send`."""

    protocol_version = "HTTP/1.1"

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup
        return READ_TIMEOUT_S

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._unread = self.headers.get("Content-Length", "0") != "0"
        try:
            self._send(*self.server.status.route(
                self.command, self.path.split("?", 1)[0], self._read_body))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; nothing to do
        # A body left unread would be parsed as the next request.
        self.close_connection = self.close_connection or self._unread

    do_POST = do_GET

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise BodyError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise BodyError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        self._unread = False
        return body

    def _send(self, status: int, body: object,
              headers: Dict[str, str]) -> None:
        if isinstance(body, (dict, list)):
            body = json.dumps(body, sort_keys=True, default=str).encode()
            content_type = "application/json"
        else:
            content_type = "text/plain; version=0.0.4"
        headers = dict(headers)
        self.send_response(status)
        self.send_header("Content-Type",
                         headers.pop("Content-Type", content_type))
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: object) -> None:
        log.debug("http: " + fmt, *args)


class StatusServer:
    """The in-process HTTP server; :meth:`start` / :meth:`stop`.

    Serves whatever registry/tracer it is constructed with (defaults to
    the process-wide singletons), so tests can run it against a private
    registry without touching global state.  ``route`` replaces the
    built-in routing for every request (see :data:`Route`).
    """

    def __init__(self, port: int = 0, host: str = DEFAULT_HOST,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 route: Optional[Route] = None):
        self.registry = registry if registry is not None else METRICS
        self.tracer = tracer if tracer is not None else TRACER
        self.route: Route = route or self._route
        self._requested = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- payloads ----------------------------------------------------------

    def _uptime(self) -> float:
        return (round(time.time() - self._started_at, 3)
                if self._started_at else 0.0)

    def metrics_payload(self) -> Dict[str, object]:
        """The ``/metrics`` JSON body (also the `top` poll format)."""
        tracer = self.tracer
        return {
            "status_format": STATUS_FORMAT,
            "generated_unix": time.time(),
            "uptime_s": self._uptime(),
            "epoch_unix": tracer.epoch_unix,
            "run": dict(tracer.run_metadata),
            "metrics": self.registry.snapshot(),
        }

    def health_payload(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "uptime_s": self._uptime(),
            "tracing": self.tracer.enabled,
            "metrics": len(self.registry),
        }

    def prometheus_text(self) -> str:
        return render_prometheus(self.registry.snapshot())

    def endpoint(self, path: str) -> Optional[Reply]:
        """The reply of a built-in ``GET`` endpoint, or None."""
        if path == "/health":
            return 200, self.health_payload(), {}
        if path == "/metrics":
            return 200, self.metrics_payload(), {}
        if path == "/metrics.prom":
            return 200, self.prometheus_text().encode(), {}
        return None

    def _route(self, method: str, path: str,
               read_body: Callable[[], bytes]) -> Reply:
        reply = self.endpoint(path) if method == "GET" else None
        return reply or (404, {"error": f"unknown path {path!r}",
                               "endpoints": ["/health", "/metrics",
                                             "/metrics.prom"]}, {})

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
        self._httpd = ThreadingHTTPServer(self._requested, _Handler)
        self._httpd.daemon_threads = True
        self._httpd.status = self
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http",
            daemon=True)
        self._thread.start()
        log.info("HTTP server on %s", self.url)
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
