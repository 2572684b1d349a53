"""The HTTP tier of ``repro serve``: routing, handlers, lifecycle.

A stdlib-only :class:`ThreadingHTTPServer` (the
:mod:`repro.obs.server` idiom) in front of the :class:`JobStore` and the
:class:`Scheduler`.  Handler threads only parse, validate, and snapshot —
all pipeline work happens on the scheduler thread — so ``GET`` polls stay
responsive while a job runs, and every payload is JSON-serialized from a
snapshot taken under the store lock (no torn envelopes).

Endpoints (full reference in docs/SERVICE.md)
---------------------------------------------
* ``POST /jobs`` — submit a job (named workload or inline MiniC source);
  ``202`` queued, ``200`` warm-cache hit, ``400`` validation/compile
  error, ``429`` + ``Retry-After`` when the bounded queue is full.
* ``GET /jobs`` — retained jobs, newest first, plus state counts.
* ``GET /jobs/<id>`` — full status: Table-1/Table-3 style result rows
  and, when the run misspeculated, a forensics summary.
* ``GET /jobs/<id>/trace`` — the per-job JSONL trace artifact
  (``trace: true`` submissions only).
* ``GET /fingerprints`` — per-fingerprint batching/cache statistics.
* ``GET /workloads`` — machine-readable submittable-workload listing
  (the ``repro workloads --json`` payload).
* ``GET /metrics`` / ``/metrics.prom`` / ``/health`` — the
  :class:`~repro.obs.server.StatusServer` observability surface, served
  from the same process so ``service.*`` / ``job.<id>.*`` metrics are
  scrapeable mid-drain.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional

from ..obs.history import HistorySampler, resolve_history_dir
from ..obs.log import get_logger
from ..obs.server import DEFAULT_HOST, StatusServer
from .frontend_cache import FrontEndCache
from .jobstore import DEFAULT_QUEUE_DEPTH, JobStore, QueueFull
from .scheduler import Scheduler
from .serializers import (
    ValidationError,
    envelope,
    error_payload,
    parse_submit,
)

log = get_logger("service.app")

#: Environment variable supplying a default ``repro serve`` port.
SERVE_PORT_ENV = "REPRO_SERVE_PORT"

#: Environment variable bounding the submit queue (backpressure knob).
SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE"

#: Default ``repro serve`` port when neither flag nor env supplies one.
DEFAULT_SERVE_PORT = 8517

#: Submit bodies above this size are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


def resolve_serve_port(port: Optional[int] = None) -> int:
    """Resolve the service port: explicit flag > ``REPRO_SERVE_PORT`` >
    :data:`DEFAULT_SERVE_PORT`.  Port 0 asks the kernel for an ephemeral
    port (see :attr:`ServiceApp.port` for the resolved value)."""
    if port is not None:
        return port
    raw = os.environ.get(SERVE_PORT_ENV, "").strip()
    if not raw:
        return DEFAULT_SERVE_PORT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{SERVE_PORT_ENV}={raw!r} is not an integer port")
    if not 0 <= value <= 65535:
        raise ValueError(f"{SERVE_PORT_ENV}={value} is outside [0, 65535]")
    return value


def resolve_queue_depth(depth: Optional[int] = None) -> int:
    """Resolve the submit-queue bound: explicit flag >
    ``REPRO_SERVE_QUEUE`` > :data:`~repro.service.jobstore.DEFAULT_QUEUE_DEPTH`."""
    if depth is None:
        raw = os.environ.get(SERVE_QUEUE_ENV, "").strip()
        if not raw:
            return DEFAULT_QUEUE_DEPTH
        try:
            depth = int(raw)
        except ValueError:
            raise ValueError(
                f"{SERVE_QUEUE_ENV}={raw!r} is not an integer queue depth")
    if depth < 1:
        raise ValueError(f"queue depth must be >= 1 (got {depth})")
    return depth


def workloads_payload() -> Dict[str, object]:
    """Machine-readable listing of the submittable workloads — the body
    of ``GET /workloads`` and of ``repro workloads --json``."""
    from ..workloads import ALL_WORKLOADS

    return {
        "workloads": [
            {
                "name": w.name,
                "suite": w.suite,
                "description": w.description,
                "args_schema": {
                    "arity": len(w.train),
                    "type": "integer",
                    "positional": True,
                },
                "train_args": list(w.train),
                "ref_args": list(w.ref),
                "alt_args": list(w.alt),
            }
            for w in ALL_WORKLOADS
        ],
    }


class ServiceApp:
    """The assembled service: job store + scheduler + HTTP front end.

    Construction wires the tiers together but binds nothing; use
    :meth:`start`/:meth:`stop` or the context manager.  Tests inject a
    private registry/tracer (the :class:`StatusServer` pattern) so
    service metrics don't leak across cases.
    """

    def __init__(self, port: int = 0, host: str = DEFAULT_HOST,
                 queue_depth: Optional[int] = None, retain: int = 256,
                 registry=None, tracer=None,
                 spool_dir: Optional[str] = None,
                 history_dir: Optional[str] = None):
        self.store = JobStore(queue_depth=resolve_queue_depth(queue_depth),
                              retain=retain, registry=registry)
        self._own_spool = spool_dir is None
        self.spool_dir = (tempfile.mkdtemp(prefix="repro-serve-")
                          if spool_dir is None else spool_dir)
        #: Compiled-before sources: validation (handler threads) and the
        #: cold path (scheduler thread) share it.
        self.frontend = FrontEndCache(registry=registry)
        self.scheduler = Scheduler(self.store, self.spool_dir,
                                   registry=registry, tracer=tracer,
                                   frontend=self.frontend)
        #: Metrics history ring (``repro dash`` substrate); enabled by
        #: the ``--history-dir`` flag or ``$REPRO_HISTORY_DIR``.
        history = resolve_history_dir(history_dir)
        self.history: Optional[HistorySampler] = (
            None if history is None else
            HistorySampler(history, registry=registry))
        #: Never started: composed purely for its payload methods, so
        #: ``/metrics`` here and a standalone StatusServer stay identical.
        self.status = StatusServer(registry=registry, tracer=tracer)
        self.registry = self.store.registry
        self._requested = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- request handling --------------------------------------------------

    def handle_submit(self, payload: object):
        """Validate + fingerprint a submit body and register the job.

        Returns ``(http_status, body, headers)``; all service errors are
        raised as :class:`ValidationError`/:class:`QueueFull` by the
        layers below and mapped here.
        """
        self.registry.counter("service.http.submits").inc()
        t0 = time.monotonic()
        try:
            spec = parse_submit(payload)
        except ValidationError as e:
            return 400, error_payload("invalid submission", e.errors), {}
        try:
            fingerprint, seen = self.frontend.fingerprint(spec.source,
                                                          spec.name)
        except Exception as e:  # noqa: BLE001 - guest compile errors
            return 400, error_payload(
                f"source does not compile: {e}",
                [f"source: {type(e).__name__}: {e}"]), {}
        validate_s = time.monotonic() - t0
        try:
            job = self.store.submit(spec, fingerprint,
                                    validate_s=validate_s,
                                    frontend="hit" if seen else "miss")
        except QueueFull as e:
            retry = max(1, round(e.retry_after_s))
            return 429, error_payload(str(e)), {"Retry-After": str(retry)}
        status = 200 if job.cache_hit else 202
        return status, envelope({"job": job.to_json()}), {}

    def job_payload(self, job_id: str):
        found = self.store.job_payload(job_id)
        if found is None:
            return 404, error_payload(f"unknown job {job_id!r}"), {}
        return 200, envelope({"job": found}), {}

    def trace_payload(self, job_id: str):
        """The raw JSONL trace artifact for a traced, finished job."""
        job = self.store.get(job_id)
        if job is None:
            return 404, error_payload(f"unknown job {job_id!r}"), {}
        if not job.spec.trace:
            return 404, error_payload(
                f"job {job_id} was not submitted with trace: true"), {}
        if job.trace_path is None:
            return 404, error_payload(
                f"job {job_id} has no trace yet (state: {job.state})"), {}
        try:
            data = Path(job.trace_path).read_bytes()
        except OSError as e:
            return 404, error_payload(f"trace artifact unavailable: {e}"), {}
        return 200, data, {"Content-Type": "application/x-ndjson"}

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self) -> Optional[str]:
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceApp":
        """Bind the HTTP server and start the scheduler; idempotent."""
        if self._httpd is not None:
            return self
        app = self
        self.scheduler.start()
        if self.history is not None:
            self.history.start()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _reply(self, status: int, body, headers=None) -> None:
                if isinstance(body, (dict, list)):
                    body = json.dumps(body, sort_keys=True,
                                      default=str).encode()
                    content_type = "application/json"
                else:
                    content_type = "text/plain; version=0.0.4"
                headers = dict(headers or {})
                content_type = headers.pop("Content-Type", content_type)
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for key, value in headers.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

            def _route_get(self, path: str):
                if path == "/health":
                    body = app.status.health_payload()
                    body["jobs"] = app.store.counts()
                    body["scheduler"] = ("running" if app.scheduler.alive
                                         else "stopped")
                    return 200, body, {}
                if path == "/metrics":
                    return 200, app.status.metrics_payload(), {}
                if path == "/metrics.prom":
                    return 200, app.status.prometheus_text().encode(), {}
                if path == "/workloads":
                    return 200, envelope(workloads_payload()), {}
                if path == "/fingerprints":
                    return 200, app.store.fingerprint_payload(), {}
                if path == "/jobs":
                    return 200, envelope({"jobs": app.store.list_payload(),
                                          "counts": app.store.counts()}), {}
                if path.startswith("/jobs/"):
                    rest = path[len("/jobs/"):]
                    if rest.endswith("/trace"):
                        return app.trace_payload(rest[:-len("/trace")])
                    if "/" not in rest:
                        return app.job_payload(rest)
                return 404, error_payload(
                    f"unknown path {path!r}",
                    ["endpoints: POST /jobs; GET /jobs, /jobs/<id>, "
                     "/jobs/<id>/trace, /fingerprints, /workloads, "
                     "/metrics, /metrics.prom, /health"]), {}

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                app.registry.counter("service.http.requests").inc()
                try:
                    status, body, headers = self._route_get(path)
                    if status >= 400:
                        app.registry.counter("service.http.errors").inc()
                    self._reply(status, body, headers)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away mid-reply; nothing to do

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                app.registry.counter("service.http.requests").inc()
                try:
                    if path != "/jobs":
                        status, body, headers = 404, error_payload(
                            f"POST {path!r} is not an endpoint "
                            "(POST /jobs submits a job)"), {}
                    else:
                        status, body, headers = self._submit()
                    if status >= 400:
                        app.registry.counter("service.http.errors").inc()
                    self._reply(status, body, headers)
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def _submit(self):
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    return 400, error_payload("bad Content-Length"), {}
                if length > MAX_BODY_BYTES:
                    return 413, error_payload(
                        f"body exceeds {MAX_BODY_BYTES} bytes"), {}
                raw = self.rfile.read(length) if length else b""
                try:
                    payload = json.loads(raw.decode() or "null")
                except (UnicodeDecodeError, json.JSONDecodeError) as e:
                    return 400, error_payload(f"body is not JSON: {e}"), {}
                return app.handle_submit(payload)

            def log_message(self, fmt: str, *args: object) -> None:
                log.debug("serve: " + fmt, *args)

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve",
            daemon=True)
        self._thread.start()
        log.info("job API serving on %s", self.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, finish the in-flight job,
        join every owned thread; idempotent."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self.scheduler.stop()
        if self.history is not None:
            self.history.stop()

    def __enter__(self) -> "ServiceApp":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
