"""The routes of ``repro serve``: the job API on the status server.

The one HTTP server of the source (:class:`~repro.obs.server.StatusServer`)
runs with :meth:`ServiceApp.route` in front of the :class:`JobStore` and
the :class:`Scheduler`.  Handler threads only parse, validate, and snapshot —
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
* ``GET /metrics`` / ``/metrics.prom`` / ``/health`` — the status
  server's own endpoints (``/health`` adds job counts and the scheduler
  state), so ``service.*`` / ``job.<id>.*`` metrics are scrapeable
  mid-drain.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from ..obs.history import HistorySampler, resolve_history_dir
from ..obs.log import get_logger
from ..obs.server import DEFAULT_HOST, BodyError, Reply, StatusServer
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
    """The assembled service: job store + scheduler + the status server
    with :meth:`route` as its route.

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
        self.server = StatusServer(port=port, host=host, registry=registry,
                                   tracer=tracer, route=self.route)
        self.registry = self.store.registry

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

    # -- routing -----------------------------------------------------------

    def route(self, method: str, path: str,
              read_body: Callable[[], bytes]) -> Reply:
        """Every request the server receives (a
        :data:`~repro.obs.server.Route`), counted in
        ``service.http.requests`` and, when it fails, in
        ``service.http.errors``."""
        self.registry.counter("service.http.requests").inc()
        reply = (self._post(path, read_body) if method == "POST"
                 else self._get(path))
        if reply[0] >= 400:
            self.registry.counter("service.http.errors").inc()
        return reply

    def _get(self, path: str) -> Reply:
        reply = self.server.endpoint(path)
        if reply is not None:
            if path == "/health":
                reply[1]["jobs"] = self.store.counts()
                reply[1]["scheduler"] = ("running" if self.scheduler.alive
                                         else "stopped")
            return reply
        if path == "/workloads":
            return 200, envelope(workloads_payload()), {}
        if path == "/fingerprints":
            return 200, self.store.fingerprint_payload(), {}
        if path == "/jobs":
            return 200, envelope({"jobs": self.store.list_payload(),
                                  "counts": self.store.counts()}), {}
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/trace"):
                return self.trace_payload(rest[:-len("/trace")])
            if "/" not in rest:
                return self.job_payload(rest)
        return 404, error_payload(
            f"unknown path {path!r}",
            ["endpoints: POST /jobs; GET /jobs, /jobs/<id>, "
             "/jobs/<id>/trace, /fingerprints, /workloads, "
             "/metrics, /metrics.prom, /health"]), {}

    def _post(self, path: str, read_body: Callable[[], bytes]) -> Reply:
        if path != "/jobs":
            return 404, error_payload(
                f"POST {path!r} is not an endpoint "
                "(POST /jobs submits a job)"), {}
        try:
            raw = read_body()
        except BodyError as e:
            return e.status, error_payload(str(e)), {}
        try:
            payload = json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            return 400, error_payload(f"body is not JSON: {e}"), {}
        return self.handle_submit(payload)

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        return self.server.port

    @property
    def url(self) -> Optional[str]:
        return self.server.url

    def start(self) -> "ServiceApp":
        """Bind and serve, then start the scheduler (and history
        sampler); idempotent.  A port that cannot be bound raises
        OSError before any thread starts."""
        if self.server.port is not None:
            return self
        self.server.start()
        self.scheduler.start()
        if self.history is not None:
            self.history.start()
        log.info("job API serving on %s", self.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, finish the in-flight job,
        join every owned thread; idempotent."""
        self.server.stop()
        self.scheduler.stop()
        if self.history is not None:
            self.history.stop()

    def __enter__(self) -> "ServiceApp":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
