"""urllib client for the job API — the ``repro submit`` / ``repro jobs``
transport.

Stdlib-only, synchronous, loopback-oriented: a thin wrapper that speaks
the :mod:`repro.service.serializers` envelopes, maps non-2xx responses
to :class:`ServiceError` (status + server-reported field errors), and
offers a :meth:`ServiceClient.wait` poll loop with ``Retry-After``
honoring resubmission for 429 backpressure.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from .jobstore import TERMINAL_STATES


class ServiceError(RuntimeError):
    """A non-2xx service response; carries the HTTP status, the server's
    ``error`` message and its field-by-field ``errors`` list."""

    def __init__(self, status: int, message: str,
                 errors: Optional[List[str]] = None,
                 retry_after: Optional[int] = None):
        detail = f"HTTP {status}: {message}"
        if errors:
            detail += " (" + "; ".join(errors) + ")"
        super().__init__(detail)
        self.status = status
        self.errors = list(errors or [])
        self.retry_after = retry_after


def default_url(port: Optional[int] = None) -> str:
    """The serve URL implied by flags/env (see :func:`resolve_serve_port`)."""
    from .app import resolve_serve_port

    return f"http://127.0.0.1:{resolve_serve_port(port)}"


class ServiceClient:
    """Synchronous client bound to one server base URL."""

    def __init__(self, url: Optional[str] = None, timeout: float = 60.0):
        self.url = (url or default_url()).rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(self, path: str, payload: Optional[Dict] = None,
                 raw: bool = False):
        req = urllib.request.Request(self.url + path)
        if payload is not None:
            req.data = json.dumps(payload).encode()
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as e:
            body = e.read()
            try:
                parsed = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                parsed = {}
            retry_raw = e.headers.get("Retry-After")
            raise ServiceError(
                e.code, str(parsed.get("error", e.reason)),
                parsed.get("errors"),
                retry_after=int(retry_raw) if retry_raw else None,
            ) from None
        except urllib.error.URLError as e:
            raise ServiceError(
                0, f"cannot reach {self.url}: {e.reason} "
                   "(is `repro serve` running?)") from None
        if raw:
            return body.decode()
        return json.loads(body.decode())

    # -- endpoints ---------------------------------------------------------

    def submit(self, payload: Dict) -> Dict[str, object]:
        """``POST /jobs``; returns the job payload (``cache_hit`` marks a
        warm-cache answer).  429 backpressure surfaces as
        :class:`ServiceError` with ``retry_after`` set."""
        return self._request("/jobs", payload=payload)["job"]

    def submit_retrying(self, payload: Dict,
                        attempts: int = 5) -> Dict[str, object]:
        """Submit, sleeping out ``Retry-After`` on 429 up to *attempts*."""
        for attempt in range(attempts):
            try:
                return self.submit(payload)
            except ServiceError as e:
                if e.status != 429 or attempt == attempts - 1:
                    raise
                time.sleep(max(1, e.retry_after or 1))
        raise AssertionError("unreachable")

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request(f"/jobs/{job_id}")["job"]

    def jobs(self) -> Dict[str, object]:
        return self._request("/jobs")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.2) -> Dict[str, object]:
        """Poll ``GET /jobs/<id>`` until the job reaches a terminal
        state; raises :class:`TimeoutError` otherwise.  The pause between
        polls starts at 10 ms and doubles up to ``poll_s``, so a job the
        server finishes in tens of milliseconds is not reported a whole
        ``poll_s`` late."""
        deadline = time.monotonic() + timeout
        pause = min(0.01, poll_s)
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(pause)
            pause = min(poll_s, pause * 2)

    def trace(self, job_id: str) -> str:
        """The JSONL trace artifact text for a traced job."""
        return self._request(f"/jobs/{job_id}/trace", raw=True)

    def fingerprints(self) -> Dict[str, object]:
        return self._request("/fingerprints")

    def workloads(self) -> List[Dict[str, object]]:
        return self._request("/workloads")["workloads"]

    def health(self) -> Dict[str, object]:
        return self._request("/health")

    def metrics(self) -> Dict[str, object]:
        return self._request("/metrics")
