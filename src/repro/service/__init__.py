"""Parallelization-as-a-service: the ``repro serve`` job API tier.

The service turns the batch pipeline into a long-running HTTP API
(ROADMAP "millions-of-users" path): clients POST MiniC programs or
named workloads as *jobs*, the scheduler fingerprints each submitted
module, batches jobs sharing a fingerprint so the on-disk profile cache
and :class:`~repro.adapt.PolicyStore` warm starts are amortized across
requests, and identical ``(fingerprint, args)`` resubmissions are served
straight from the warm result cache.

Layering (see docs/SERVICE.md):

* :mod:`repro.service.serializers` — request validation and the JSON
  response envelopes;
* :mod:`repro.service.frontend_cache` — compiled-before sources: the
  fingerprint and a pristine module snapshot per ``(name, source)``;
* :mod:`repro.service.jobstore` — job lifecycle and the bounded submit
  queue (backpressure surfaces as HTTP 429 + ``Retry-After``);
* :mod:`repro.service.scheduler` — fingerprint-batched drain loop over
  a resident prepared-program cache;
* :mod:`repro.service.app` — stdlib-only threaded HTTP tier (the
  :class:`ThreadingHTTPServer` idiom of :mod:`repro.obs.server`);
* :mod:`repro.service.client` — urllib client plus the ``repro submit``
  and ``repro jobs`` CLI entry points.
"""

from .app import SERVE_PORT_ENV, SERVE_QUEUE_ENV, ServiceApp, resolve_serve_port
from .client import ServiceClient, ServiceError
from .frontend_cache import FrontEndCache
from .jobstore import (
    JOB_STATES,
    Job,
    JobStore,
    QueueFull,
    STATE_DONE,
    STATE_FAILED,
    STATE_MISSPECULATED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from .scheduler import Scheduler
from .serializers import (
    SERVICE_FORMAT,
    JobSpec,
    ValidationError,
    error_payload,
    fingerprint_source,
    parse_submit,
)

__all__ = [
    "FrontEndCache", "JOB_STATES", "Job", "JobSpec", "JobStore", "QueueFull",
    "SERVE_PORT_ENV", "SERVE_QUEUE_ENV", "SERVICE_FORMAT", "Scheduler",
    "ServiceApp", "ServiceClient", "ServiceError", "STATE_DONE",
    "STATE_FAILED", "STATE_MISSPECULATED", "STATE_QUEUED",
    "STATE_RUNNING", "ValidationError", "error_payload",
    "fingerprint_source", "parse_submit", "resolve_serve_port",
]
