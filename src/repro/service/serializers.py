"""Request validation and JSON envelopes for the job API.

``POST /jobs`` bodies are validated into a :class:`JobSpec` before
anything touches the pipeline: unknown fields, malformed knobs, and
unknown workload names are rejected with a field-by-field error list
(HTTP 400) rather than surfacing as a failed job.  Validation also
needs the submitted module's
:func:`~repro.profiling.serialize.module_fingerprint`, so the scheduler
can batch by fingerprint and the result cache can answer identical
resubmissions at submit time: the HTTP tier compiles a source the first
time the process sees it and asks its
:class:`~repro.service.frontend_cache.FrontEndCache` afterwards;
:func:`fingerprint_source` is the uncached reference.

Every response body carries ``service_format`` (the payload version) so
clients and the schema validator (``python -m repro.obs.schema --job``)
can reject incompatible servers.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..parallel.backend import BackendError, processes_for

#: Version stamp on every service JSON payload.
SERVICE_FORMAT = 1

#: Fields accepted in a ``POST /jobs`` body.
SUBMIT_FIELDS = {
    "workload", "source", "name", "args", "train_args", "workers",
    "backend", "pool_workers", "checkpoint_period", "misspec_period",
    "misspec_burst", "adapt", "trace", "small",
}


class ValidationError(ValueError):
    """A submit payload failed validation; ``errors`` lists every
    field-level problem found (not just the first)."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class JobSpec:
    """A validated job submission: what to run and how."""

    #: MiniC source text (resolved from the workload registry when the
    #: client submitted a ``workload`` name).
    source: str
    #: Display name (workload name or client-supplied ``name``).
    name: str
    #: Profiling input (the paper's *train* set).
    train_args: Tuple[int, ...]
    #: Evaluation input (the paper's *ref* set).
    args: Tuple[int, ...]
    #: Registered workload name, when the job was submitted by name.
    workload: Optional[str] = None
    workers: int = 4
    #: Team size P, the parent included: what the payload's ``backend``
    #: and ``pool_workers`` name (:func:`processes_for`).
    processes: int = 1
    checkpoint_period: Optional[int] = None
    misspec_period: int = 0
    misspec_burst: int = 0
    adapt: bool = False
    #: Record a JSONL trace of the run (served on ``/jobs/<id>/trace``).
    trace: bool = False

    def knobs(self) -> Dict[str, object]:
        """The execution knobs, for echoing back in job payloads."""
        return {
            "workers": self.workers,
            "processes": self.processes,
            "checkpoint_period": self.checkpoint_period,
            "misspec_period": self.misspec_period,
            "misspec_burst": self.misspec_burst,
            "adapt": self.adapt,
            "trace": self.trace,
        }

    def cache_key(self, fingerprint: str) -> str:
        """Warm-result-cache key: the module fingerprint plus every input
        and knob that can change the observable result.  ``trace`` is
        deliberately excluded — a traced and an untraced run of the same
        job compute the same result (but a cache hit serves no trace)."""
        h = hashlib.sha256()
        h.update(fingerprint.encode())
        h.update(repr((self.train_args, self.args, self.workers,
                       self.processes, self.checkpoint_period,
                       self.misspec_period, self.misspec_burst,
                       self.adapt)).encode())
        return h.hexdigest()[:24]


def _int_field(payload: Dict, key: str, errors: List[str],
               minimum: Optional[int] = None,
               default: Optional[int] = None) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{key}: expected an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum} (got {value})")
        return default
    return value


def _args_field(payload: Dict, key: str,
                errors: List[str]) -> Optional[Tuple[int, ...]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value):
        errors.append(f"{key}: expected a list of integers, got {value!r}")
        return None
    return tuple(value)


def _bool_field(payload: Dict, key: str, errors: List[str],
                default: bool = False) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        errors.append(f"{key}: expected a boolean, got {value!r}")
        return default
    return bool(value)


def parse_submit(payload: object) -> JobSpec:
    """Validate a ``POST /jobs`` body into a :class:`JobSpec`.

    Raises :class:`ValidationError` carrying *all* problems found.  A
    submission names either a registered ``workload`` (args default to
    its ref set, or its train set with ``small: true``) or ships inline
    MiniC ``source`` (args default to empty).
    """
    if not isinstance(payload, dict):
        raise ValidationError(["body must be a JSON object"])
    errors: List[str] = []
    for key in sorted(set(payload) - SUBMIT_FIELDS):
        errors.append(f"{key}: unknown field (accepted: "
                      f"{', '.join(sorted(SUBMIT_FIELDS))})")

    workload = payload.get("workload")
    source = payload.get("source")
    if (workload is None) == (source is None):
        errors.append("exactly one of 'workload' or 'source' is required")
    if workload is not None and not isinstance(workload, str):
        errors.append(f"workload: expected a workload name, got {workload!r}")
        workload = None
    if source is not None and not isinstance(source, str):
        errors.append(f"source: expected MiniC source text, got {source!r}")
        source = None

    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        errors.append(f"name: expected a string, got {name!r}")
        name = None

    args = _args_field(payload, "args", errors)
    train_args = _args_field(payload, "train_args", errors)
    small = _bool_field(payload, "small", errors)

    workers = _int_field(payload, "workers", errors, minimum=1, default=4)
    pool_workers = _int_field(payload, "pool_workers", errors, minimum=1)
    try:
        processes = processes_for(payload.get("backend"), workers or 4,
                                  pool_workers)
    except BackendError as e:
        errors.append(f"backend: {e}")
    checkpoint_period = _int_field(payload, "checkpoint_period", errors,
                                   minimum=2)
    misspec_period = _int_field(payload, "misspec_period", errors,
                                minimum=0, default=0) or 0
    misspec_burst = _int_field(payload, "misspec_burst", errors,
                               minimum=0, default=0) or 0
    adapt = _bool_field(payload, "adapt", errors)
    trace = _bool_field(payload, "trace", errors)

    if workload is not None:
        from ..workloads import BY_NAME

        w = BY_NAME.get(workload)
        if w is None:
            errors.append(f"workload: unknown workload {workload!r} "
                          f"(available: {', '.join(sorted(BY_NAME))}; "
                          f"see `repro workloads --json`)")
        else:
            source = w.source
            name = name or w.name
            train_args = train_args if train_args is not None else w.train
            if args is None:
                args = w.train if small else w.ref
    if errors:
        raise ValidationError(errors)
    assert source is not None
    return JobSpec(
        source=source,
        name=name or "submitted",
        workload=workload,
        train_args=train_args if train_args is not None else (args or ()),
        args=args or (),
        workers=workers or 4,
        processes=processes,
        checkpoint_period=checkpoint_period,
        misspec_period=misspec_period,
        misspec_burst=misspec_burst,
        adapt=adapt,
        trace=trace,
    )


def fingerprint_source(source: str, name: str) -> str:
    """Compile the submitted module and return its pre-transform
    fingerprint (the batching and cache key component).  Compilation
    errors propagate — the HTTP tier maps them to a 400."""
    from ..frontend.lower import compile_minic
    from ..profiling.serialize import module_fingerprint

    return module_fingerprint(compile_minic(source, name))


def envelope(data: Dict[str, object]) -> Dict[str, object]:
    """Wrap a response body with the service format stamp and wall-clock
    generation time (mirrors the ``/metrics`` envelope shape)."""
    out: Dict[str, object] = {
        "service_format": SERVICE_FORMAT,
        "generated_unix": time.time(),
    }
    out.update(data)
    return out


def error_payload(message: str,
                  errors: Optional[List[str]] = None) -> Dict[str, object]:
    """The JSON body of every non-2xx service response."""
    return envelope({
        "error": message,
        "errors": list(errors or []),
    })
