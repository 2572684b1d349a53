"""Disk cache for pipeline profiling results.

``prepare()`` spends nearly all of its time executing the guest program:
once for the sequential baseline and once per profiler pass.  Those
observations depend only on (module structure, entry point, input
arguments, profiler semantics), so this module memoizes them on disk
keyed by:

* the module fingerprint from :func:`repro.profiling.serialize.module_fingerprint`
  (which pins the exact instruction uids the cached site ids refer to),
* the entry point and the full train/ref argument tuples (the workload
  input-generator seed travels inside the argument tuple, so a different
  seed is a different key),
* :data:`repro.profiling.serialize.PROFILER_VERSION` and
  :data:`repro.profiling.serialize.FORMAT_VERSION`.

Cache location: ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/repro-profiles``.  Entries are standalone JSON files; a
corrupt or stale entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..profiling.serialize import (
    FORMAT_VERSION,
    PROFILER_VERSION,
    hot_report_from_dict,
    hot_report_to_dict,
    module_fingerprint,
    profile_from_dict,
    profile_to_dict,
)

CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-profiles"


def cache_key(fingerprint: str, entry: str, train_args: Sequence[object],
              ref_args: Sequence[object]) -> str:
    """Cache key for one pipeline invocation.

    ``fingerprint`` must be the :func:`module_fingerprint` of the
    *pre-transform* module: transforms mutate the IR in place, so a
    fingerprint taken afterwards would never match the next cold run's
    freshly-compiled module.
    """
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(b"|")
    h.update(entry.encode())
    h.update(b"|")
    h.update(repr(tuple(train_args)).encode())
    h.update(b"|")
    h.update(repr(tuple(ref_args)).encode())
    h.update(f"|p{PROFILER_VERSION}|f{FORMAT_VERSION}".encode())
    return h.hexdigest()[:24]


def _entry_path(key: str) -> Path:
    return cache_dir() / f"profile-{key}.json"


def load_entry(key: str, fingerprint: str) -> Optional[Dict]:
    """Return the decoded cache payload for ``key``, or None on a miss /
    unreadable or version-stale entry."""
    path = _entry_path(key)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if data.get("profiler_version") != PROFILER_VERSION:
        return None
    if data.get("fingerprint") != fingerprint:
        return None
    return data


def store_entry(key: str, fingerprint: str, payload: Dict) -> None:
    """Write ``payload`` (already JSON-serializable) under ``key``;
    failures to write are silent — the cache is best-effort."""
    payload = dict(payload)
    payload["profiler_version"] = PROFILER_VERSION
    payload["fingerprint"] = fingerprint
    path = _entry_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)
    except OSError:
        pass


__all__ = [
    "CACHE_ENV_VAR",
    "cache_dir",
    "cache_key",
    "load_entry",
    "store_entry",
    "hot_report_to_dict",
    "hot_report_from_dict",
    "profile_to_dict",
    "profile_from_dict",
]
