"""The front-end cache of ``repro serve``: a source the process has
compiled before costs a hash and a dictionary lookup.

Keyed by a SHA-256 of ``(name, source)`` — the module name is part of
the printed IR and therefore of the fingerprint — each entry holds the
module fingerprint and a :mod:`pickle` snapshot of the module taken
straight after ``compile_minic``, before anything interprets or
transforms it.  ``POST /jobs`` validation asks :meth:`fingerprint`
instead of compiling, and the scheduler's cold path asks :meth:`module`
for a *fresh* copy to hand to
:func:`~repro.bench.pipeline.prepare_module`; the cached bytes are never
handed out as an object, since ``prepare`` mutates its module in place.

A first-seen source is compiled and verified exactly as without the
cache; a source that does not compile raises every time and leaves no
entry.  The cache lives in memory only, is shared by the HTTP handler
threads and the scheduler thread, and is bounded by
:data:`MAX_ENTRIES` and :data:`MAX_SNAPSHOT_BYTES`, least recently used
first (see docs/SERVICE.md).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

from ..obs.metrics import METRICS

if TYPE_CHECKING:
    from ..ir.module import Module

#: Sources remembered.
MAX_ENTRIES = 256

#: Total bytes of module snapshots kept.  A snapshot is ~12x its source,
#: so the largest accepted submission (1 MiB) still fits several times.
MAX_SNAPSHOT_BYTES = 64 << 20


def source_key(source: str, name: str) -> bytes:
    """Digest of one ``(name, source)`` pair (never Python ``hash()``:
    equal keys must mean equal text)."""
    h = hashlib.sha256()
    # surrogatepass: a lone surrogate in the JSON body is the lexer's to
    # reject, as it does without the cache.
    encoded = name.encode("utf-8", "surrogatepass")
    h.update(b"%d:" % len(encoded))
    h.update(encoded)
    h.update(source.encode("utf-8", "surrogatepass"))
    return h.digest()


class FrontEndCache:
    """Lock-guarded LRU of ``source key -> (fingerprint, snapshot)``.

    Publishes ``service.frontend.hits`` (a submission whose source was
    already known), ``service.frontend.misses`` (a compile this cache
    had to make, on either path) and the gauge ``service.frontend.bytes``
    into ``registry``.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else METRICS
        self._lock = threading.Lock()
        #: key -> (fingerprint, snapshot); the snapshot is empty when the
        #: module could not be pickled.
        self._entries: "OrderedDict[bytes, Tuple[str, bytes]]" \
            = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprint(self, source: str, name: str) -> Tuple[str, bool]:
        """``(module fingerprint, hit)`` of a submitted source; a miss
        compiles it, so compile errors propagate as they do from
        :func:`~repro.service.serializers.fingerprint_source`."""
        key = source_key(source, name)
        entry = self._get(key)
        if entry is not None:
            self.registry.counter("service.frontend.hits").inc()
            return entry[0], True
        return self._compile(key, source, name)[1], False

    def module(self, source: str, name: str) -> Tuple[Module, str]:
        """A pristine module of the source that the caller owns, and its
        fingerprint: unpickled from the snapshot, or compiled when the
        entry is gone or never had one."""
        key = source_key(source, name)
        entry = self._get(key)
        if entry is not None and entry[1]:
            return pickle.loads(entry[1]), entry[0]
        return self._compile(key, source, name)

    def _get(self, key: bytes) -> Optional[Tuple[str, bytes]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def _compile(self, key: bytes, source: str,
                 name: str) -> Tuple[Module, str]:
        # Imported here, as fingerprint_source() does: clients import
        # this package too, and have no use for the compiler.
        from ..frontend.lower import compile_minic
        from ..profiling.serialize import module_fingerprint

        self.registry.counter("service.frontend.misses").inc()
        # Outside the lock: a compile takes tens of milliseconds, and two
        # threads compiling one source insert equal entries.
        module = compile_minic(source, name)
        fingerprint = module_fingerprint(module)
        try:
            snapshot = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        except (RecursionError, pickle.PicklingError):
            # Too deep to snapshot: resubmissions still skip the compile
            # at validation, the cold path compiles again.
            snapshot = b""
        with self._lock:
            self._entries[key] = (fingerprint, snapshot)
            self._entries.move_to_end(key)
            held = sum(len(kept) for _, kept in self._entries.values())
            while len(self._entries) > MAX_ENTRIES \
                    or held > MAX_SNAPSHOT_BYTES:
                _, (_, evicted) = self._entries.popitem(last=False)
                held -= len(evicted)
            self.registry.gauge("service.frontend.bytes").set(held)
        return module, fingerprint
