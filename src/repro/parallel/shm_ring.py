"""Shared-memory ring transport for pool-backend epoch fragments.

The persistent-pool backend (:mod:`repro.parallel.pool_backend`, see
docs/BACKENDS.md §"pool") ships the private-heap payload of every packed
format-3 :class:`~repro.runtime.fragments.EpochFragment` — the interval
runs and the ``write_kinds``/``write_values`` byte blobs — through one
:class:`multiprocessing.shared_memory.SharedMemory` segment per pool
worker instead of pickling it over the control pipe.  The child writes
the payload with ``memoryview`` slice stores, the parent reads it back
the same way, and an ``(offset, length)`` descriptor crosses the
(pickled) control pipe in its place.  The fragment's reduction runs do
not come this way: they are already packed bytes, a few objects per
fragment, and ride in the pickled header beside the descriptor.

Synchronization is by construction, not by locking: each ring has
exactly one producer (its pool worker) and one consumer (the parent),
and the parent fully consumes an epoch's payloads before it dispatches
the next epoch command to that worker, so at most one generation of
payloads is ever live per ring.  Allocation is therefore **epoch
scoped**: the producer calls :meth:`ShmRing.begin_epoch` when a new
plan arrives (the previous generation is dead by then, so the cursor
rewinds to 0) and :meth:`ShmRing.alloc` bump-allocates from there.
``alloc`` never wraps — a multiplexed child ships one payload per
hosted worker id per epoch, and wrapping mid-epoch would overwrite an
earlier payload the parent has not read yet.  Any payload that does
not fit in the remaining tail reports ``None`` and the caller falls
back to shipping those bytes on the control pipe (flagged, counted
under ``pool.ring_overflows`` — see docs/BACKENDS.md §"transport
formats").

Ring capacity comes from ``REPRO_POOL_RING_KB`` (default 256 KiB per
worker); segments are named ``repro-pool-<pid>-<index>-<seq>`` so leak
checks can grep ``/dev/shm`` for stragglers, and the parent closes and
unlinks every segment when the executor shuts down.
"""

from __future__ import annotations

import os
import struct
from multiprocessing import shared_memory
from typing import Optional, Tuple

from ..obs.log import get_logger

log = get_logger("shm_ring")

#: Environment variable sizing each per-worker ring, in KiB.
RING_KB_ENV = "REPRO_POOL_RING_KB"

#: Default per-worker ring capacity (KiB).
DEFAULT_RING_KB = 256

#: Smallest ring the env knob may configure (one page).
MIN_RING_BYTES = 4096

#: Fragment payload header: counts of read-live-in runs, write runs and
#: epoch-written runs, then the kinds/values blob lengths.
_HEADER = struct.Struct("<5Q")

#: One signed 64-bit little-endian integer (run coordinates).
_I64 = struct.Struct("<q")


def ring_capacity_from_env(env: Optional[str] = None) -> int:
    """Resolve the per-worker ring capacity in bytes from
    ``REPRO_POOL_RING_KB`` (or an explicit override), clamped to at
    least :data:`MIN_RING_BYTES`.  A malformed value raises
    ``ValueError`` so a typo fails loudly instead of silently running
    with the default."""
    raw = env if env is not None else os.environ.get(RING_KB_ENV)
    if raw is None or raw == "":
        return DEFAULT_RING_KB * 1024
    try:
        kb = int(raw)
    except ValueError:
        raise ValueError(
            f"{RING_KB_ENV} must be an integer number of KiB, got {raw!r}")
    if kb <= 0:
        raise ValueError(f"{RING_KB_ENV} must be positive, got {kb}")
    return max(MIN_RING_BYTES, kb * 1024)


class ShmRing:
    """Single-producer bump-allocated ring over one shared segment.

    The parent constructs it with ``create=True``; forked children
    inherit the mapping (the ``SharedMemory`` object survives ``fork``,
    no re-attach needed).  ``begin_epoch``/``alloc`` are only ever
    called on one side at a time — child while producing, never the
    parent — so the cursor needs no cross-process coordination.
    """

    def __init__(self, name: str, capacity: int, create: bool = True):
        self.name = name
        self.capacity = capacity
        self.shm = shared_memory.SharedMemory(
            name=name, create=create, size=capacity)
        self.cursor = 0

    # -- producer side -----------------------------------------------------

    def begin_epoch(self) -> None:
        """Start a new epoch's allocations at offset 0.

        Safe because the consumer has fully read the previous epoch's
        payloads before it dispatched the plan that triggers this call
        (the one-live-generation invariant in the module docstring).
        """
        self.cursor = 0

    def alloc(self, size: int) -> Optional[int]:
        """Reserve ``size`` contiguous bytes; returns the start offset.

        Returns ``None`` when the payload does not fit in the tail left
        by this epoch's earlier allocations (caller falls back to the
        control pipe).  Never wraps: every allocation since the last
        :meth:`begin_epoch` is still live — a multiplexed child ships
        several payloads per epoch — and wrapping would silently
        overwrite one before the parent reads it.
        """
        if self.cursor + size > self.capacity:
            return None
        offset = self.cursor
        self.cursor += size
        return offset

    def write(self, offset: int, data) -> None:
        self.shm.buf[offset:offset + len(data)] = data

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy window onto ``[offset, offset+length)``."""
        return memoryview(self.shm.buf)[offset:offset + length]

    # -- lifecycle ---------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Drop this process's mapping; ``unlink`` additionally removes
        the backing ``/dev/shm`` segment (owner side only).  A mapping
        pinned by an unreleased ``memoryview`` is reported, not silently
        leaked."""
        try:
            self.shm.close()
        except OSError:
            pass
        except BufferError:
            log.warning(
                "ring %s: mapping not closed — a memoryview into the "
                "segment is still alive (missing view.release()?)",
                self.name)
        if unlink:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


def payload_size(read_runs: int, write_runs: int, epoch_runs: int,
                 kinds_len: int, values_len: int) -> int:
    """Bytes needed to frame one fragment payload."""
    return (_HEADER.size
            + _I64.size * (2 * read_runs + 3 * write_runs + 2 * epoch_runs)
            + kinds_len + values_len)


def pack_fragment_payload(buf, offset: int, read_live_in_runs,
                          write_runs, epoch_written_runs,
                          write_kinds: bytes, write_values: bytes) -> int:
    """Pack one fragment's bulk payload into ``buf`` at ``offset``.

    ``buf`` is any writable buffer (a ring's ``shm.buf`` or a
    ``bytearray`` for the pipe fallback).  Returns the total framed
    length.  Layout: the :data:`_HEADER` counts, then the three run
    arrays as little-endian int64s, then the raw kinds and values blobs.
    """
    pos = offset
    _HEADER.pack_into(buf, pos, len(read_live_in_runs), len(write_runs),
                      len(epoch_written_runs), len(write_kinds),
                      len(write_values))
    pos += _HEADER.size
    for start, end in read_live_in_runs:
        _I64.pack_into(buf, pos, start)
        _I64.pack_into(buf, pos + 8, end)
        pos += 16
    for start, end, rel in write_runs:
        _I64.pack_into(buf, pos, start)
        _I64.pack_into(buf, pos + 8, end)
        _I64.pack_into(buf, pos + 16, rel)
        pos += 24
    for start, end in epoch_written_runs:
        _I64.pack_into(buf, pos, start)
        _I64.pack_into(buf, pos + 8, end)
        pos += 16
    buf[pos:pos + len(write_kinds)] = write_kinds
    pos += len(write_kinds)
    buf[pos:pos + len(write_values)] = write_values
    pos += len(write_values)
    return pos - offset


def unpack_fragment_payload(
    view,
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int, int], ...],
           Tuple[Tuple[int, int], ...], bytes, bytes]:
    """Inverse of :func:`pack_fragment_payload`.

    ``view`` is a buffer starting at the payload's first header byte
    (typically a :meth:`ShmRing.view` memoryview).  Returns
    ``(read_live_in_runs, write_runs, epoch_written_runs, write_kinds,
    write_values)`` in the exact container shapes
    :class:`~repro.runtime.fragments.EpochFragment` stores.
    """
    n_read, n_write, n_epoch, kinds_len, values_len = _HEADER.unpack_from(
        view, 0)
    pos = _HEADER.size
    flat = struct.unpack_from(
        f"<{2 * n_read + 3 * n_write + 2 * n_epoch}q", view, pos)
    pos += 8 * (2 * n_read + 3 * n_write + 2 * n_epoch)
    read_runs = tuple(
        (flat[2 * i], flat[2 * i + 1]) for i in range(n_read))
    base = 2 * n_read
    write_runs = tuple(
        (flat[base + 3 * i], flat[base + 3 * i + 1], flat[base + 3 * i + 2])
        for i in range(n_write))
    base += 3 * n_write
    epoch_runs = tuple(
        (flat[base + 2 * i], flat[base + 2 * i + 1]) for i in range(n_epoch))
    kinds = bytes(view[pos:pos + kinds_len])
    pos += kinds_len
    values = bytes(view[pos:pos + values_len])
    return read_runs, write_runs, epoch_runs, kinds, values
