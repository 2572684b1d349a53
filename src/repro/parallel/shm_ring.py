"""Wire format of a pool-backend fragment payload.

The persistent-pool backend (:mod:`repro.parallel.pool_backend`, see
docs/BACKENDS.md §"transport formats") ships the private-heap part of
every packed format-3 :class:`~repro.runtime.fragments.EpochFragment` —
the interval runs and the ``write_kinds``/``write_values`` byte blobs —
as one struct-framed ``bytearray`` in the child's reply on its report
pipe, next to the pickled fragment header.  These three functions are
that frame: the child packs with them, the parent unpacks.

The module keeps its name from the shared-memory ring the payload used
to travel through, because ``perfbench`` imports it by that name.
"""

from __future__ import annotations

import struct
from typing import Tuple

#: Fragment payload header: counts of read-live-in runs, write runs and
#: epoch-written runs, then the kinds/values blob lengths.
_HEADER = struct.Struct("<5Q")

#: One signed 64-bit little-endian integer (run coordinates).
_I64 = struct.Struct("<q")


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

    ``buf`` is any writable buffer (the reply's ``bytearray``).
    Returns the total framed length.  Layout: the :data:`_HEADER`
    counts, then the three run arrays as little-endian int64s, then the
    raw kinds and values blobs.
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
    (a ``memoryview`` of the shipped ``bytearray``).  Returns
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
