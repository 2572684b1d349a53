"""Bounded flight recorder for the speculative runtime.

A :class:`FlightRecorder` is a fixed-capacity ring of small event dicts
(epoch outcomes, controller decisions, misspeculations with conflict
context, per-site access totals).  Recording is append-to-deque cheap so
the recorder can stay on for every run; nothing is serialised unless a
misspeculation or crash actually happens, at which point the executor
dumps a :func:`snapshot <FlightRecorder.snapshot>` as JSONL (see
``docs/FORENSICS.md`` for the line format).

The dump directory is chosen by the executor's ``flight_dir`` argument
or the ``REPRO_FLIGHT_DIR`` environment variable; with neither set no
files are ever written.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional

from ..classify.heaps import HeapKind

#: Environment variable naming the directory for flight-recorder dumps.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Version stamp written into every dump's meta line.
FLIGHT_FORMAT = 1

#: Default ring capacity (events kept; older ones are dropped, counted).
DEFAULT_CAPACITY = 512


def heap_name(tag: int) -> str:
    """Human name for a 3-bit logical-heap tag (``untagged`` for 0/unknown)."""
    try:
        return str(HeapKind(tag))
    except ValueError:
        return "untagged"


def heap_map_of(space) -> List[Dict[str, object]]:
    """Describe every live object in an AddressSpace for the dump/report.

    Sorted by base address so the report's address-space map and the
    parity tests see a deterministic order.
    """
    objects = []
    for obj in space.live_objects():
        objects.append(
            {
                "name": obj.name,
                "site": obj.site,
                "base": f"0x{obj.base:x}",
                "size": obj.size,
                "tag": obj.tag,
                "heap": heap_name(obj.tag),
            }
        )
    objects.sort(key=lambda o: int(str(o["base"]), 16))
    return objects


class FlightRecorder:
    """Fixed-capacity ring buffer of runtime forensic events.

    One instance lives on each :class:`~repro.runtime.system.RuntimeSystem`;
    the executor, checkpoint logic, and adaptive controller all append to
    it.  It is always on: every run records.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.seq = 0
        self.metadata: Dict[str, object] = {}
        self.site_totals: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, event: str, **fields: object) -> None:
        """Append one event to the ring (drops the oldest when full)."""
        fields["event"] = event
        fields["seq"] = self.seq
        self.seq += 1
        self.events.append(fields)

    def set_metadata(self, **fields: object) -> None:
        """Merge run-identifying fields into the dump's meta header."""
        self.metadata.update(fields)

    def note_site_accesses(
        self, written: Dict[str, int], read_live_in: Dict[str, int]
    ) -> None:
        """Fold one epoch's per-site byte counts into the running totals."""
        for site, count in written.items():
            entry = self.site_totals.setdefault(
                site, {"written_bytes": 0, "read_live_in_bytes": 0, "epochs": 0}
            )
            entry["written_bytes"] += count
        for site, count in read_live_in.items():
            entry = self.site_totals.setdefault(
                site, {"written_bytes": 0, "read_live_in_bytes": 0, "epochs": 0}
            )
            entry["read_live_in_bytes"] += count
        for site in set(written) | set(read_live_in):
            self.site_totals[site]["epochs"] += 1

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since the run started."""
        return max(0, self.seq - len(self.events))

    # ------------------------------------------------------------------
    # snapshot / dump
    # ------------------------------------------------------------------
    def snapshot(
        self,
        heap_map: Optional[List[Dict[str, object]]] = None,
        site_heaps: Optional[Dict[str, object]] = None,
        crash: bool = False,
    ) -> Dict[str, object]:
        """Materialise the recorder state as one JSON-able dict."""
        meta: Dict[str, object] = {
            "flight_format": FLIGHT_FORMAT,
            "crash": bool(crash),
            "events_recorded": self.seq,
            "events_kept": len(self.events),
            "dropped": self.dropped,
        }
        meta.update(self.metadata)
        verdicts = {site: str(kind) for site, kind in (site_heaps or {}).items()}
        return {
            "meta": meta,
            "heap_map": heap_map or [],
            "verdicts": verdicts,
            "site_summary": {s: dict(v) for s, v in sorted(self.site_totals.items())},
            "events": [dict(ev) for ev in self.events],
        }


def dump_lines(snapshot: Dict[str, object]) -> Iterable[str]:
    """Yield the JSONL lines of a flight dump for a snapshot dict."""
    yield json.dumps({"kind": "meta", **snapshot["meta"]}, sort_keys=True, default=str)
    yield json.dumps(
        {"kind": "heap_map", "objects": snapshot["heap_map"]}, sort_keys=True
    )
    yield json.dumps(
        {"kind": "verdicts", "site_heaps": snapshot["verdicts"]}, sort_keys=True
    )
    yield json.dumps(
        {"kind": "site_summary", "sites": snapshot["site_summary"]}, sort_keys=True
    )
    for ev in snapshot["events"]:
        yield json.dumps({"kind": "event", "data": ev}, sort_keys=True, default=str)


def write_dump(snapshot: Dict[str, object], path) -> Path:
    """Write a snapshot as a JSONL flight dump at ``path`` (dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in dump_lines(snapshot):
            fh.write(line + "\n")
    return path
