"""Reading registry snapshots: the one reader ``repro top`` and
``repro dash`` share.

A snapshot is a dict with a ``metrics`` map (metric name -> the
registry's per-metric dict) and a wall-clock stamp: ``generated_unix``
on a ``/metrics`` payload, ``ts_unix`` on a history-ring record.  Rates
are pairwise: the delta of a monotonic counter between an earlier and a
later snapshot over the gap between their stamps, so the server stays a
dumb snapshot endpoint.
"""

from __future__ import annotations

from typing import Dict, Optional

Snapshot = Dict[str, object]


def value(snap: Snapshot, name: str, default: float = 0) -> float:
    """The numeric ``value`` of metric ``name`` (``default`` if absent,
    null or not a number)."""
    entry = (snap.get("metrics") or {}).get(name)
    v = entry.get("value") if isinstance(entry, dict) else None
    return v if isinstance(v, (int, float)) else default


def misspecs(snap: Snapshot) -> float:
    """Every misspeculation counted so far: the sum of
    ``runtime.misspec.*``."""
    return sum(value(snap, name) for name in snap.get("metrics") or {}
               if name.startswith("runtime.misspec."))


def stamp(snap: Snapshot) -> float:
    """The snapshot's wall-clock time (``ts_unix`` or
    ``generated_unix``)."""
    return float(snap.get("ts_unix") or snap.get("generated_unix") or 0.0)


def rate(prev: Optional[Snapshot], cur: Snapshot,
         name: str) -> Optional[float]:
    """Per-second rate of counter ``name`` from ``prev`` to ``cur``
    (None without ``prev`` or across a non-positive time gap)."""
    if prev is None:
        return None
    dt = stamp(cur) - stamp(prev)
    if dt <= 0:
        return None
    return max(0.0, value(cur, name) - value(prev, name)) / dt


def misspec_rate(prev: Snapshot, cur: Snapshot) -> Optional[float]:
    """Misspeculations per attempted epoch (misspeculated + committed)
    from ``prev`` to ``cur``; None when nothing was attempted.  An empty
    ``prev`` gives the rate since the run began."""
    d_miss = max(0.0, misspecs(cur) - misspecs(prev))
    d_epochs = max(0.0, value(cur, "executor.epochs")
                   - value(prev, "executor.epochs"))
    attempts = d_miss + d_epochs
    return d_miss / attempts if attempts else None


def fmt_us(v: object) -> str:
    """A microsecond quantity as ``us``, ``ms`` or ``s`` (``-`` if not a
    number)."""
    if not isinstance(v, (int, float)):
        return "-"
    if v >= 1e6:
        return f"{v / 1e6:.2f}s"
    if v >= 1e3:
        return f"{v / 1e3:.1f}ms"
    return f"{v:.0f}us"
