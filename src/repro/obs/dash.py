"""``python -m repro dash`` — self-contained HTML dashboard from the
metrics history ring.

Reads the bounded JSONL ring written by
:class:`~repro.obs.history.HistorySampler` (``repro serve
--history-dir`` / ``$REPRO_HISTORY_DIR``) and renders one static HTML
file: throughput (jobs/s), latency p50/p99, misspeculation rate, and
queue depth as inline SVG sparklines, plus a current-values table, built
from the cards, table and palette of :mod:`repro.obs.page` (the page kit
of the forensics HTML report).

Rates come from the pairwise readers of :mod:`repro.obs.snapshot`, the
ones ``repro top`` applies to its previous and current polls, mapped
over consecutive records.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence

from .history import HISTORY_DIR_ENV, read_history, resolve_history_dir
from .page import card, esc, page, table
from .snapshot import Snapshot, fmt_us, misspec_rate, rate, stamp, value

#: Sparkline viewport (CSS pixels).
SPARK_W = 260
SPARK_H = 48

Series = List[Optional[float]]


def _pairwise(records: List[Snapshot],
              fn: Callable[[Snapshot, Snapshot], Optional[float]]) -> Series:
    """``fn`` over each pair of consecutive records (None for the
    first record, which has no predecessor)."""
    return [None][:len(records)] + [fn(a, b)
                                     for a, b in zip(records, records[1:])]


def series_rate(records: List[Snapshot], name: str) -> Series:
    """Per-record rate of a monotonic counter (None for the first
    record and across non-positive time gaps)."""
    return _pairwise(records, lambda a, b: rate(a, b, name))


def misspec_rate_series(records: List[Snapshot]) -> Series:
    """Windowed misspeculation rate: misspecs per attempted epoch
    between consecutive records."""
    return _pairwise(records, misspec_rate)


def _field(rec: Snapshot, name: str, field: str) -> Optional[float]:
    entry = (rec.get("metrics") or {}).get(name)
    v = entry.get(field) if isinstance(entry, dict) else None
    return float(v) if isinstance(v, (int, float)) else None


def sparkline(values: Sequence[Optional[float]],
              width: int = SPARK_W, height: int = SPARK_H) -> str:
    """Inline SVG sparkline in the palette's series color; gaps (None)
    break the polyline."""
    points = [v for v in values if v is not None]
    if not points:
        return (f'<svg width="{width}" height="{height}">'
                f'<text x="4" y="{height - 6}" class=muted '
                f'fill="currentColor" font-size="11">no data</text></svg>')
    lo, span = min(points), (max(points) - min(points)) or 1.0
    n = max(1, len(values) - 1)
    pad = 3
    # Runs of consecutive non-None samples, as "x,y" points.
    segments = [[f"{pad + i / n * (width - 2 * pad):.1f},"
                 f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
                 for i, v in run]
                for gap, run in groupby(enumerate(values),
                                        key=lambda iv: iv[1] is None)
                if not gap]
    marks = "".join(
        f'<polyline fill="none" style="stroke:var(--series-1)" '
        f'stroke-width="1.5" points="{" ".join(seg)}"/>' if len(seg) > 1
        else (f'<circle cx="{seg[0].split(",")[0]}" '
              f'cy="{seg[0].split(",")[1]}" r="1.5" '
              f'style="fill:var(--series-1)"/>')
        for seg in segments)
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">{marks}</svg>')


def render_dash_html(records: List[Snapshot], source: str = "") -> str:
    """The full dashboard HTML (one self-contained page)."""
    num, pct = "{:,.2f}".format, "{:.1%}".format
    panels = [
        ("jobs completed /s",
         series_rate(records, "service.jobs.completed"), num),
        ("jobs submitted /s",
         series_rate(records, "service.jobs.submitted"), num),
        ("job latency p50",
         [_field(r, "service.job.latency_us", "p50") for r in records],
         fmt_us),
        ("job latency p99",
         [_field(r, "service.job.latency_us", "p99") for r in records],
         fmt_us),
        ("misspeculation rate", misspec_rate_series(records), pct),
        ("queue depth",
         [value(r, "service.queue.depth", 0.0) for r in records], num),
        ("retry-after hint (s)",
         [value(r, "service.retry_after_s", 0.0) for r in records], num),
    ]
    cards = ""
    for title, values, fmt in panels:
        last = next((v for v in reversed(values) if v is not None), None)
        now = "-" if last is None else fmt(last)
        cards += card(title, f"<p class=sub>{esc(now)}</p>"
                      + sparkline(values))
    metrics = (records[-1].get("metrics") or {}) if records else {}
    rows = (f"<tr><td class=mono>{esc(name)}</td>"
            f"<td class=mono>{esc(_fmt_entry(entry))}</td></tr>"
            for name, entry in sorted(metrics.items())
            if isinstance(entry, dict) and name.startswith("service."))
    span_s = stamp(records[-1]) - stamp(records[0]) if records else 0.0
    meta = f"{len(records)} snapshot(s) spanning {span_s:.0f}s" + (
        f" · {source}" if source else "")
    return page("repro dash", (
        f"<h1>repro dash</h1><p class=sub>{esc(meta)}</p>"
        f"<div class=strip>{cards}</div>"
        + table(rows, ("service metric (latest)", "value"))))


def _fmt_entry(entry: Dict[str, object]) -> str:
    if entry.get("type") == "histogram":
        return (f"count={entry.get('count')} "
                f"p50={fmt_us(entry.get('p50'))} "
                f"p99={fmt_us(entry.get('p99'))}")
    v = entry.get("value")
    return "-" if v is None else f"{v}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dash",
        description="render a self-contained HTML dashboard from the "
                    "metrics history ring written by `repro serve "
                    f"--history-dir` (or ${HISTORY_DIR_ENV})")
    parser.add_argument("--history-dir", default=None,
                        help="history directory (or file); defaults to "
                             f"${HISTORY_DIR_ENV}")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the HTML here (default: stdout)")
    args = parser.parse_args(argv)
    source = resolve_history_dir(args.history_dir)
    if source is None:
        print(f"error: no history: pass --history-dir or set "
              f"${HISTORY_DIR_ENV}", file=sys.stderr)
        return 2
    records = read_history(source)
    if not records:
        print(f"error: no history records under {source!r} (is the "
              "server running with history enabled?)", file=sys.stderr)
        return 1
    page = render_dash_html(records, source=str(source))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(page)
        print(f"wrote {args.out} ({len(records)} snapshot(s))")
    else:
        sys.stdout.write(page)
    return 0


if __name__ == "__main__":
    sys.exit(main())
