"""Self-contained HTML run report (no external assets).

Renders one flight snapshot plus its diagnoses as a single HTML string:
logical-heap address-space map, epoch outcome strip, conflict table, and
controller decision log, built from the cards, tables and palette of
:mod:`repro.obs.page`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.page import card, esc, page, table
from .explain import Diagnosis


def _meta_section(meta: Dict[str, object]) -> str:
    return card("Run metadata", table(
        f"<tr><th>{esc(key)}</th><td class=mono>{esc(meta[key])}</td></tr>"
        for key in sorted(meta)))


def _epoch_strip(events: List[Dict[str, object]]) -> str:
    epochs = [ev for ev in events if ev.get("event") == "epoch"]
    if not epochs:
        return card("Epoch outcomes", "", empty="no epochs recorded")
    shown = epochs[-200:]
    note = (
        f"<p class=muted>showing last {len(shown)} of {len(epochs)} epochs</p>"
        if len(shown) < len(epochs)
        else ""
    )
    glyph = {"commit": "✓", "squash": "✕", "sequential": "→"}
    cells = []
    for ev in shown:
        outcome = str(ev.get("outcome", "commit"))
        tip = f"{outcome} [{ev.get('epoch_start')}, {ev.get('epoch_end')})"
        if ev.get("misspec_iteration") is not None:
            tip += f" misspec at i={ev.get('misspec_iteration')}"
        cells.append(
            f'<span class="cell {esc(outcome)}" title="{esc(tip)}">'
            f"{glyph.get(outcome, '?')}</span>"
        )
    legend = (
        '<div class=legend>'
        '<span class=item><span class="cell commit">✓</span> committed</span>'
        '<span class=item><span class="cell squash">✕</span> squashed</span>'
        '<span class=item><span class="cell sequential">→</span> sequential span</span>'
        "</div>"
    )
    return card("Epoch outcomes",
                note + f'<div class=strip>{"".join(cells)}</div>' + legend)


def _heap_map(heap_map: List[Dict[str, object]]) -> str:
    title = "Logical heap address space"
    if not heap_map:
        return card(title, "", empty="no live objects recorded")
    by_heap: Dict[str, List[Dict[str, object]]] = {}
    for obj in heap_map:
        by_heap.setdefault(str(obj.get("heap", "untagged")), []).append(obj)
    rows = []
    for heap in sorted(by_heap):
        objs = by_heap[heap]
        bases = [int(str(o["base"]), 16) for o in objs]
        ends = [b + int(o.get("size", 0) or 0) for b, o in zip(bases, objs)]
        lo, hi = min(bases), max(ends)
        extent = max(1, hi - lo)
        bars = []
        for base, obj in zip(bases, objs):
            left = (base - lo) / extent * 100.0
            width = max(0.6, int(obj.get("size", 0) or 0) / extent * 100.0)
            tip = (
                f"{obj.get('name')} @ {obj.get('base')} "
                f"({obj.get('size')} B, site {obj.get('site') or '-'})"
            )
            bars.append(
                f'<span class=obj style="left:{left:.2f}%;width:{width:.2f}%"'
                f' title="{esc(tip)}"></span>'
            )
        rows.append(
            f"<div class=heaprow><span class=heaplabel>{esc(heap)}</span>"
            f'<div class=track>{"".join(bars)}</div></div>'
        )
        caption = ", ".join(
            f"{o.get('name')}@{o.get('base')} ({o.get('size')} B)" for o in objs[:8]
        )
        if len(objs) > 8:
            caption += f", … +{len(objs) - 8} more"
        rows.append(f"<div class=objlist>{esc(caption)}</div>")
    return card(title,
                "<p class=muted>one track per heap kind (address bits 44–46); "
                "bars are live objects, positioned within the heap's "
                "occupied extent</p>" + "".join(rows))


def _conflict_table(diagnoses: List[Diagnosis]) -> str:
    if not diagnoses:
        return card("Conflicts", "", empty="no misspeculations — clean run")
    rows = []
    for n, d in enumerate(diagnoses, start=1):
        kind = esc(d.kind) + (" <span class=muted>(injected)</span>" if d.injected else "")
        where = esc(d.object_name or "?")
        if d.offset is not None:
            where += f"+{d.offset}"
        pair = ""
        if d.writer_iteration is not None or d.reader_iteration is not None:
            pair = (
                f"{d.writer_iteration if d.writer_iteration is not None else '?'}"
                f" → {d.reader_iteration if d.reader_iteration is not None else '?'}"
            )
        rows.append(
            f"<tr><td class=num>{n}</td><td>{kind}</td><td class=num>{d.iteration}</td>"
            f"<td class=mono>{esc(d.site or '-')}</td><td class=mono>{where}</td>"
            f"<td>{esc(d.heap or '-')}"
            + (f" <span class=muted>(0b{d.heap_tag:03b})</span>" if d.heap_tag is not None else "")
            + f"</td><td>{esc(d.predicted_class or '-')} → {esc(d.observed_class or '-')}</td>"
            f"<td class=num>{pair or '-'}</td><td>{esc(d.transition or d.detail)}</td></tr>"
        )
    return card("Conflicts", table(rows, (
        "#", "kind", "iter", "site", "object", "heap (tag)",
        "predicted → observed", "write → read", "shadow transition")))


def _decision_log(events: List[Dict[str, object]]) -> str:
    decisions = [ev for ev in events if ev.get("event") == "decision"]
    if not decisions:
        return card("Controller decisions", "",
                    empty="no adaptive controller decisions recorded")
    rows = []
    for ev in decisions:
        extra = {
            k: v
            for k, v in ev.items()
            if k not in ("event", "seq", "action") and v is not None
        }
        detail = ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        rows.append(
            f"<tr><td class=num>{esc(ev.get('seq'))}</td>"
            f"<td>{esc(ev.get('action'))}</td>"
            f"<td class=mono>{esc(detail)}</td></tr>"
        )
    return card("Controller decisions",
                table(rows, ("seq", "action", "detail")))


def _site_summary(site_summary: Dict[str, Dict[str, int]]) -> str:
    if not site_summary:
        return ""
    rows = []
    for site in sorted(site_summary):
        s = site_summary[site]
        rows.append(
            f"<tr><td class=mono>{esc(site)}</td>"
            f"<td class=num>{s.get('written_bytes', 0)}</td>"
            f"<td class=num>{s.get('read_live_in_bytes', 0)}</td>"
            f"<td class=num>{s.get('epochs', 0)}</td></tr>"
        )
    return card("Per-site access summary", table(rows, (
        "site", "bytes written", "live-in bytes read", "epochs touched")))


def render_html(
    snapshot: Dict[str, object],
    diagnoses: List[Diagnosis],
    title: Optional[str] = None,
) -> str:
    """Render a full, self-contained HTML report for one run."""
    meta = snapshot.get("meta", {}) or {}
    events = snapshot.get("events", []) or []
    workload = meta.get("workload") or meta.get("module") or "run"
    page_title = title or f"repro run report · {workload}"
    misspecs = len(diagnoses)
    status = (
        f"{misspecs} misspeculation(s) diagnosed" if misspecs else "clean run"
    )
    sub = (
        f"backend {meta.get('backend', '?')} · "
        f"{meta.get('events_recorded', len(events))} events recorded · {status}"
    )
    body = (
        f"<h1>{esc(page_title)}</h1><p class=sub>{esc(sub)}</p>"
        + _epoch_strip(events)
        + _heap_map(snapshot.get("heap_map", []) or [])
        + _conflict_table(diagnoses)
        + _decision_log(events)
        + _site_summary(snapshot.get("site_summary", {}) or {})
        + _meta_section(meta)
    )
    return page(page_title, body)
