"""The page kit of the self-contained HTML pages: the ``explain
--report`` run report and the ``repro dash`` dashboard.

One stylesheet (the repo's fixed visualization palette, light and dark
via CSS custom properties; status colors are reserved for outcomes and
always paired with a glyph and a label, never color alone), escaping, a
titled card with its empty state, a table, and the page around them.
No JavaScript and no external assets: a page works from ``file://``, an
artifact store or a CI log bundle.
"""

from __future__ import annotations

import html
from typing import Iterable, Optional, Sequence

#: The one stylesheet: palette custom properties, then the rules of
#: both pages (the report's epoch strip and heap tracks among them).
STYLESHEET = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-critical: #d03b3b; --status-serious: #ec835a;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5;
    --border: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --series-1: #3987e5;
  --border: rgba(255,255,255,0.10);
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; font-size: 14px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 16px;
}
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 5px 10px 5px 0; border-bottom: 1px solid var(--grid);
  vertical-align: top;
}
th { color: var(--ink-2); font-weight: 600; }
td.num { font-variant-numeric: tabular-nums; }
.muted { color: var(--ink-muted); }
.mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px; }
.strip { display: flex; flex-wrap: wrap; gap: 2px; }
.cell {
  width: 16px; height: 20px; border-radius: 3px; color: #ffffff;
  display: flex; align-items: center; justify-content: center;
  font-size: 10px; line-height: 1;
}
.cell.commit { background: var(--status-good); }
.cell.squash { background: var(--status-critical); }
.cell.sequential { background: var(--axis); color: var(--ink-1); }
.legend { display: flex; gap: 16px; margin-top: 8px; color: var(--ink-2); font-size: 12px; }
.legend .cell { display: inline-flex; margin-right: 4px; }
.legend span.item { display: flex; align-items: center; }
.heaprow { display: flex; align-items: center; margin: 6px 0; }
.heaplabel { width: 110px; flex: none; color: var(--ink-2); }
.track {
  position: relative; flex: 1; height: 18px; background: var(--page);
  border: 1px solid var(--grid); border-radius: 4px; overflow: hidden;
}
.obj {
  position: absolute; top: 2px; bottom: 2px; border-radius: 3px;
  background: var(--series-1); min-width: 4px;
}
.objlist { margin: 0 0 4px 110px; color: var(--ink-muted); font-size: 12px; }
.empty { color: var(--ink-muted); font-style: italic; }
"""


def esc(value: object) -> str:
    """HTML-escape any value's string form."""
    return html.escape(str(value))


def card(title: str, body: str, empty: Optional[str] = None) -> str:
    """A titled card; ``empty`` is the muted line shown in place of a
    blank ``body``."""
    if not body and empty is not None:
        body = f"<p class=empty>{esc(empty)}</p>"
    return f"<section class=card><h2>{esc(title)}</h2>{body}</section>"


def table(rows: Iterable[str], header: Sequence[str] = ()) -> str:
    """A table of pre-rendered ``<tr>`` rows under an optional header
    row of column titles."""
    head = ("<tr>" + "".join(f"<th>{esc(h)}</th>" for h in header)
            + "</tr>") if header else ""
    return f"<table>{head}{''.join(rows)}</table>"


def page(title: str, body: str) -> str:
    """The whole page: ``body`` under ``title`` with the stylesheet."""
    return (
        "<!DOCTYPE html><html lang=en><head><meta charset=utf-8>"
        f"<title>{esc(title)}</title>"
        '<meta name=viewport content="width=device-width, initial-scale=1">'
        f"<style>{STYLESHEET}</style></head><body>{body}</body></html>"
    )
