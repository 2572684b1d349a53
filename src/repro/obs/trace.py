"""Structured tracing: spans, instant events, and Chrome trace export.

The process-wide :data:`TRACER` is the single source of truth for
observability state.  It is **disabled by default**; every instrumented
call site in the pipeline guards its work behind one attribute check
(``if TRACER.enabled:``), so the cost of the disabled path is a single
boolean load — the compiled-interpreter fast path must not regress
(``perfbench/`` reports the traced cost as ``obs.trace_overhead_x``).

Event model
-----------
Two event kinds, both carried as plain dicts so they serialize directly:

* **span** — a named duration with monotonic wall-clock ``ts_us``/
  ``dur_us`` microseconds relative to the tracer epoch, a logical lane
  ``tid`` (0 = main, 1+N = simulated worker N), and free-form ``attrs``.
  Pipeline phases (compile, profile, classify, transform, execute) and
  parallel-region invocations are spans.  Spans carry *dual* time: the
  wall clock in ``ts_us``/``dur_us`` and, where meaningful, simulated
  cycles in ``attrs`` (``cycles``, ``wall_cycles`` ...).
* **instant** — a point event: checkpoint commits, misspeculations,
  recoveries, cache hits.

Export formats
--------------
* JSONL — one event object per line via :meth:`Tracer.write_jsonl`
  (schema checked by :mod:`repro.obs.schema`).
* Chrome ``trace_event`` JSON via :meth:`Tracer.write_chrome` — loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev.  The export can
  merge a simulated-cycle :class:`~repro.parallel.timeline.Timeline`
  (Figure 5) as a second process via :func:`timeline_to_chrome`, turning
  a run into an interactive flame chart.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, TextIO

from .snapshot import fmt_us

#: Trace format version stamped into the JSONL meta header.
TRACE_FORMAT = 1

#: Conversion used when projecting simulated cycles onto the Chrome
#: trace's microsecond axis (1 "cycle" = 1/1000 us, i.e. a 1 GHz core).
CYCLES_PER_US = 1000.0

#: Lane conventions for Chrome export: the real process is pid 1, the
#: simulated machine (cycle-time Timeline) is pid 2.
WALL_PID = 1
SIM_PID = 2

#: Events shipped back from the pool backend's forked workers are
#: re-homed to one trace process per worker: pid = WORKER_PID_BASE + wid.
WORKER_PID_BASE = 10


class Span:
    """A started span; finish it with :meth:`end` (or use it as a
    context manager).  ``set`` attaches attributes at any point before
    the end — the executor uses it for simulated-cycle duals."""

    __slots__ = ("tracer", "name", "cat", "tid", "attrs", "t0", "_done")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.attrs = attrs
        self.t0 = tracer.clock()
        self._done = False

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: object) -> None:
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        self.tracer._finish_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def end(self, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects structured events with monotonic timestamps.

    Disabled by default; :meth:`enable` starts a fresh epoch.  All event
    appends take a lock, which is uncontended in the single-threaded
    simulator but keeps the tracer safe for host-threaded callers.
    """

    def __init__(self, clock=time.perf_counter):
        self.enabled = False
        self.clock = clock
        self.events: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._epoch = clock()
        #: Wall-clock (UNIX) time of the tracer epoch.  Event ``ts_us``
        #: values are process-local monotonic offsets; this anchor maps
        #: them back onto the wall clock, so traces captured in different
        #: processes (parent vs shipped worker streams, or two separate
        #: runs) can be aligned after a merge.
        self.epoch_unix = time.time()
        #: Run-identifying fields merged into the JSONL meta header
        #: (version, argv, backend ... — see Tracer.set_run_metadata).
        self.run_metadata: Dict[str, object] = {}
        #: Ambient attributes merged into every recorded event (explicit
        #: event attrs win).  The service tier sets ``job``/``job_span``
        #: here so the whole causal chain of a traced job — including
        #: events recorded by forked workers, which inherit this dict —
        #: carries the job's span id without touching every call site.
        self.context: Dict[str, object] = {}
        self._span_seq = 0
        # Optional streaming JSONL sink: events are appended as they are
        # recorded so a crash mid-run loses at most the unflushed tail
        # instead of the whole buffer.  Guarded by the opening pid so
        # forked workers (which exit via os._exit) never write to it.
        self._sink: Optional[TextIO] = None
        self._sink_pid = 0
        self._atexit_registered = False

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.close_sink()

    def reset(self) -> None:
        # The span-id sequence deliberately survives resets: a service
        # scheduler re-enables the tracer per traced job, and two jobs
        # of one batch must not reuse root span ids.
        self.close_sink()
        with self._lock:
            self.events = []
            self.run_metadata = {}
            self.context = {}
            self._epoch = self.clock()
            self.epoch_unix = time.time()

    def set_run_metadata(self, **fields: object) -> None:
        """Merge run-identifying fields into the JSONL meta header."""
        self.run_metadata.update(fields)

    def set_context(self, **fields: object) -> None:
        """Merge ambient attributes propagated onto every subsequent
        event (spans, instants, and — via fork inheritance — worker
        events).  Cleared by :meth:`reset`/:meth:`clear_context`."""
        self.context.update(fields)

    def clear_context(self, *fields: str) -> None:
        """Drop the named context fields (all of them when none given)."""
        if not fields:
            self.context = {}
            return
        for field in fields:
            self.context.pop(field, None)

    def next_span_id(self) -> int:
        """Allocate a span id, unique within this process's stream.
        Spans get one automatically in ``attrs["span_id"]``; callers that
        need the id *before* the span exists (to propagate it as a
        parent reference) allocate here and pass ``span_id=`` through."""
        with self._lock:
            self._span_seq += 1
            return self._span_seq

    # -- streaming sink ----------------------------------------------------

    def open_sink(self, path) -> None:
        """Stream events to ``path`` as they are recorded.

        The meta header is written immediately (its event count is -1,
        meaning "streaming; count unknown"); a clean completion rewrites
        the file via :meth:`write_jsonl` with the final count.  The sink
        is flushed and closed via ``atexit`` so partial traces survive an
        unhandled exception mid-run."""
        self.close_sink()
        self._sink = open(path, "w")
        self._sink_pid = os.getpid()
        self._sink.write(
            json.dumps(self._meta_header(-1), sort_keys=True, default=str)
            + "\n")
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(self.close_sink)

    def close_sink(self) -> None:
        """Flush and close the streaming sink (idempotent, fork-safe)."""
        sink = self._sink
        if sink is None:
            return
        self._sink = None
        if os.getpid() != self._sink_pid:
            return
        try:
            sink.flush()
            sink.close()
        except (OSError, ValueError):
            pass

    def _sink_write(self, event: Dict[str, object]) -> None:
        """Append one event to the sink (call with the lock held)."""
        if self._sink is None or os.getpid() != self._sink_pid:
            return
        try:
            self._sink.write(json.dumps(event, sort_keys=True, default=str)
                             + "\n")
        except (OSError, ValueError):
            self._sink = None

    def _now_us(self, t: Optional[float] = None) -> float:
        return ((self.clock() if t is None else t) - self._epoch) * 1e6

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "phase", tid: int = 0,
             **attrs: object):
        """Begin a span.  Returns :data:`NULL_SPAN` when disabled, so
        ``with TRACER.span(...)`` is safe (and cheap) unconditionally.
        Every real span gets a process-unique ``attrs["span_id"]``
        (pass ``span_id=`` to pin a pre-allocated one)."""
        if not self.enabled:
            return NULL_SPAN
        attrs.setdefault("span_id", self.next_span_id())
        return Span(self, name, cat, tid, attrs)

    def _finish_span(self, span: Span) -> None:
        t1 = self.clock()
        if not self.enabled:
            return
        with self._lock:
            event = {
                "kind": "span",
                "name": span.name,
                "cat": span.cat,
                "ts_us": round(self._now_us(span.t0), 3),
                "dur_us": round(max(0.0, (t1 - span.t0) * 1e6), 3),
                "pid": WALL_PID,
                "tid": span.tid,
                "thread": threading.get_ident(),
                "attrs": {**self.context, **span.attrs},
            }
            self.events.append(event)
            self._sink_write(event)

    def instant(self, name: str, cat: str = "event", tid: int = 0,
                **attrs: object) -> None:
        if not self.enabled:
            return
        with self._lock:
            event = {
                "kind": "instant",
                "name": name,
                "cat": cat,
                "ts_us": round(self._now_us(), 3),
                "pid": WALL_PID,
                "tid": tid,
                "thread": threading.get_ident(),
                "attrs": {**self.context, **attrs},
            }
            self.events.append(event)
            self._sink_write(event)

    def emit_span(self, name: str, cat: str = "phase", tid: int = 0,
                  dur_us: float = 0.0, **attrs: object) -> None:
        """Append an already-measured span — for phases that completed
        *before* the tracer was enabled (a service job's submit-time
        validation or queue wait).  The span lands at the current
        position on the monotonic axis with the given duration; real
        wall-clock anchors belong in attrs (``submitted_unix`` ...)."""
        if not self.enabled:
            return
        attrs.setdefault("span_id", self.next_span_id())
        with self._lock:
            event = {
                "kind": "span",
                "name": name,
                "cat": cat,
                "ts_us": round(self._now_us(), 3),
                "dur_us": round(max(0.0, float(dur_us)), 3),
                "pid": WALL_PID,
                "tid": tid,
                "thread": threading.get_ident(),
                "attrs": {**self.context, **attrs},
            }
            self.events.append(event)
            self._sink_write(event)

    @contextmanager
    def capture(self) -> Iterator[List[Dict[str, object]]]:
        """Record events into a fresh list, yielded, instead of this
        stream and its sink until the block exits: a worker slice run
        in-process buffers its events as a forked worker does, for
        :meth:`absorb_worker_events`."""
        with self._lock:
            events, self.events = self.events, []
            sink, self._sink = self._sink, None
        captured = self.events
        try:
            yield captured
        finally:
            with self._lock:
                self.events, self._sink = events, sink

    def absorb_worker_events(self, wid: int,
                             events: List[Dict[str, object]]) -> None:
        """Append events shipped back from a forked worker process,
        re-homed to that worker's trace process (pid
        ``WORKER_PID_BASE + wid``) so each real worker shows up as its
        own process lane in the Chrome export.  The children share the
        tracer epoch with the parent (fork inherits it), so their
        timestamps land on the same axis."""
        if not self.enabled or not events:
            return
        pid = WORKER_PID_BASE + wid
        with self._lock:
            for ev in events:
                ev = dict(ev)
                ev["pid"] = pid
                self.events.append(ev)
                self._sink_write(ev)

    # -- export ------------------------------------------------------------

    def _meta_header(self, event_count: int) -> Dict[str, object]:
        """The JSONL meta line; ``event_count`` is -1 while streaming."""
        attrs: Dict[str, object] = {
            "trace_format": TRACE_FORMAT,
            "events": event_count,
            # Wall-clock anchor: ts_us 0 on this stream's monotonic axis
            # corresponds to this UNIX time (see Tracer.epoch_unix).
            "epoch_unix": self.epoch_unix,
        }
        if self.run_metadata:
            attrs["run"] = dict(self.run_metadata)
        return {
            "kind": "meta",
            "name": "repro-trace",
            "cat": "meta",
            "ts_us": 0.0,
            "pid": WALL_PID,
            "tid": 0,
            "attrs": attrs,
        }

    def jsonl_lines(self) -> Iterator[str]:
        yield json.dumps(self._meta_header(len(self.events)), sort_keys=True,
                         default=str)
        for ev in self.events:
            yield json.dumps(ev, sort_keys=True, default=str)

    def write_jsonl(self, path) -> int:
        """Write one event per line; returns the number of events.  Closes
        the streaming sink first (it may be the same file)."""
        self.close_sink()
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")
        return len(self.events)

    def chrome_events(self) -> List[Dict[str, object]]:
        """The wall-clock events in Chrome ``trace_event`` form."""
        out: List[Dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": WALL_PID, "tid": 0,
             "args": {"name": "repro (wall clock)"}},
            {"ph": "M", "name": "thread_name", "pid": WALL_PID, "tid": 0,
             "args": {"name": "main"}},
        ]
        named_pids = {WALL_PID}
        named_tids = {(WALL_PID, 0)}
        for ev in self.events:
            tid = ev["tid"]
            pid = ev["pid"]
            if pid not in named_pids:
                named_pids.add(pid)
                if pid >= WORKER_PID_BASE:
                    pname = f"worker process {pid - WORKER_PID_BASE}"
                else:
                    pname = f"process {pid}"
                out.append({"ph": "M", "name": "process_name", "pid": pid,
                            "tid": 0, "args": {"name": pname}})
            if (pid, tid) not in named_tids:
                named_tids.add((pid, tid))
                out.append({"ph": "M", "name": "thread_name", "pid": pid,
                            "tid": tid, "args": {"name": f"worker {tid - 1}"}})
            base = {
                "name": ev["name"], "cat": ev["cat"], "pid": pid,
                "tid": tid, "ts": ev["ts_us"], "args": dict(ev["attrs"]),
            }
            if ev["kind"] == "span":
                base["ph"] = "X"
                base["dur"] = ev["dur_us"]
            else:
                base["ph"] = "i"
                base["s"] = "t"
            out.append(base)
        return out

    def chrome_trace(self, timeline=None,
                     cycles_per_us: float = CYCLES_PER_US) -> Dict[str, object]:
        events = self.chrome_events()
        if timeline is not None:
            events.extend(timeline_to_chrome(timeline, cycles_per_us))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "format": TRACE_FORMAT,
                          "epoch_unix": self.epoch_unix},
        }

    def write_chrome(self, path, timeline=None,
                     cycles_per_us: float = CYCLES_PER_US) -> int:
        trace = self.chrome_trace(timeline, cycles_per_us)
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=1, default=str)
            fh.write("\n")
        return len(trace["traceEvents"])

    # -- summaries ---------------------------------------------------------

    def phase_summary(self) -> List[Dict[str, object]]:
        """Aggregate spans by name (count, total/max duration), in first-
        seen order — the human-readable table ``repro trace`` prints."""
        agg: Dict[str, Dict[str, object]] = {}
        for ev in self.events:
            if ev["kind"] != "span":
                continue
            row = agg.setdefault(ev["name"], {
                "name": ev["name"], "cat": ev["cat"], "count": 0,
                "total_us": 0.0, "max_us": 0.0,
            })
            row["count"] += 1
            row["total_us"] += ev["dur_us"]
            row["max_us"] = max(row["max_us"], ev["dur_us"])
        return list(agg.values())

    def render_summary(self) -> str:
        rows = self.phase_summary()
        if not rows:
            return "(no spans recorded)"
        name_w = max(len(r["name"]) for r in rows)
        lines = [f"{'span':<{name_w}}  {'count':>5}  {'total':>10}  {'max':>10}"]
        for r in rows:
            lines.append(
                f"{r['name']:<{name_w}}  {r['count']:>5}  "
                f"{fmt_us(r['total_us']):>10}  {fmt_us(r['max_us']):>10}")
        instants = sum(1 for ev in self.events if ev["kind"] == "instant")
        lines.append(f"({len(self.events)} events: "
                     f"{len(self.events) - instants} spans, "
                     f"{instants} instants)")
        return "\n".join(lines)


def timeline_to_chrome(timeline, cycles_per_us: float = CYCLES_PER_US,
                       pid: int = SIM_PID) -> List[Dict[str, object]]:
    """Convert a :class:`~repro.parallel.timeline.Timeline` (simulated
    cycle time, Figure 5) into Chrome ``trace_event`` dicts.

    Each worker becomes a thread lane (tid = worker + 1); runtime-wide
    events (spawn, checkpoint, recovery, join) land on tid 0.  Durations
    are projected onto microseconds via ``cycles_per_us`` so wall-clock
    and simulated views can sit side by side in one trace."""
    events: List[Dict[str, object]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": "simulated multicore (cycles)"}},
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
         "args": {"name": "runtime"}},
    ]
    named = {0}
    for e in timeline.events:
        tid = 0 if e.worker is None else e.worker + 1
        if tid not in named:
            named.add(tid)
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": f"worker {e.worker}"}})
        start = max(0, e.start)
        end = max(start, e.end)
        events.append({
            "name": e.label or e.kind,
            "cat": f"sim.{e.kind}",
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": start / cycles_per_us,
            "dur": (end - start) / cycles_per_us,
            "args": {"kind": e.kind, "cycles_start": e.start,
                     "cycles_end": e.end, "label": e.label},
        })
    return events


#: The process-wide tracer.  Instrumented call sites check
#: ``TRACER.enabled`` (one attribute load) before doing any work.
TRACER = Tracer()
