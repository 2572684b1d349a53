"""``python -m repro top`` — live terminal dashboard for a run.

Polls the ``/metrics`` JSON endpoint served by :mod:`repro.obs.server`
(or reads a saved payload) and renders epoch throughput, misspeculation
rate, adaptive-controller state, and per-worker utilization as a
full-screen text frame, refreshed in place.

Rates are derived client-side from successive polls by the pairwise
readers of :mod:`repro.obs.snapshot` (the ones ``repro dash`` maps over
its history ring).  Everything here is plain
ANSI — no curses — so it works over ssh, in CI logs (``--once``), and
piped to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import metric_sort_key, split_worker_metric
from .snapshot import fmt_us, misspec_rate, misspecs, rate, stamp, value

#: ANSI: clear screen + home (the refresh between frames).
CLEAR = "\x1b[2J\x1b[H"

#: Default poll interval in seconds.
DEFAULT_INTERVAL = 1.0


def fetch_payload(url: str, timeout: float = 5.0) -> Dict[str, object]:
    """GET the ``/metrics`` JSON payload from a status endpoint."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def _fmt_rate(r: Optional[float], unit: str) -> str:
    return "-" if r is None else f"{r:,.1f} {unit}"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def worker_rows(metrics: Dict[str, Dict[str, object]]
                ) -> List[Tuple[str, Dict[str, float]]]:
    """Group ``worker.N.*`` metrics into per-worker dicts keyed by the
    un-prefixed metric name, in numeric worker order."""
    grouped: Dict[str, Dict[str, float]] = {}
    for name in metrics:
        base, worker = split_worker_metric(name)
        if worker is None:
            continue
        entry = metrics[name]
        v = entry.get("value", entry.get("count"))
        if v is not None:
            grouped.setdefault(worker, {})[base] = v
    return sorted(grouped.items(), key=lambda kv: int(kv[0]))


def render_dashboard(payload: Dict[str, object],
                     prev: Optional[Dict[str, object]] = None,
                     width: int = 78) -> str:
    """One dashboard frame.  ``prev`` (the previous poll) turns the
    monotonic counters into rates and per-worker utilization."""
    metrics = payload.get("metrics") or {}
    run = payload.get("run") or {}
    dt = stamp(payload) - stamp(prev) if prev else 0.0

    lines: List[str] = []
    title = "repro top"
    workload = run.get("workload") or "?"
    backend = run.get("backend") or "?"
    uptime = payload.get("uptime_s")
    head = (f"{title} · {workload} · backend={backend}"
            + (f" · up {uptime:.0f}s" if isinstance(uptime, (int, float))
               and uptime else ""))
    lines.append(head[:width])
    lines.append("=" * min(width, len(head)))

    # -- throughput -------------------------------------------------------
    epochs = value(payload, "executor.epochs")
    iters = value(payload, "executor.iterations.committed")
    checkpoints = value(payload, "runtime.checkpoints")
    recoveries = value(payload, "executor.recoveries")
    # The misspeculation rate since the run began.
    run_misspec_rate = misspec_rate({}, payload) or 0.0
    epoch_rate = rate(prev, payload, "executor.epochs")
    iter_rate = rate(prev, payload, "executor.iterations.committed")
    progress_at = value(payload, "executor.progress.iteration")
    trips = value(payload, "executor.progress.trips")
    lines.append("")
    lines.append(f"epochs committed {epochs:>10,.0f}   "
                 f"({_fmt_rate(epoch_rate, 'epoch/s')})")
    lines.append(f"iterations       {iters:>10,.0f}   "
                 f"({_fmt_rate(iter_rate, 'iter/s')})")
    lines.append(f"checkpoints      {checkpoints:>10,.0f}")
    lines.append(f"misspeculations  {misspecs(payload):>10,.0f}   "
                 f"rate {run_misspec_rate:.1%}   recoveries {recoveries:,.0f}")
    if trips:
        frac = progress_at / trips
        lines.append(f"invocation       [{_bar(frac)}] "
                     f"{progress_at:,.0f}/{trips:,.0f} iters")

    # -- service tier (repro serve) ---------------------------------------
    if any(name.startswith("service.") for name in metrics):
        submitted = value(payload, "service.jobs.submitted")
        completed = value(payload, "service.jobs.completed")
        failed = value(payload, "service.jobs.failed")
        misspec_jobs = value(payload, "service.jobs.misspeculated")
        cache_hits = value(payload, "service.cache_hits")
        depth = value(payload, "service.queue.depth")
        retry = value(payload, "service.retry_after_s")
        job_rate = rate(prev, payload, "service.jobs.completed")
        latency = metrics.get("service.job.latency_us") or {}
        queue_wait = metrics.get("service.job.queue_wait_us") or {}
        lines.append("")
        lines.append("service")
        lines.append(
            f"  jobs: {submitted:,.0f} submitted  {completed:,.0f} done "
            f"({_fmt_rate(job_rate, 'job/s')})  {failed:,.0f} failed  "
            f"{misspec_jobs:,.0f} misspec  {cache_hits:,.0f} cache hits")
        lines.append(
            f"  queue depth {depth:>4,.0f}   retry-after {retry:,.1f}s   "
            f"latency p50 {fmt_us(latency.get('p50'))} "
            f"p99 {fmt_us(latency.get('p99'))}   "
            f"queue wait p99 {fmt_us(queue_wait.get('p99'))}")

    # -- adaptive controller ---------------------------------------------
    if any(name.startswith("adapt.") for name in metrics):
        lines.append("")
        lines.append("controller")
        lines.append(
            f"  epoch size {value(payload, 'adapt.epoch_size'):>6,.0f}   "
            f"windowed misspec {value(payload, 'adapt.misspec_rate'):.1%}   "
            f"grows {value(payload, 'adapt.epoch.grows'):,.0f}  "
            f"shrinks {value(payload, 'adapt.epoch.shrinks'):,.0f}  "
            f"fallbacks {value(payload, 'adapt.fallbacks'):,.0f}  "
            f"demotions {value(payload, 'adapt.demotions'):,.0f}")

    # -- resident pool ---------------------------------------------------
    if any(name.startswith("pool.") for name in metrics):
        # One fork per run; every further one has a reason.
        respawns = "  ".join(
            f"{name[len('pool.respawns.'):]} "
            f"{value(payload, name):,.0f}"
            for name in sorted(metrics)
            if name.startswith("pool.respawns.")
            and name != "pool.respawns.no_pool")
        lines.append("")
        lines.append(
            f"pool   forks {value(payload, 'pool.spawns'):,.0f}"
            f" ({respawns or 'no respawn'})   "
            f"syncs {value(payload, 'pool.syncs'):,.0f} "
            f"({value(payload, 'pool.sync_bytes') / 1024:,.1f} KiB)   "
            f"deaths {value(payload, 'pool.worker_deaths'):,.0f}")

    # -- per-worker utilization ------------------------------------------
    rows = worker_rows(metrics)
    if rows:
        prev_rows = dict(worker_rows(prev["metrics"])) if prev else {}
        lines.append("")
        lines.append(f"{'worker':>6}  {'iters':>8}  {'slices':>7}  "
                     f"{'busy':>9}  utilization")
        for worker, vals in rows:
            busy_us = vals.get("epoch.busy_us", 0.0)
            util: Optional[float] = None
            if prev and dt > 0:
                prev_busy = prev_rows.get(worker, {}).get("epoch.busy_us", 0.0)
                util = (busy_us - prev_busy) / 1e6 / dt
            elif isinstance(uptime, (int, float)) and uptime >= 1.0:
                util = busy_us / 1e6 / uptime
            lines.append(
                f"{worker:>6}  {vals.get('epoch.iterations', 0):>8,.0f}  "
                f"{vals.get('epoch.slices', 0):>7,.0f}  "
                f"{busy_us / 1e6:>8.2f}s  "
                + (f"[{_bar(util)}] {min(util, 1.0):.0%}"
                   if util is not None else "-"))
    elif run.get("backend") == "pool":
        lines.append("")
        lines.append("(no worker.N.* metrics yet — first epoch in flight)")

    # -- hottest remaining metrics ---------------------------------------
    interesting = [n for n in sorted(metrics, key=metric_sort_key)
                   if n.startswith(("runtime.shadow.", "classify.",
                                    "interp.instructions."))]
    if interesting:
        lines.append("")
        for name in interesting[:6]:
            entry = metrics[name]
            v = entry.get("value", entry.get("count", 0))
            lines.append(f"  {name:<44} {v:>14,.0f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="live terminal dashboard polling a repro status "
                    "endpoint (--status-port / REPRO_STATUS_PORT on the "
                    "run being observed)")
    parser.add_argument("--port", type=int, default=None,
                        help="status-endpoint port on --host")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--url", default=None,
                        help="full /metrics URL (overrides --host/--port)")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="render one frame from a saved /metrics JSON "
                             "payload instead of polling (implies --once)")
    parser.add_argument("--interval", type=float, default=DEFAULT_INTERVAL,
                        help="seconds between polls (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print a single frame and exit (no screen "
                             "clearing; suitable for CI logs)")
    parser.add_argument("--retries", type=int, default=10,
                        help="initial connection attempts before giving up "
                             "(the run may still be compiling)")
    args = parser.parse_args(argv)

    if args.snapshot:
        with open(args.snapshot) as fh:
            payload = json.load(fh)
        print(render_dashboard(payload))
        return 0

    if args.url:
        url = args.url
    elif args.port is not None:
        url = f"http://{args.host}:{args.port}/metrics"
    else:
        from .server import STATUS_PORT_ENV, resolve_port

        try:
            port = resolve_port(None, STATUS_PORT_ENV)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if port is None:
            print("error: no endpoint: pass --port/--url or set "
                  "REPRO_STATUS_PORT", file=sys.stderr)
            return 2
        url = f"http://{args.host}:{port}/metrics"

    payload: Optional[Dict[str, object]] = None
    for attempt in range(max(1, args.retries)):
        try:
            payload = fetch_payload(url)
            break
        except (urllib.error.URLError, OSError):
            if attempt == max(1, args.retries) - 1:
                print(f"error: cannot reach {url} after "
                      f"{max(1, args.retries)} attempt(s)", file=sys.stderr)
                return 1
            time.sleep(args.interval)
    assert payload is not None

    if args.once:
        print(render_dashboard(payload))
        return 0

    prev: Optional[Dict[str, object]] = None
    try:
        while True:
            sys.stdout.write(CLEAR + render_dashboard(payload, prev) + "\n")
            sys.stdout.flush()
            prev = payload
            time.sleep(args.interval)
            try:
                payload = fetch_payload(url)
            except (urllib.error.URLError, OSError):
                print("\n(run ended — status endpoint gone)")
                return 0
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
