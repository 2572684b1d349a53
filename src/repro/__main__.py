"""Command-line interface for the Privateer reproduction.

Usage::

    python -m repro analyze prog.c --args 64
    python -m repro run dijkstra --workers 24 --timeline
    python -m repro trace dijkstra --out-dir traces/
    python -m repro explain dijkstra --misspec-period 7 --misspec-burst 30
    python -m repro baselines prog.c --args 64
    python -m repro workloads --json
    python -m repro report > EXPERIMENTS.md
    python -m repro serve --port 8517
    python -m repro submit dijkstra --small --workers 8
    python -m repro jobs j1

A command that takes a program accepts a workload name or a MiniC
source file (one resolver) and compiles it through one ``prepare`` step.
``trace`` is ``run`` with tracing on: a JSONL event stream plus a Chrome
``trace_event`` JSON (open in chrome://tracing or
https://ui.perfetto.dev); ``run``/``analyze`` write the same with
``--trace``/``--trace-out``/``--metrics``.  One observability scope
streams the JSONL as events are recorded, writes the artifacts on every
exit, a fault included, and disarms tracing.  ``REPRO_LOG=debug`` turns on
runtime logging.

Forensics: ``explain`` runs a workload with the flight recorder armed
and prints a root-cause diagnosis for every misspeculation (offending
site, object, logical heap, conflicting iteration pair, shadow-code
transition).  ``run``/``trace``/``explain`` accept ``--report out.html``
for a self-contained HTML run report; ``$REPRO_FLIGHT_DIR`` makes any
run dump a flight record on misspeculation or crash.  See
docs/FORENSICS.md.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional, Sequence


def _at_least(floor: int, why: str):
    """An argparse type: an integer of at least ``floor``, and ``why``
    in the error below it."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {value!r}")
        if n < floor:
            raise argparse.ArgumentTypeError(
                f"must be >= {floor} (got {n}); {why}")
        return n
    return parse


#: --workers: a parallel run needs >= 1 worker.
_positive_int = _at_least(1, "a run needs at least one worker")
#: --checkpoint-period: an epoch must retire at least 2 iterations for
#: speculation to make progress.
_epoch_size = _at_least(
    2, "an epoch below 2 iterations cannot amortize a checkpoint")


def _add_execution_flags(p: argparse.ArgumentParser, workers: int) -> None:
    p.add_argument("--workers", type=_positive_int, default=workers)
    p.add_argument("--checkpoint-period", type=_epoch_size, default=None)
    p.add_argument("--misspec-period", type=int, default=0,
                   help="inject a misspeculation every N iterations")
    p.add_argument("--misspec-burst", type=int, default=0,
                   help="limit injection to the first N iterations "
                        "(0 = no limit)")
    p.add_argument("--processes", type=_positive_int, default=1,
                   metavar="P",
                   help="processes in the worker team, the parent "
                        "included: the parent hosts worker 0 and P-1 "
                        "children, forked once and resident across "
                        "epochs, the rest (default: 1, every worker in "
                        "the parent, the deterministic reference; at "
                        "most --workers)")


def _team_label(args: argparse.Namespace) -> str:
    """The report label of the team ``--processes`` and ``--workers``
    name."""
    from .parallel.backend import team_label

    return team_label(min(args.processes, args.workers))


def _add_workload_arg(p: argparse.ArgumentParser, small: bool = True) -> None:
    p.add_argument("workload", help="workload name (see `repro workloads`) "
                                    "or a MiniC source file")
    p.add_argument("--args", nargs="*",
                   help="integer arguments for main (overrides the "
                        "workload's input set)")
    if small:
        p.add_argument("--small", action="store_true",
                       help="use the train input instead of ref (CI smoke)")


def _execute_kwargs(args: argparse.Namespace) -> dict:
    """The ``PreparedProgram.execute`` keywords the execution flags set."""
    return dict(workers=args.workers,
                checkpoint_period=args.checkpoint_period,
                misspec_period=args.misspec_period,
                misspec_burst=args.misspec_burst,
                processes=args.processes,
                adapt=args.adapt)


def _add_local_run_flags(p: argparse.ArgumentParser) -> None:
    """``--report`` and ``--adapt``, for the commands that run the
    program in this process (``run``, ``trace``, ``explain``)."""
    p.add_argument("--report", default=None, metavar="OUT.html",
                   help="write a self-contained HTML run report (heap "
                        "map, epoch outcome strip, conflict table, "
                        "controller decision log)")
    p.add_argument("--adapt", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="enable the adaptive speculation controller "
                        "(AIMD epoch sizing, demotion, sequential "
                        "fallback; persists policy across runs). "
                        "Default: $REPRO_ADAPT, then off; --no-adapt "
                        "fully bypasses the subsystem")


def _print_adapt_summary(adapt) -> None:
    if adapt is None:
        return
    from .adapt import format_summary

    print(f"adapt:            {format_summary(adapt)}")


class _Target(NamedTuple):
    """The program a command was pointed at: its source, the name its
    artifacts carry, and its profiling (train) and run (ref) inputs."""

    source: str
    name: str
    train: tuple
    ref: tuple


def _resolve_workload(args: argparse.Namespace) -> Optional[_Target]:
    """Resolve the positional workload argument — a registered workload
    name or a MiniC source path — with ``--args`` (and ``--small``, where
    the command has it); prints the one shared error and returns None if
    it is neither."""
    from .workloads import BY_NAME

    explicit_args = tuple(int(v) for v in args.args) if args.args else None
    if args.workload in BY_NAME:
        w = BY_NAME[args.workload]
        small = getattr(args, "small", False)
        return _Target(w.source, w.name, w.train,
                       explicit_args or (w.train if small else w.ref))
    path = Path(args.workload)
    if path.is_file():
        train = ref = explicit_args or ()
        return _Target(path.read_text(), path.stem, train, ref)
    print(f"error: {args.workload!r} is neither a workload "
          f"({', '.join(sorted(BY_NAME))}) nor a MiniC source file",
          file=sys.stderr)
    return None


def _prepare(args: argparse.Namespace, target: _Target):
    """Take the target through :func:`prepare` with the command's cache
    and ``--adapt`` flags; prints the reasons and returns None when no
    loop can be parallelized."""
    from .bench.pipeline import prepare
    from .transform.plan import SelectionError

    # `trace` observes the full pipeline: it skips the profile cache
    # unless --cache opts back in, so the profiling phases and
    # interpreter metrics always appear in the trace.
    use_cache = args.cache if "cache" in args else not args.no_cache
    try:
        return prepare(target.source, target.name, args=target.train,
                       ref_args=target.ref, use_cache=use_cache,
                       adapt=getattr(args, "adapt", None))
    except SelectionError as e:
        print("no parallelizable loop found:")
        for reason in e.reasons:
            print(f"  - {reason}")
        return None


@contextmanager
def _observed(args: argparse.Namespace, name: str,
              trace: bool = False) -> Iterator[SimpleNamespace]:
    """The observability scope of ``analyze``, ``run`` and ``trace``.

    Tracing is armed when the command writes a trace (``trace``, or
    ``--trace``/``--trace-out``), prints ``--metrics``, or serves a
    status endpoint (``--status-port``/``$REPRO_STATUS_PORT``; in-worker
    telemetry only flows while tracing is on).  A trace streams to
    ``<prefix>.trace.jsonl`` as events are recorded, so a process that
    dies mid-run leaves a partial trace.  On every exit, a raised fault
    included, the artifacts (with the timeline the body stores in
    ``scope.timeline``) and the metrics table are written, the endpoint
    stops and tracing is disarmed.  ``scope.armed`` says whether
    artifacts or metrics were asked for."""
    from . import obs
    from .obs.server import StatusServer, resolve_status_port

    try:
        port = resolve_status_port(args.status_port)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2)
    if trace:
        prefix: Optional[Path] = Path(args.out_dir) / name
    elif args.trace or args.trace_out:
        prefix = Path(args.trace_out or name)
    else:
        prefix = None
    metrics = not trace and args.metrics
    scope = SimpleNamespace(armed=prefix is not None or metrics,
                            timeline=None)
    status = None
    if scope.armed or port is not None:
        obs.enable()
    try:
        if port is not None:
            status = StatusServer(port=port).start()
            print(f"status: {status.url}/metrics · /metrics.prom · /health "
                  f"(poll with: python -m repro top --port {status.port})")
        if prefix is not None:
            prefix.parent.mkdir(parents=True, exist_ok=True)
            obs.TRACER.open_sink(f"{prefix}.trace.jsonl")
        yield scope
    finally:
        try:
            if prefix is not None:
                jsonl = Path(f"{prefix}.trace.jsonl")
                chrome = Path(f"{prefix}.chrome.json")
                n = obs.TRACER.write_jsonl(jsonl)
                m = obs.TRACER.write_chrome(chrome, timeline=scope.timeline)
                print(f"trace: {n} event(s) -> {jsonl}")
                print(f"trace: {m} Chrome event(s) -> {chrome} (open in "
                      f"chrome://tracing or https://ui.perfetto.dev)")
            if metrics:
                print()
                print(obs.METRICS.render_table())
        finally:
            if status is not None:
                status.stop()
            obs.disable()


def _write_report(args: argparse.Namespace, snapshot, name: str) -> None:
    """Render the forensics snapshot as the self-contained HTML report
    ``--report`` asks for (nothing without the flag)."""
    if not args.report:
        return
    from .forensics import explain_snapshot, render_html

    diagnoses = explain_snapshot(snapshot)
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(snapshot, diagnoses,
                               title=f"{name} · {_team_label(args)}"))
    print(f"report: {len(diagnoses)} diagnosis(es) -> {out}")


def cmd_analyze(args: argparse.Namespace) -> int:
    target = _resolve_workload(args)
    if target is None:
        return 2
    with _observed(args, target.name):
        program = _prepare(args, target)
        if program is None:
            return 1
        print(program.assignment.describe())
        print()
        print(program.plan.describe())
    return 0


def cmd_run(args: argparse.Namespace, trace: bool = False) -> int:
    """``run``; with ``trace`` the ``trace`` command, the same run with
    tracing forced on, reported in one line plus the span summary and
    the metrics table."""
    from . import obs

    target = _resolve_workload(args)
    if target is None:
        return 2
    with _observed(args, target.name, trace) as scope:
        program = _prepare(args, target)
        if program is None:
            return 1
        result = program.execute(
            **_execute_kwargs(args),
            record_timeline=scope.armed or getattr(args, "timeline", False))
        scope.timeline = result.timeline
        ok = result.output == program.sequential.output
        stats = result.runtime_stats
        if trace:
            print(f"{target.name}: {_team_label(args)} backend, "
                  f"{args.workers} workers, "
                  f"{program.speedup(result):.2f}x speedup "
                  f"({program.sequential.cycles:,} -> "
                  f"{result.total_wall_cycles:,} cycles), "
                  f"{stats.checkpoints} checkpoint(s), "
                  f"{stats.misspec_count()} misspeculation(s), "
                  f"output match: {ok}")
            _print_adapt_summary(result.adapt)
            print()
            print(obs.TRACER.render_summary())
            print()
            print(obs.METRICS.render_table())
            print()
        else:
            sys.stdout.write("".join(result.output))
            print("---")
            print(f"backend:          {_team_label(args)}")
            print(f"workers:          {args.workers}")
            print(f"speedup:          {program.speedup(result):.2f}x "
                  f"({program.sequential.cycles:,} -> "
                  f"{result.total_wall_cycles:,} cycles)")
            print(f"output matches sequential: {ok}")
            print(f"invocations:      {stats.invocations}")
            print(f"checkpoints:      {stats.checkpoints}")
            print(f"misspeculations:  {stats.misspec_count()} "
                  f"(recoveries: {stats.recoveries})")
            _print_adapt_summary(result.adapt)
            breakdown = result.overhead_breakdown()
            print("capacity:         " + ", ".join(
                f"{k} {v:.1%}" for k, v in breakdown.items()))
            if args.timeline and result.timeline is not None:
                print()
                print(result.timeline.render())
            # `run` names its report before the trace artifacts, `trace`
            # after them.
            _write_report(args, result.forensics, target.name)
    if trace:
        _write_report(args, result.forensics, target.name)
    return 0 if ok else 1


def cmd_baselines(args: argparse.Namespace) -> int:
    from .baselines import (
        estimate_dependence_speculation,
        judge_hot_loop,
        run_doall_only,
    )
    from .bench.pipeline import run_sequential

    target = _resolve_workload(args)
    if target is None:
        return 2
    source, name, guest_args = target.source, target.name, target.ref

    seq = run_sequential(source, name, args=guest_args)
    print(f"sequential: {seq.cycles:,} cycles")

    base = run_doall_only(source, name, args=guest_args, workers=args.workers)
    print(f"DOALL-only @ {args.workers}: "
          f"{base.speedup_over(seq.cycles):.2f}x "
          f"({len(base.selected)} loop(s) proven parallel)")

    lrpd = judge_hot_loop(source, name, args=guest_args)
    print(f"LRPD applicable to hot loop: {lrpd.applicable}")
    for reason in lrpd.reasons[:3]:
        print(f"  - {reason}")

    dep = estimate_dependence_speculation(source, name, args=guest_args)
    print(f"dependence speculation: {dep.misspec_rate:.0%} of iterations "
          f"conflict (projected {dep.projected_speedup(args.workers):.2f}x)")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads import ALL_WORKLOADS

    if args.json:
        import json

        from .service.app import workloads_payload
        from .service.serializers import envelope

        print(json.dumps(envelope(workloads_payload()), indent=2,
                         sort_keys=True))
        return 0
    for w in ALL_WORKLOADS:
        print(f"{w.name:14s} [{w.suite}] train={w.train} ref={w.ref}")
        print(f"    {w.description}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the parallelization-as-a-service job API until SIGTERM/SIGINT
    (see docs/SERVICE.md).  Deliberately leaves tracing disarmed: arming
    it resets the metrics registry and would destroy the service
    counters the endpoint exists to expose."""
    import signal
    import threading

    from .service.app import ServiceApp, resolve_serve_port

    try:
        port = resolve_serve_port(args.port)
        app = ServiceApp(port=port, queue_depth=args.queue_depth,
                         retain=args.retain, history_dir=args.history_dir)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    done = threading.Event()
    previous = {}

    def _on_signal(signum, frame):
        done.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _on_signal)
    app.start()
    print(f"serve: job API on {app.url}")
    print(f"serve: POST {app.url}/jobs · GET /jobs/<id> · /jobs/<id>/trace "
          f"· /fingerprints · /workloads · /metrics · /metrics.prom "
          f"· /health")
    if app.history is not None:
        print(f"serve: metrics history ring at {app.history.path} "
              f"(render with: python -m repro dash --history-dir "
              f"{app.history.dir})")
    print(f"serve: queue depth {app.store.queue_depth}, submit with: "
          f"python -m repro submit <workload> --url {app.url}",
          flush=True)
    try:
        done.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        app.stop()
        counts = app.store.counts()
        print("serve: drained and stopped "
              f"({', '.join(f'{k}={v}' for k, v in counts.items())})")
    return 0


def _service_client(args: argparse.Namespace):
    from .service.client import ServiceClient, default_url

    try:
        url = args.url or default_url(args.port)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2)
    return ServiceClient(url, timeout=args.timeout)


def _print_job_summary(job: dict) -> None:
    state = job["state"]
    flavor = ("cache hit" if job.get("cache_hit")
              else "warm" if job.get("warm") else "cold")
    line = f"{job['id']}: {state} ({job['name']}, {flavor})"
    result = job.get("result") or {}
    if state == "done" and result:
        t1 = result.get("table1") or {}
        line += (f" speedup={t1.get('speedup')}x"
                 f" misspec={result.get('misspeculations', 0)}"
                 f" recoveries={result.get('recoveries', 0)}")
    if job.get("error"):
        line += f" error: {job['error']}"
    print(line)


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceError
    from .workloads import BY_NAME

    target = _resolve_workload(args)
    if target is None:
        return 2
    payload: dict = {"workers": args.workers}
    if args.workload in BY_NAME:
        payload["workload"] = args.workload
        if args.small:
            payload["small"] = True
    else:
        payload["source"], payload["name"] = target.source, target.name
    if args.args:
        payload["args"] = [int(v) for v in args.args]
    if args.train_args:
        payload["train_args"] = [int(v) for v in args.train_args]
    if args.processes > 1:
        payload["backend"] = "pool"
        payload["pool_workers"] = args.processes
    if args.checkpoint_period is not None:
        payload["checkpoint_period"] = args.checkpoint_period
    if args.misspec_period:
        payload["misspec_period"] = args.misspec_period
    if args.misspec_burst:
        payload["misspec_burst"] = args.misspec_burst
    if args.adapt:
        payload["adapt"] = True
    if args.trace:
        payload["trace"] = True

    client = _service_client(args)
    try:
        job = client.submit_retrying(payload)
        if args.wait and job["state"] not in ("done", "failed",
                                              "misspeculated"):
            job = client.wait(job["id"], timeout=args.timeout)
    except (ServiceError, TimeoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        _print_job_summary(job)
    if not args.wait:
        return 0
    return 0 if job["state"] == "done" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            if args.json:
                print(json.dumps(job, indent=2, sort_keys=True))
            else:
                _print_job_summary(job)
            return 0
        listing = client.jobs()
    except ServiceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    jobs = listing.get("jobs", [])
    if not jobs:
        print("(no jobs)")
        return 0
    print(f"{'id':<6} {'state':<14} {'name':<14} {'path':<9} fingerprint")
    for job in jobs:
        flavor = ("cache-hit" if job.get("cache_hit")
                  else "warm" if job.get("warm") else "cold")
        print(f"{job['id']:<6} {job['state']:<14} {job['name']:<14} "
              f"{flavor:<9} {job['fingerprint']}")
    counts = listing.get("counts", {})
    print("counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()
                                 if v))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .bench.report import main as report_main

    report_main()
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from .perf import run

    return run()


def cmd_explain(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from contextlib import nullcontext

    from .forensics import explain_snapshot, load_dump, render_text
    from .forensics.explain import to_json

    target = _resolve_workload(args)
    if target is None:
        return 2
    # Without an explicit --flight-dir the dump goes to a temp dir: the
    # diagnosis is still derived by round-tripping through the on-disk
    # artifact, but nothing is left behind.
    with (nullcontext(args.flight_dir) if args.flight_dir is not None
          else tempfile.TemporaryDirectory(prefix="repro-flight-")
          ) as flight_dir:
        program = _prepare(args, target)
        if program is None:
            return 1
        result = program.execute(**_execute_kwargs(args),
                                 flight_dir=flight_dir)
        dump_path = result.flight_dump  # type: ignore[attr-defined]
        snapshot = (load_dump(dump_path) if dump_path
                    else result.forensics)  # type: ignore[attr-defined]
        diagnoses = explain_snapshot(snapshot)
        shown = dump_path if args.flight_dir else None
        print(render_text(snapshot, diagnoses, dump_path=shown))
        if args.json:
            out = Path(args.json)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(to_json(snapshot, diagnoses),
                                      indent=2, sort_keys=True) + "\n")
            print(f"explain: JSON -> {out}")
        _write_report(args, snapshot, target.name)
    return 0


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", action="store_true",
                   help="record structured trace events and write "
                        "<stem>.trace.jsonl + <stem>.chrome.json")
    p.add_argument("--trace-out", default=None, metavar="PREFIX",
                   help="path prefix for the trace artifacts "
                        "(implies --trace)")
    p.add_argument("--metrics", action="store_true",
                   help="print the metrics table after the command")
    _add_status_flag(p)


def _add_status_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--status-port", type=int, default=None, metavar="PORT",
                   help="serve a live status endpoint on 127.0.0.1:PORT "
                        "(/metrics, /metrics.prom, /health) while the "
                        "command runs; 0 picks an ephemeral port; "
                        "defaults to $REPRO_STATUS_PORT")


def _add_client_flags(p: argparse.ArgumentParser, timeout: float,
                      timeout_help: str) -> None:
    """Where ``submit`` and ``jobs`` find the server, and how long they
    wait for it."""
    p.add_argument("--url", default=None,
                   help="server base URL (default: http://127.0.0.1:"
                        "$REPRO_SERVE_PORT)")
    p.add_argument("--port", type=int, default=None,
                   help="server port on 127.0.0.1 (ignored with --url)")
    p.add_argument("--timeout", type=float, default=timeout,
                   help=f"{timeout_help} (default: {timeout:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privateer: speculative separation for privatization "
                    "and reductions (PLDI 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profile, classify, and show the "
                                       "heap assignment and plan")
    _add_workload_arg(p, small=False)
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk profile cache")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="parallelize and execute on the "
                                   "simulated multicore")
    _add_workload_arg(p, small=False)
    _add_execution_flags(p, workers=24)
    p.add_argument("--timeline", action="store_true",
                   help="render the Figure 5 execution timeline")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk profile cache")
    _add_local_run_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="run a workload with full tracing on "
                                     "and emit JSONL + Chrome trace "
                                     "artifacts")
    _add_workload_arg(p)
    _add_execution_flags(p, workers=24)
    p.add_argument("--out-dir", default=".",
                   help="directory for <name>.trace.jsonl and "
                        "<name>.chrome.json (default: .)")
    p.add_argument("--cache", action="store_true",
                   help="allow the on-disk profile cache (default: off, so "
                        "the trace covers the whole pipeline)")
    _add_local_run_flags(p)
    _add_status_flag(p)
    p.set_defaults(func=lambda args: cmd_run(args, trace=True))

    p = sub.add_parser("explain", help="run a workload with the flight "
                                       "recorder armed and diagnose every "
                                       "misspeculation (root cause, site, "
                                       "heap, iteration pair)")
    _add_workload_arg(p)
    _add_execution_flags(p, workers=24)
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="keep the flight dump under DIR (default: a "
                        "temporary directory, discarded after the "
                        "diagnosis; $REPRO_FLIGHT_DIR does NOT apply — "
                        "explain always records)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the structured diagnosis as JSON "
                        "(validated by `python -m repro.obs.schema "
                        "--explain`)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk profile cache")
    _add_local_run_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("baselines", help="judge the program under the "
                                         "comparison systems")
    _add_workload_arg(p, small=False)
    p.add_argument("--workers", type=_positive_int, default=24)
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("workloads", help="list the five evaluated programs")
    p.add_argument("--json", action="store_true",
                   help="machine-readable listing (name, args schema, "
                        "description) — the same payload as GET "
                        "/workloads on `repro serve`")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("serve", help="run the parallelization-as-a-service "
                                     "job API (POST /jobs, fingerprint-"
                                     "batched scheduling, warm result "
                                     "cache; docs/SERVICE.md)")
    p.add_argument("--port", type=int, default=None,
                   help="loopback port to serve on; 0 picks an ephemeral "
                        "port (default: $REPRO_SERVE_PORT, then 8517)")
    p.add_argument("--queue-depth", type=_positive_int, default=None,
                   metavar="N",
                   help="bound on queued jobs before submits get 429 + "
                        "Retry-After (default: $REPRO_SERVE_QUEUE, "
                        "then 64)")
    p.add_argument("--retain", type=_positive_int, default=256,
                   metavar="N",
                   help="finished jobs kept for GET /jobs/<id> before "
                        "eviction (default: 256)")
    p.add_argument("--history-dir", default=None, metavar="DIR",
                   help="append periodic metrics snapshots to "
                        "DIR/history.jsonl — the bounded ring `repro "
                        "dash` renders (default: $REPRO_HISTORY_DIR, "
                        "else disabled)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running "
                                      "`repro serve` and wait for the "
                                      "result")
    _add_workload_arg(p)
    p.add_argument("--train-args", nargs="*",
                   help="integer profiling arguments (defaults to --args; "
                        "differing train/ref inputs exercise genuine "
                        "misspeculation)")
    _add_execution_flags(p, workers=4)
    p.add_argument("--adapt", action="store_true",
                   help="run the job with the adaptive speculation "
                        "controller on")
    p.add_argument("--trace", action="store_true",
                   help="record a JSONL trace server-side (fetch with "
                        "GET /jobs/<id>/trace)")
    p.add_argument("--no-wait", dest="wait", action="store_false",
                   help="return after the job is queued instead of "
                        "polling for the result")
    p.add_argument("--json", action="store_true",
                   help="print the raw job payload instead of a summary")
    _add_client_flags(p, 300.0, "seconds to wait for the result")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list jobs on a running `repro serve` "
                                    "(or show one by id)")
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (e.g. j3); omit to list all retained jobs")
    p.add_argument("--json", action="store_true",
                   help="print the raw payload instead of a table")
    _add_client_flags(p, 10.0, "request timeout in seconds")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md content "
                                      "on stdout (slow)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("perf", help="benchmark vectorized shadow "
                                    "validation and checkpoint merge "
                                    "against the per-byte oracle; fails "
                                    "below a 5x merge speedup")
    p.set_defaults(func=cmd_perf)

    # `main` hands `top` and `dash` to their own parsers before this one
    # runs; these entries list them in `repro --help`.
    for name, help_ in (
            ("top", "live terminal dashboard polling a run's status "
                    "endpoint (see --status-port)"),
            ("dash", "render a self-contained HTML dashboard from the "
                     "metrics history ring (`repro serve --history-dir` / "
                     "$REPRO_HISTORY_DIR)")):
        p = sub.add_parser(name, add_help=False, help=help_)
        p.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .obs.log import configure_from_env

    configure_from_env()  # honour REPRO_LOG=debug|info|... for every command
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # `top` and `dash` own their argument parsing: hand over before
    # argparse (REMAINDER refuses leading optionals, bpo-17050).
    if argv[:1] in (["top"], ["dash"]):
        from .obs import dash, top

        return (top if argv[0] == "top" else dash).main(argv[1:])
    args = build_parser().parse_args(argv)
    from .parallel.backend import BackendError

    try:
        return args.func(args)
    except BackendError as e:
        # A team the platform cannot fork is a usage error, not a bug.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
