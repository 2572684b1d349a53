"""Command-line interface for the Privateer reproduction.

Usage::

    python -m repro analyze prog.c --args 64
    python -m repro run prog.c --args 64 --workers 24 --timeline
    python -m repro trace dijkstra --out-dir traces/
    python -m repro explain dijkstra --misspec-period 7 --misspec-burst 30
    python -m repro baselines prog.c --args 64
    python -m repro workloads --json
    python -m repro report > EXPERIMENTS.md
    python -m repro serve --port 8517
    python -m repro submit dijkstra --small --workers 8
    python -m repro jobs j1

Observability: ``trace`` runs a workload (or source file) with the full
tracing/metrics layer on and emits a JSONL event stream plus a Chrome
``trace_event`` JSON (open in chrome://tracing or https://ui.perfetto.dev).
``run``/``analyze`` accept ``--trace``/``--trace-out``/``--metrics``
for the same artifacts; ``REPRO_LOG=debug`` turns on
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
from pathlib import Path
from typing import List, Optional, Sequence


def _parse_args_list(values: Optional[List[str]]) -> tuple:
    return tuple(int(v) for v in (values or []))


def _positive_int(value: str) -> int:
    """argparse type for --workers: a parallel run needs >= 1 worker."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {n}); a run needs at least one worker")
    return n


def _epoch_size(value: str) -> int:
    """argparse type for --checkpoint-period: an epoch must retire at
    least 2 iterations for speculation to make progress."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(
            f"must be >= 2 (got {n}); an epoch below 2 iterations cannot "
            f"amortize a checkpoint")
    return n


def _load_source(path: str) -> str:
    return Path(path).read_text()


PERFETTO_HINT = ("open in chrome://tracing or https://ui.perfetto.dev")


def _add_processes_flag(p: argparse.ArgumentParser) -> None:
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


def _add_execution_flags(p: argparse.ArgumentParser, workers: int) -> None:
    p.add_argument("--workers", type=_positive_int, default=workers)
    p.add_argument("--checkpoint-period", type=_epoch_size, default=None)
    p.add_argument("--misspec-period", type=int, default=0,
                   help="inject a misspeculation every N iterations")
    p.add_argument("--misspec-burst", type=int, default=0,
                   help="limit injection to the first N iterations "
                        "(0 = no limit)")


def _add_workload_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", help="workload name (see `repro workloads`) "
                                    "or a MiniC source file")
    p.add_argument("--args", nargs="*",
                   help="integer arguments for main (overrides the "
                        "workload's input set)")
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


def _print_no_loop(error) -> None:
    print("no parallelizable loop found:")
    for reason in error.reasons:
        print(f"  - {reason}")


def _add_adapt_flag(p: argparse.ArgumentParser) -> None:
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


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", False)
                or getattr(args, "trace_out", None)
                or getattr(args, "metrics", False))


def _obs_enable_if_requested(args: argparse.Namespace) -> bool:
    if _obs_requested(args):
        from . import obs

        obs.enable()
        return True
    return False


def _start_status_server(args: argparse.Namespace):
    """Start the live status endpoint when ``--status-port`` (or
    ``$REPRO_STATUS_PORT``) is configured; returns the running server or
    None.  Arms observability if it isn't already — in-worker telemetry
    only flows while tracing is enabled, and a status endpoint over an
    empty registry is useless."""
    from .obs.server import StatusServer, resolve_status_port

    if not hasattr(args, "status_port"):
        return None  # commands without the flag (top, perf, ...) never serve
    try:
        port = resolve_status_port(args.status_port)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2)
    if port is None:
        return None
    from . import obs

    if not obs.enabled():
        obs.enable()
    server = StatusServer(port=port).start()
    print(f"status: {server.url}/metrics · /metrics.prom · /health "
          f"(poll with: python -m repro top --port {server.port})")
    return server


def _write_trace_artifacts(prefix: Path, timeline=None) -> None:
    from . import obs

    prefix.parent.mkdir(parents=True, exist_ok=True)
    jsonl = Path(f"{prefix}.trace.jsonl")
    chrome = Path(f"{prefix}.chrome.json")
    n = obs.TRACER.write_jsonl(jsonl)
    m = obs.TRACER.write_chrome(chrome, timeline=timeline)
    print(f"trace: {n} event(s) -> {jsonl}")
    print(f"trace: {m} Chrome event(s) -> {chrome} ({PERFETTO_HINT})")


def _obs_finish(args: argparse.Namespace, default_prefix: str,
                timeline=None) -> None:
    """Emit the artifacts requested by --trace/--trace-out/--metrics."""
    if not _obs_requested(args):
        return
    from . import obs

    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        prefix = Path(getattr(args, "trace_out", None) or default_prefix)
        _write_trace_artifacts(prefix, timeline)
    if getattr(args, "metrics", False):
        print()
        print(obs.METRICS.render_table())
    obs.disable()


def _resolve_workload(args: argparse.Namespace):
    """Resolve a positional workload argument — a registered workload name
    or a MiniC source path — into ``(source, name, train_args, ref_args)``;
    prints an error and returns None if it is neither."""
    from .workloads import BY_NAME

    path = Path(args.workload)
    explicit_args = _parse_args_list(args.args) if args.args else None
    if args.workload in BY_NAME:
        w = BY_NAME[args.workload]
        ref = explicit_args or (w.train if args.small else w.ref)
        return w.source, w.name, w.train, ref
    if path.is_file():
        train = ref = explicit_args or ()
        return path.read_text(), path.stem, train, ref
    print(f"error: {args.workload!r} is neither a workload "
          f"({', '.join(sorted(BY_NAME))}) nor a MiniC source file",
          file=sys.stderr)
    return None


def _write_report(path: str, snapshot, title: str) -> None:
    """Render the forensics snapshot as a self-contained HTML report."""
    from .forensics import explain_snapshot, render_html

    diagnoses = explain_snapshot(snapshot)
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(snapshot, diagnoses, title=title))
    print(f"report: {len(diagnoses)} diagnosis(es) -> {out}")


def cmd_analyze(args: argparse.Namespace) -> int:
    from .bench.pipeline import prepare
    from .transform.plan import SelectionError

    _obs_enable_if_requested(args)
    source = _load_source(args.source)
    try:
        program = prepare(source, Path(args.source).stem,
                          args=_parse_args_list(args.args),
                          use_cache=not args.no_cache)
    except SelectionError as e:
        _print_no_loop(e)
        _obs_finish(args, Path(args.source).stem)
        return 1
    print(program.assignment.describe())
    print()
    print(program.plan.describe())
    _obs_finish(args, Path(args.source).stem)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .bench.pipeline import prepare
    from .transform.plan import SelectionError

    tracing = _obs_enable_if_requested(args)
    source = _load_source(args.source)
    try:
        program = prepare(source, Path(args.source).stem,
                          args=_parse_args_list(args.args),
                          use_cache=not args.no_cache,
                          adapt=args.adapt)
    except SelectionError as e:
        _print_no_loop(e)
        _obs_finish(args, Path(args.source).stem)
        return 1
    result = program.execute(**_execute_kwargs(args),
                             record_timeline=args.timeline or tracing)
    ok = result.output == program.sequential.output
    stats = result.runtime_stats
    sys.stdout.write("".join(result.output))
    print("---")
    print(f"backend:          {_team_label(args)}")
    print(f"workers:          {args.workers}")
    print(f"speedup:          {program.speedup(result):.2f}x "
          f"({program.sequential.cycles:,} -> {result.total_wall_cycles:,} cycles)")
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
    if args.report:
        _write_report(args.report,
                      result.forensics,  # type: ignore[attr-defined]
                      f"{Path(args.source).stem} · {_team_label(args)}")
    _obs_finish(args, Path(args.source).stem, timeline=result.timeline)
    return 0 if ok else 1


def cmd_baselines(args: argparse.Namespace) -> int:
    from .baselines import (
        estimate_dependence_speculation,
        judge_hot_loop,
        run_doall_only,
    )
    from .bench.pipeline import run_sequential

    source = _load_source(args.source)
    name = Path(args.source).stem
    guest_args = _parse_args_list(args.args)

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
    (see docs/SERVICE.md).  Deliberately does not call ``obs.enable()``:
    that would reset the metrics registry and destroy the service
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

    resolved = _resolve_workload(args)
    if resolved is None:
        return 2
    payload: dict = {"workers": args.workers}
    if args.workload in BY_NAME:
        payload["workload"] = args.workload
        if args.small:
            payload["small"] = True
    else:
        payload["source"], payload["name"] = resolved[:2]
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


def cmd_trace(args: argparse.Namespace) -> int:
    from . import obs
    from .bench.pipeline import prepare
    from .transform.plan import SelectionError

    resolved = _resolve_workload(args)
    if resolved is None:
        return 2
    source, name, train, ref = resolved

    obs.enable()
    out_dir = Path(args.out_dir)
    # Stream events to the JSONL sink as they are recorded, so a crash
    # mid-run still leaves a partial trace on disk; the final
    # write_jsonl() below rewrites the complete file with a real header.
    out_dir.mkdir(parents=True, exist_ok=True)
    obs.TRACER.open_sink(out_dir / f"{name}.trace.jsonl")
    try:
        # The inspector observes the *full* pipeline: skip the profile
        # cache unless the user opts back in, so the profiling phases and
        # interpreter metrics always appear in the trace.
        program = prepare(source, name, args=train, ref_args=ref,
                          use_cache=args.cache, adapt=args.adapt)
    except SelectionError as e:
        _print_no_loop(e)
        _write_trace_artifacts(out_dir / name)
        obs.disable()
        return 1
    result = program.execute(**_execute_kwargs(args), record_timeline=True)
    ok = result.output == program.sequential.output
    stats = result.runtime_stats

    print(f"{name}: {_team_label(args)} backend, "
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
    _write_trace_artifacts(out_dir / name, timeline=result.timeline)
    if args.report:
        _write_report(args.report,
                      result.forensics,  # type: ignore[attr-defined]
                      f"{name} · {_team_label(args)}")
    obs.disable()
    return 0 if ok else 1


def cmd_explain(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .bench.pipeline import prepare
    from .forensics import explain_snapshot, load_dump, render_text
    from .forensics.explain import to_json
    from .transform.plan import SelectionError

    resolved = _resolve_workload(args)
    if resolved is None:
        return 2
    source, name, train, ref = resolved
    # Without an explicit --flight-dir the dump goes to a temp dir: the
    # diagnosis is still derived by round-tripping through the on-disk
    # artifact, but nothing is left behind.
    tmp = None
    flight_dir = args.flight_dir
    if flight_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-flight-")
        flight_dir = tmp.name
    try:
        try:
            program = prepare(source, name, args=train, ref_args=ref,
                              use_cache=not args.no_cache, adapt=args.adapt)
        except SelectionError as e:
            _print_no_loop(e)
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
            if out.parent != Path("."):
                out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(to_json(snapshot, diagnoses),
                                      indent=2, sort_keys=True) + "\n")
            print(f"explain: JSON -> {out}")
        if args.report:
            _write_report(args.report, snapshot,
                          f"{name} · {_team_label(args)}")
    finally:
        if tmp is not None:
            tmp.cleanup()
    return 0


def _add_report_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", default=None, metavar="OUT.html",
                   help="write a self-contained HTML run report (heap "
                        "map, epoch outcome strip, conflict table, "
                        "controller decision log)")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privateer: speculative separation for privatization "
                    "and reductions (PLDI 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profile, classify, and show the "
                                       "heap assignment and plan")
    p.add_argument("source", help="MiniC source file")
    p.add_argument("--args", nargs="*", help="integer arguments for main")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk profile cache")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="parallelize and execute on the "
                                   "simulated multicore")
    p.add_argument("source")
    p.add_argument("--args", nargs="*")
    _add_execution_flags(p, workers=24)
    p.add_argument("--timeline", action="store_true",
                   help="render the Figure 5 execution timeline")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk profile cache")
    _add_report_flag(p)
    _add_processes_flag(p)
    _add_adapt_flag(p)
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
    _add_report_flag(p)
    _add_processes_flag(p)
    _add_adapt_flag(p)
    _add_status_flag(p)
    p.set_defaults(func=cmd_trace)

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
    _add_report_flag(p)
    _add_processes_flag(p)
    _add_adapt_flag(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("baselines", help="judge the program under the "
                                         "comparison systems")
    p.add_argument("source")
    p.add_argument("--args", nargs="*")
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
    p.add_argument("--url", default=None,
                   help="server base URL (default: http://127.0.0.1:"
                        "$REPRO_SERVE_PORT)")
    p.add_argument("--port", type=int, default=None,
                   help="server port on 127.0.0.1 (ignored with --url)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the result (default: 300)")
    _add_processes_flag(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list jobs on a running `repro serve` "
                                    "(or show one by id)")
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (e.g. j3); omit to list all retained jobs")
    p.add_argument("--json", action="store_true",
                   help="print the raw payload instead of a table")
    p.add_argument("--url", default=None,
                   help="server base URL (default: http://127.0.0.1:"
                        "$REPRO_SERVE_PORT)")
    p.add_argument("--port", type=int, default=None,
                   help="server port on 127.0.0.1 (ignored with --url)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="request timeout in seconds (default: 10)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md content "
                                      "on stdout (slow)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("perf", help="benchmark vectorized shadow "
                                    "validation and checkpoint merge "
                                    "against the per-byte oracle; fails "
                                    "below a 5x merge speedup")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("top", add_help=False,
                       help="live terminal dashboard polling a run's "
                            "status endpoint (see --status-port)")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("dash", add_help=False,
                       help="render a self-contained HTML dashboard from "
                            "the metrics history ring (`repro serve "
                            "--history-dir` / $REPRO_HISTORY_DIR)")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_dash)
    return parser


def cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import main as top_main

    return top_main(args.rest)


def cmd_dash(args: argparse.Namespace) -> int:
    from .obs.dash import main as dash_main

    return dash_main(args.rest)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .obs.log import configure_from_env

    configure_from_env()  # honour REPRO_LOG=debug|info|... for every command
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Delegated subcommands own their argument parsing; hand over before
    # argparse (REMAINDER refuses leading optionals, bpo-17050).
    if argv[:1] == ["top"]:
        from .obs.top import main as top_main

        return top_main(argv[1:])
    if argv[:1] == ["dash"]:
        from .obs.dash import main as dash_main

        return dash_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    from .parallel.backend import BackendError

    status = _start_status_server(args)
    try:
        return args.func(args)
    except BackendError as e:
        # A team the platform cannot fork is a usage error, not a bug.
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if status is not None:
            status.stop()
            from . import obs

            obs.disable()  # the endpoint armed obs; don't leak the state


if __name__ == "__main__":
    sys.exit(main())
