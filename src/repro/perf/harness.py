"""Micro-benchmark harness for the interpreter and pipeline.

Two measurements, both repeated ``repeats`` times with
:func:`time.perf_counter` and reported as means:

* **interp** — instructions/second executing a workload to completion on
  the reference ``step()`` path vs the compiled fast path, with a
  built-in differential check (identical guest output, steps, and
  simulated cycles — a disagreement is a harness failure, not a number).
* **pipeline** — end-to-end ``prepare()`` latency cold (empty profile
  cache) vs warm (second invocation against the same cache).
* **trace** — interpreter throughput with the observability layer off vs
  on (events recorded), best-of timings.  The tracing-off number also
  backs the hard gate that the instrumented build costs <= 2% relative
  to the fast-path measurement above: the disabled path must stay a
  single attribute check.
* **flight** — clean-run executor wall time with the misspeculation
  flight recorder on vs off, best-of timings, gated at <= 2% overhead
  (ISSUE 5): recording must never cost a clean run noticeable time.
* **service** — requests/second through the ``repro serve`` job API:
  cold first-submission vs warm same-fingerprint vs cache-hit
  resubmission, over real HTTP against an in-process server; gated
  ``warm_rps >= cold_rps`` (the fingerprint-batched warm path must
  amortize ``prepare()``).

Results are appended to ``BENCH_interp.json`` as a trajectory: one entry
per run, so future PRs regress against the history rather than a single
sample.  Run via ``python -m repro perf`` (``--quick`` for the CI smoke
gate).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean
from typing import Dict, List, Optional, Sequence

from ..frontend.lower import compile_minic
from ..interp.interpreter import Interpreter
from ..workloads import ALL_WORKLOADS, BY_NAME, Workload

DEFAULT_OUT = "BENCH_interp.json"


def _run_once(module, entry: str, args: Sequence[object],
              compiled: bool) -> Dict[str, object]:
    interp = Interpreter(module, compiled=compiled)
    t0 = time.perf_counter()
    rv = interp.run(entry, tuple(args))
    elapsed = time.perf_counter() - t0
    return {
        "elapsed": elapsed,
        "steps": interp.steps,
        "cycles": interp.cycles,
        "output": interp.output,
        "return_value": rv,
    }


def measure_interp(workload: Workload, args: Sequence[object],
                   repeats: int = 3) -> Dict[str, object]:
    """Instructions/second on both interpreter paths for one workload.

    Raises AssertionError if the two paths disagree on guest output,
    step count, or simulated cycles — the numbers are only meaningful
    for observationally identical executions.
    """
    module = compile_minic(workload.source, workload.name)
    step_runs = [_run_once(module, "main", args, compiled=False)
                 for _ in range(repeats)]
    fast_runs = [_run_once(module, "main", args, compiled=True)
                 for _ in range(repeats)]
    ref, fast = step_runs[0], fast_runs[0]
    assert ref["output"] == fast["output"], (
        f"{workload.name}: guest output diverged between paths")
    assert ref["steps"] == fast["steps"], (
        f"{workload.name}: step counts diverged "
        f"({ref['steps']} vs {fast['steps']})")
    assert ref["cycles"] == fast["cycles"], (
        f"{workload.name}: cycle counts diverged "
        f"({ref['cycles']} vs {fast['cycles']})")
    steps = ref["steps"]
    step_ips = mean(steps / r["elapsed"] for r in step_runs)
    fast_ips = mean(steps / r["elapsed"] for r in fast_runs)
    return {
        "workload": workload.name,
        "args": list(args),
        "instructions": steps,
        "cycles": ref["cycles"],
        "repeats": repeats,
        "step_ips": round(step_ips),
        "fast_ips": round(fast_ips),
        "speedup": round(fast_ips / step_ips, 2),
    }


#: Hard budget for the observability layer when tracing is disabled,
#: as a fraction of fast-path throughput (ISSUE 2 acceptance).
TRACE_OFF_BUDGET = 0.02


def measure_trace_overhead(workload: Workload, args: Sequence[object],
                           repeats: int = 3,
                           baseline_ips: Optional[float] = None
                           ) -> Dict[str, object]:
    """Fast-path instructions/second with tracing disabled vs enabled.

    Best-of timings (min elapsed over ``repeats``) to suppress scheduler
    noise; the tracer is reset between enabled runs so event buffers
    don't grow across repeats.
    """
    from ..obs.metrics import METRICS
    from ..obs.trace import TRACER

    module = compile_minic(workload.source, workload.name)

    was_enabled = TRACER.enabled
    TRACER.disable()
    off_runs = [_run_once(module, "main", args, compiled=True)
                for _ in range(repeats)]
    on_runs = []
    try:
        for _ in range(repeats):
            TRACER.enable()
            on_runs.append(_run_once(module, "main", args, compiled=True))
            TRACER.disable()
    finally:
        TRACER.enabled = was_enabled
        METRICS.reset()
    steps = off_runs[0]["steps"]
    off_ips = steps / min(r["elapsed"] for r in off_runs)
    on_ips = steps / min(r["elapsed"] for r in on_runs)
    result = {
        "workload": workload.name,
        "args": list(args),
        "instructions": steps,
        "repeats": repeats,
        "tracing_off_ips": round(off_ips),
        "tracing_on_ips": round(on_ips),
        "tracing_on_overhead_pct": round(100 * (1 - on_ips / off_ips), 2),
    }
    if baseline_ips:
        result["tracing_off_overhead_pct"] = round(
            100 * (1 - off_ips / baseline_ips), 2)
    return result


#: Hard budget for the flight recorder on clean runs, as a fraction of
#: recorder-off execution wall time (ISSUE 5 acceptance).
FLIGHT_BUDGET = 0.02


def measure_flight_overhead(workload: Workload, args: Sequence[object],
                            repeats: int = 3,
                            workers: int = 4) -> Dict[str, object]:
    """Clean-run executor wall time with the flight recorder on vs off.

    Prepares the workload once (profile cache allowed — only execution
    is timed), then times ``PreparedProgram.execute`` best-of
    ``repeats``, *interleaving* off/on pairs: timing the two modes in
    separate batches lets host-load drift between the batches masquerade
    as recorder overhead, which flakes the 2% gate.  No dump directory
    is configured, so the recorder cost is purely the in-memory ring
    buffer and the per-checkpoint site-access accounting.
    """
    from ..bench.pipeline import prepare

    program = prepare(workload.source, workload.name, args=workload.train,
                      ref_args=args)
    repeats = max(5, repeats)

    def timed(flight: bool) -> float:
        t0 = time.perf_counter()
        program.execute(workers=workers, flight=flight)
        return time.perf_counter() - t0

    off = on = float("inf")
    for _ in range(repeats):
        off = min(off, timed(False))
        on = min(on, timed(True))
    return {
        "workload": workload.name,
        "args": list(args),
        "workers": workers,
        "repeats": repeats,
        "recorder_off_s": round(off, 4),
        "recorder_on_s": round(on, 4),
        "overhead_pct": round(100 * (on / off - 1), 2),
    }


def measure_pipeline(workload: Workload, repeats: int = 3,
                     use_ref: bool = True) -> Dict[str, object]:
    """Cold vs warm ``prepare()`` latency against a scratch profile cache."""
    from ..bench.pipeline import prepare

    ref_args = workload.ref if use_ref else workload.train
    colds: List[float] = []
    warms: List[float] = []
    saved = os.environ.get("REPRO_CACHE_DIR")
    try:
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                os.environ["REPRO_CACHE_DIR"] = tmp
                t0 = time.perf_counter()
                prepare(workload.source, workload.name, args=workload.train,
                        ref_args=ref_args)
                colds.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                prepare(workload.source, workload.name, args=workload.train,
                        ref_args=ref_args)
                warms.append(time.perf_counter() - t0)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    cold, warm = mean(colds), mean(warms)
    return {
        "workload": workload.name,
        "repeats": repeats,
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "warm_speedup": round(cold / warm, 2) if warm else float("inf"),
    }


def measure_adaptive(workload: Workload, args: Sequence[object],
                     workers: int = 4, misspec_period: int = 3,
                     misspec_burst: int = 30) -> Dict[str, object]:
    """Adaptive vs fixed speculation policy, in deterministic simulated
    cycles (repeats are unnecessary: both runs are exactly reproducible).

    Three comparisons against a scratch policy store:

    * **storm** — with a misspeculation injected every ``misspec_period``
      iterations for the first ``misspec_burst`` iterations, total
      squashed (re-executed) iterations under the fixed policy vs the
      adaptive controller;
    * **clean** — no injection: the controller's overhead (or win, once
      AIMD grows the epoch past the fixed default) on a well-behaved run;
    * **warm** — the storm again: the second run reloads the persisted
      policy and should start from the learned epoch size.

    Every run's output is checked against the fixed-policy run, and the
    controller's decision counts are recorded for the trajectory.
    """
    from ..adapt.policy import ADAPT_DIR_ENV
    from ..bench.pipeline import prepare

    saved = os.environ.get(ADAPT_DIR_ENV)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-adapt-") as tmp:
            os.environ[ADAPT_DIR_ENV] = tmp
            program = prepare(workload.source, workload.name,
                              args=workload.train, ref_args=args)
            inject = dict(misspec_period=misspec_period,
                          misspec_burst=misspec_burst)
            fixed = program.execute(workers=workers, **inject)
            adaptive = program.execute(workers=workers, adapt=True, **inject)
            warm = program.execute(workers=workers, adapt=True, **inject)
            fixed_clean = program.execute(workers=workers)
            adapt_clean = program.execute(workers=workers, adapt=True)
            for run, label in ((adaptive, "adaptive"), (warm, "warm"),
                               (adapt_clean, "adaptive-clean")):
                assert run.output == fixed.output, (
                    f"{workload.name}: {label} output diverged from fixed")

            def squashed(result) -> int:
                return sum(inv.recovered_iterations
                           for inv in result.invocations)

            clean_overhead = (adapt_clean.total_wall_cycles
                              / max(1, fixed_clean.total_wall_cycles) - 1)
            summary = adaptive.adapt or {}
            return {
                "workload": workload.name,
                "args": list(args),
                "workers": workers,
                "misspec_period": misspec_period,
                "misspec_burst": misspec_burst,
                "fixed_squashed_iterations": squashed(fixed),
                "adaptive_squashed_iterations": squashed(adaptive),
                "fixed_wall_cycles": fixed.total_wall_cycles,
                "adaptive_wall_cycles": adaptive.total_wall_cycles,
                "clean_overhead_pct": round(100 * clean_overhead, 2),
                "warm_start": bool((warm.adapt or {}).get("warm_start")),
                "converged": bool(summary.get("converged")),
                "decisions": {
                    "grows": summary.get("grows", 0),
                    "shrinks": summary.get("shrinks", 0),
                    "fallbacks": summary.get("fallbacks", 0),
                    "demotions": len(summary.get("demotions") or []),
                    "sequential_iterations":
                        summary.get("sequential_iterations", 0),
                },
                "epoch_trajectory": {
                    "initial": summary.get("initial_epoch"),
                    "min": summary.get("min_epoch"),
                    "final": summary.get("final_epoch"),
                },
            }
    finally:
        if saved is None:
            os.environ.pop(ADAPT_DIR_ENV, None)
        else:
            os.environ[ADAPT_DIR_ENV] = saved


def measure_service(workload: Workload, repeats: int = 3,
                    workers: int = 2) -> Dict[str, object]:
    """Requests/second through the ``repro serve`` job API, cold vs warm.

    Starts an in-process :class:`~repro.service.app.ServiceApp` on an
    ephemeral port against scratch profile-cache/policy directories (so
    *cold* really pays the full compile/profile/classify/transform
    pipeline), then measures three request classes over real HTTP:

    * **cold** — the first submission of a module: full ``prepare()``;
    * **warm** — same fingerprint, different execution knobs: the
      scheduler reuses the resident prepared program, so only
      ``execute()`` runs (this is the amortization the service exists
      to provide — gated ``warm_rps >= cold_rps`` in ``run_bench``);
    * **cache_hit** — an identical resubmission: answered at submit time
      from the warm result cache, no pipeline work at all.

    Train inputs throughout: the section measures service overhead and
    amortization, not guest throughput.
    """
    from ..obs.metrics import MetricsRegistry
    from ..service.app import ServiceApp
    from ..service.client import ServiceClient

    registry = MetricsRegistry()
    saved = {var: os.environ.get(var)
             for var in ("REPRO_CACHE_DIR", "REPRO_ADAPT_DIR")}
    base = {"workload": workload.name, "small": True, "workers": workers}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
            os.environ["REPRO_ADAPT_DIR"] = os.path.join(tmp, "adapt")
            with ServiceApp(port=0, registry=registry) as app:
                client = ServiceClient(app.url)

                def submit_and_wait(payload) -> float:
                    t0 = time.perf_counter()
                    job = client.submit(payload)
                    if job["state"] not in ("done", "failed",
                                            "misspeculated"):
                        job = client.wait(job["id"])
                    elapsed = time.perf_counter() - t0
                    assert job["state"] == "done", (
                        f"{workload.name}: service job ended "
                        f"{job['state']}: {job.get('error')}")
                    return elapsed

                cold_s = submit_and_wait(dict(base))
                warms = [submit_and_wait(dict(base, workers=workers + 1 + i))
                         for i in range(repeats)]
                cache_times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    job = client.submit(dict(base))
                    cache_times.append(time.perf_counter() - t0)
                    assert job["cache_hit"], (
                        f"{workload.name}: identical resubmission was not "
                        f"a cache hit")
                cache_hits = registry.counter("service.cache_hits").value
                batches = registry.counter("service.batches").value
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    warm_s = mean(warms)
    cache_s = mean(cache_times)
    return {
        "workload": workload.name,
        "repeats": repeats,
        "workers": workers,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cache_hit_s": round(cache_s, 4),
        "cold_rps": round(1.0 / cold_s, 2),
        "warm_rps": round(1.0 / warm_s, 2),
        "cache_hit_rps": round(1.0 / cache_s, 2),
        "warm_over_cold": round(cold_s / warm_s, 2),
        "cache_hits": cache_hits,
        "batches": batches,
        # Latency SLO percentiles per cache tier (seconds; cold is a
        # single sample so its p50 == p99 == cold_s).  bench-check gates
        # the p99s lower-is-better against the trajectory history.
        "cold_p50_s": round(cold_s, 4),
        "cold_p99_s": round(cold_s, 4),
        "warm_p50_s": round(_pct(warms, 50), 4),
        "warm_p99_s": round(_pct(warms, 99), 4),
        "cache_hit_p50_s": round(_pct(cache_times, 50), 6),
        "cache_hit_p99_s": round(_pct(cache_times, 99), 6),
    }


def _pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the harness's small sample
    counts; matches Histogram.percentile's convention)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, -(-len(vals) * q // 100))  # ceil without math
    return vals[int(rank) - 1]


def append_trajectory(entry: Dict[str, object],
                      path: os.PathLike = DEFAULT_OUT) -> None:
    path = Path(path)
    data: Dict[str, object] = {"benchmark": "interp", "runs": []}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            pass
        if not isinstance(data.get("runs"), list):
            data = {"benchmark": "interp", "runs": []}
    data["runs"].append(entry)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_bench(quick: bool = False, repeats: int = 3,
              workload_names: Optional[Sequence[str]] = None,
              out: Optional[str] = DEFAULT_OUT,
              min_speedup: Optional[float] = None,
              adapt: Optional[bool] = None,
              stress: bool = False) -> int:
    """Run the benchmark; returns a process exit code.

    ``quick`` uses train inputs, one pipeline workload, and a 3.0× floor
    on the dijkstra interp speedup (the CI smoke gate).  The full run
    uses ref inputs across all workloads.

    The ``shadow`` section benchmarks Table 2 validation and the
    checkpoint merge against the per-byte reference oracle; the merge
    must clear :data:`~repro.perf.shadowbench.SHADOW_MERGE_GATE` on
    every configuration.  ``stress`` adds a large-footprint
    configuration (multi-KB operations, multi-MB merge).

    ``adapt`` (or ``REPRO_ADAPT``) adds the adaptive-vs-fixed section:
    squashed-iteration counts under an injected misspeculation storm,
    clean-run overhead, warm start, and the controller's decision
    counts, recorded under ``adaptive``.  Fails the run if adaptive mode
    squashes more than fixed mode or the clean-run overhead exceeds 2%.
    """
    from ..adapt import resolve_adapt_enabled

    adapt_on = resolve_adapt_enabled(adapt)
    if quick:
        repeats = max(2, min(repeats, 2))
        if min_speedup is None:
            min_speedup = 3.0
    if workload_names:
        unknown = [n for n in workload_names if n not in BY_NAME]
        if unknown:
            print(
                "error: unknown workload(s): %s (available: %s)"
                % (", ".join(unknown), ", ".join(sorted(BY_NAME))),
                file=sys.stderr,
            )
            return 2
        workloads = [BY_NAME[n] for n in workload_names]
    else:
        workloads = [BY_NAME["dijkstra"]] if quick else list(ALL_WORKLOADS)

    interp_results = []
    for w in workloads:
        args = w.train if quick else w.ref
        res = measure_interp(w, args, repeats=repeats)
        interp_results.append(res)
        print(f"interp {w.name:14s} {res['instructions']:>12,} insts  "
              f"step {res['step_ips']:>12,}/s  fast {res['fast_ips']:>12,}/s  "
              f"{res['speedup']:.2f}x")

    pipeline_workloads = workloads[:1] if quick else workloads
    pipeline_results = []
    for w in pipeline_workloads:
        res = measure_pipeline(w, repeats=1 if quick else max(1, repeats - 1),
                               use_ref=not quick)
        pipeline_results.append(res)
        print(f"pipeline {w.name:12s} cold {res['cold_s']:.3f}s  "
              f"warm {res['warm_s']:.3f}s  {res['warm_speedup']:.1f}x")

    # Observability cost: tracing off must be within TRACE_OFF_BUDGET of
    # the fast-path number above; tracing on is recorded for the
    # trajectory (BENCH_interp.json) but not gated.
    gate_w = BY_NAME["dijkstra"] if "dijkstra" in {w.name for w in workloads} \
        else workloads[0]
    gate_interp = next(r for r in interp_results
                       if r["workload"] == gate_w.name)
    trace_res = measure_trace_overhead(
        gate_w, gate_w.train if quick else gate_w.ref, repeats=repeats,
        baseline_ips=gate_interp["fast_ips"])
    print(f"trace    {gate_w.name:12s} "
          f"off {trace_res['tracing_off_ips']:>12,}/s  "
          f"on {trace_res['tracing_on_ips']:>12,}/s  "
          f"(on-overhead {trace_res['tracing_on_overhead_pct']:.1f}%, "
          f"off vs fast {trace_res['tracing_off_overhead_pct']:+.1f}%)")

    flight_res = measure_flight_overhead(
        gate_w, gate_w.train if quick else gate_w.ref, repeats=repeats)
    print(f"flight   {gate_w.name:12s} "
          f"off {flight_res['recorder_off_s']:.3f}s  "
          f"on {flight_res['recorder_on_s']:.3f}s  "
          f"(overhead {flight_res['overhead_pct']:+.1f}%)")

    adaptive_results = []
    if adapt_on:
        for w in pipeline_workloads:
            res = measure_adaptive(w, w.train if quick else w.ref)
            adaptive_results.append(res)
            d = res["decisions"]
            print(f"adaptive {w.name:12s} squashed "
                  f"{res['fixed_squashed_iterations']} -> "
                  f"{res['adaptive_squashed_iterations']} iters  "
                  f"clean {res['clean_overhead_pct']:+.1f}%  "
                  f"epoch {res['epoch_trajectory']['initial']}->"
                  f"{res['epoch_trajectory']['min']}->"
                  f"{res['epoch_trajectory']['final']}  "
                  f"grows={d['grows']} shrinks={d['shrinks']} "
                  f"fallbacks={d['fallbacks']} "
                  f"warm={'yes' if res['warm_start'] else 'no'} "
                  f"converged={'yes' if res['converged'] else 'no'}")

    from .shadowbench import SHADOW_MERGE_GATE, measure_shadow, shadow_configs

    shadow_results = []
    for config in shadow_configs(quick=quick, stress=stress):
        res = measure_shadow(**config)
        shadow_results.append(res)
        p1, mg = res["phase1"], res["merge"]
        print(f"shadow   {res['label']:12s} "
              f"validate {p1['ref_mbps']:>8.1f} -> {p1['vec_mbps']:>8.1f} MB/s "
              f"({p1['speedup']:.1f}x)  "
              f"merge {mg['ref_mbps']:>8.1f} -> {mg['vec_mbps']:>8.1f} MB/s "
              f"({mg['speedup']:.1f}x)")

    service_res = measure_service(gate_w, repeats=2 if quick else repeats)
    print(f"service  {gate_w.name:12s} "
          f"cold {service_res['cold_s']:.3f}s "
          f"({service_res['cold_rps']:.1f} req/s)  "
          f"warm {service_res['warm_s']:.3f}s "
          f"({service_res['warm_rps']:.1f} req/s)  "
          f"cache-hit {service_res['cache_hit_s'] * 1000:.1f}ms "
          f"({service_res['cache_hit_rps']:,.0f} req/s)")
    print(f"service  {gate_w.name:12s} "
          f"p50/p99  cold {service_res['cold_p50_s']:.3f}/"
          f"{service_res['cold_p99_s']:.3f}s  "
          f"warm {service_res['warm_p50_s']:.3f}/"
          f"{service_res['warm_p99_s']:.3f}s  "
          f"cache-hit {service_res['cache_hit_p50_s'] * 1000:.1f}/"
          f"{service_res['cache_hit_p99_s'] * 1000:.1f}ms")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": quick,
        "interp": interp_results,
        "pipeline": pipeline_results,
        "trace": trace_res,
        "flight": flight_res,
        "shadow": shadow_results,
        "service": service_res,
    }
    if adaptive_results:
        entry["adaptive"] = adaptive_results
    if out:
        append_trajectory(entry, out)
        print(f"appended to {out}")

    for res in adaptive_results:
        if (res["adaptive_squashed_iterations"]
                > res["fixed_squashed_iterations"]):
            print(f"FAIL: {res['workload']}: adaptive mode squashed more "
                  f"iterations ({res['adaptive_squashed_iterations']}) than "
                  f"fixed ({res['fixed_squashed_iterations']})")
            return 1
        if res["clean_overhead_pct"] > 2.0:
            print(f"FAIL: {res['workload']}: adaptive clean-run overhead "
                  f"{res['clean_overhead_pct']:.2f}% exceeds the 2% budget")
            return 1

    if trace_res["tracing_off_overhead_pct"] > 100 * TRACE_OFF_BUDGET:
        print(f"FAIL: tracing-disabled overhead "
              f"{trace_res['tracing_off_overhead_pct']:.2f}% exceeds the "
              f"{100 * TRACE_OFF_BUDGET:.0f}% budget")
        return 1

    for res in shadow_results:
        merge_speedup = res["merge"]["speedup"]
        if merge_speedup < SHADOW_MERGE_GATE:
            print(f"FAIL: shadow {res['label']}: checkpoint-merge speedup "
                  f"{merge_speedup:.2f}x < required "
                  f"{SHADOW_MERGE_GATE:.1f}x over the per-byte oracle")
            return 1

    if service_res["warm_rps"] < service_res["cold_rps"]:
        print(f"FAIL: service warm path ({service_res['warm_rps']:.2f} "
              f"req/s) slower than cold ({service_res['cold_rps']:.2f} "
              f"req/s) — fingerprint batching is not amortizing prepare()")
        return 1

    if flight_res["overhead_pct"] > 100 * FLIGHT_BUDGET:
        print(f"FAIL: flight-recorder overhead "
              f"{flight_res['overhead_pct']:.2f}% exceeds the "
              f"{100 * FLIGHT_BUDGET:.0f}% budget on a clean run")
        return 1

    if min_speedup is not None:
        gate = [r for r in interp_results if r["workload"] == "dijkstra"]
        gate = gate or interp_results
        worst = min(r["speedup"] for r in gate)
        if worst < min_speedup:
            print(f"FAIL: fast path {worst:.2f}x < required "
                  f"{min_speedup:.2f}x")
            return 1
        print(f"gate ok: {worst:.2f}x >= {min_speedup:.2f}x")
    return 0
