"""The single table of the benchmark's names, units, directions and
bounds.  ``BENCHMARK.json`` is this table serialised (``python3
perfbench/metrics.py --write``); ``selftest.py`` checks the two agree.

A per-layer name is ``<layer>.<metric>`` where the layer is a module
directory under ``src/repro/`` (or ``perfbench`` for the harness
itself).  ``exact`` marks a count that must repeat to the digit between
two fresh traced runs with the same seed (the ``=`` of README.md).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds of timed samples per run.  The driver's cap (all runs, with
#: their set-up, inside 3420 s for 92 runs) leaves 37 s per run.  On a
#: slow box set-up and teardown take 5-6 s of that, and ``service_mix``
#: needs 31 s for its 15 sweeps whatever this says: 27 keeps the four
#: workloads' mean near 33 s, a tenth under the cap.
RUN_SECONDS = 27

#: Timed samples of every part that a run takes at least, whatever
#: ``--seconds`` says: the median over fewer stops repeating (README.md,
#: "Timing protocol").
MIN_SAMPLES = 15

WORKLOADS = [
    ("prepare_cold",
     "prepare() into an emptied cache: front end, analysis, interpreter, "
     "profiler, classify and transform do all the work; parallel, runtime "
     "and service do none"),
    ("doall_clean",
     "pool-backend DOALL on 2 workers with no misspeculation: the paper's "
     "headline path (child interpretation, shadow, ring transport, parent "
     "replay, phase 2, merge); front end and service do none"),
    ("doall_storm",
     "the same backend under injected misspeculation with the adaptive "
     "controller: squash, recovery, respawn, small epochs, flight dumps; "
     "the write beside doall_clean's read"),
    ("service_mix",
     "two closed-loop clients against a repro serve subprocess: 18 "
     "submissions a round over cold, warm and result-cache tiers on the "
     "simulated backend; the pool backend does none"),
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median by which it may worsen.
    bound: Optional[float] = None
    #: Per-layer: the count must repeat exactly (the ``=`` marker).
    exact: bool = False
    doc: str = ""


#: Issue 15 fixed 0.10 for the first three.  ``op_s`` and ``cpu_s`` have
#: 0.15: the driver asks for run-to-run spreads under a third of the
#: bound, and the widest of the A/A check's is 4.0 % (README.md, "Box
#: noise" and "A/A check").
END_TO_END = [
    Metric("op_s", "s", "lower", 0.15,
           doc="wall seconds of one op on a quiet core: sum over the "
               "op's parts of the median speed-normalised sample of that "
               "part"),
    Metric("cpu_s", "s", "lower", 0.15,
           doc="user+sys CPU seconds of the whole process tree per op "
               "(bench process, reaped pool children, the repro serve "
               "process), normalised and summed like op_s"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           doc="largest resident set of any process in the tree"),
    Metric("setup_s", "s", "lower", 0.25,
           doc="process start to first timed sample (imports, prepare, "
               "server start, golden check, warm-up), every stage "
               "speed-normalised"),
]


def _layer(layer: str, *rows) -> List[Metric]:
    out = []
    for name, unit, better, doc in rows:
        out.append(Metric(f"{layer}.{name.rstrip('=')}", unit, better,
                          exact=name.endswith("="), doc=doc))
    return out


PER_LAYER: List[Metric] = [
    *_layer(
        "frontend",
        ("compile_s", "s", "lower",
         "compile_minic self time (parse + lower, without mem2reg/licm) "
         "of one library compile of each of the workload's programs"),
        ("py_calls=", "count", "lower",
         "Python calls into src/repro/frontend for the same compiles"),
    ),
    *_layer(
        "ir",
        ("instructions=", "count", "lower",
         "static IR instructions of those compiled programs"),
    ),
    *_layer(
        "analysis",
        ("mem2reg_s", "s", "lower",
         "promote_module seconds in the same compiles"),
        ("licm_s", "s", "lower", "hoist_module seconds in the same compiles"),
        ("py_calls=", "count", "lower",
         "Python calls into src/repro/analysis for the same compiles"),
    ),
    *_layer(
        "interp",
        ("seq_s", "s", "lower",
         "plain sequential Interpreter.run of the workload's programs at "
         "the workload's ref inputs"),
        ("seq_ips", "1/s", "higher", "guest instructions / seq_s"),
        ("guest_instrs=", "count", "lower",
         "guest instructions of those sequential runs"),
        ("py_calls_per_kinstr=", "count", "lower",
         "Python calls into src/repro/interp per 1000 guest instructions "
         "(counted on the small golden inputs)"),
    ),
    *_layer(
        "profiling",
        ("time_s", "s", "lower", "profile_execution_time seconds per op"),
        ("loop_s", "s", "lower", "profile_loop seconds per op"),
        ("slowdown_x", "x", "lower",
         "instrumented runs / plain sequential runs of the same inputs"),
        ("candidates=", "count", "lower", "profile_loop calls per op"),
        ("py_calls=", "count", "lower",
         "Python calls into src/repro/profiling per op"),
    ),
    *_layer(
        "classify",
        ("s", "s", "lower", "classify seconds per op"),
        ("sites=", "count", "lower", "allocation sites classified per op"),
    ),
    *_layer(
        "transform",
        ("s", "s", "lower", "PrivateerTransform.run seconds per op"),
        ("instr_growth_x=", "x", "lower",
         "IR instructions after the transform / before"),
    ),
    *_layer(
        "bench",
        ("prepare_warm_s", "s", "lower",
         "prepare() of the workload's programs against a filled cache"),
        ("cache_load_s", "s", "lower", "cache.load_entry in those"),
        ("cache_store_s", "s", "lower", "cache.store_entry per cold op"),
        ("glue_s", "s", "lower",
         "prepare()/execute() self time not inside any other span"),
    ),
    *_layer(
        "parallel",
        ("speedup_vs_seq", "x", "higher",
         "geomean over parts of interp.seq_s part / op part"),
        ("pool1_s", "s", "lower", "the op on the pool backend, 1 worker"),
        ("scale_2w_x", "x", "higher", "pool1_s / op at 2 workers"),
        ("sim1_s", "s", "lower", "the op on the simulated backend, 1 worker"),
        ("spec_tax_x", "x", "lower", "sim1_s / interp.seq_s"),
        ("transport_tax_x", "x", "lower", "pool1_s / sim1_s"),
        ("parent_cpu_s", "s", "lower", "CPU of the parent process per op"),
        ("serial_share", "share", "lower",
         "parent_cpu_s / op wall: the Amdahl serial fraction"),
        ("child_cpu_s", "s", "lower", "CPU of reaped pool children per op"),
        ("spawn_s", "s", "lower", "parent seconds inside os.fork per op"),
        ("recover_s", "s", "lower",
         "squash_to_recovery/begin_sequential_span to "
         "resume_after_recovery, per op"),
        ("parent_py_calls=", "count", "lower",
         "Python calls into src/repro/parallel in the parent per op"),
        ("epochs=", "count", "lower", "checkpoints committed per op"),
        ("invocations=", "count", "lower", "parallel invocations per op"),
        ("spawns=", "count", "lower", "pool (re)forks per op"),
        ("squashes=", "count", "lower", "misspeculations per op"),
        ("squashed_iters=", "count", "lower",
         "iterations re-executed by recovery per op"),
        ("seq_fallback_iters=", "count", "lower",
         "iterations run in adaptive sequential spans per op"),
        ("ring_overflows=", "count", "lower",
         "fragments that took the pipe fallback per op"),
        ("ring.pack_mbps", "MB/s", "higher",
         "pack_fragment_payload over the op's captured fragments"),
        ("ring.unpack_mbps", "MB/s", "higher",
         "unpack_fragment_payload over the same payloads"),
        ("ring.payload_bytes_per_epoch=", "B", "lower",
         "packed payload bytes per committed epoch"),
        ("sim_speedup_24w=", "x", "higher",
         "cost-model speedup at 24 simulated workers (geomean); a "
         "fidelity guard no performance change may move"),
    ),
    *_layer(
        "runtime",
        ("checkpoint_s", "s", "lower",
         "RuntimeSystem.checkpoint seconds per op (parent side)"),
        ("phase2_s", "s", "lower", "find_phase2_violation in those"),
        ("merge_s", "s", "lower", "merge_fragments in those"),
        ("extract_s", "s", "lower",
         "extract_fragment seconds in the simulated 1-worker twin"),
        ("shadow_validate_mbps", "MB/s", "higher",
         "ShadowHeap on_write/on_read replay of the captured runs"),
        ("merge_mbps", "MB/s", "higher",
         "merge_fragments replay over the captured epochs"),
        ("private_read_bytes=", "B", "lower", "RuntimeStats, per op"),
        ("private_write_bytes=", "B", "lower", "RuntimeStats, per op"),
        ("separation_checks=", "count", "lower", "RuntimeStats, per op"),
        ("py_calls=", "count", "lower",
         "Python calls into src/repro/runtime in the parent per op"),
    ),
    *_layer(
        "adapt",
        ("decide_s", "s", "lower",
         "seconds inside SpeculationController methods per op"),
        ("shrinks=", "count", "lower", "controller summary, per op"),
        ("grows=", "count", "lower", "controller summary, per op"),
        ("fallbacks=", "count", "lower", "controller summary, per op"),
        ("final_epoch=", "count", "higher",
         "sum over parts of the learned epoch size"),
    ),
    *_layer(
        "forensics",
        ("dumps=", "count", "lower", "flight dumps written per op"),
        ("dump_bytes", "B", "lower", "bytes of those dumps"),
        ("dump_s", "s", "lower", "write_dump seconds per op"),
    ),
    *_layer(
        "service",
        ("submit_rtt_p50_s", "s", "lower", "POST /jobs round trip, queued"),
        ("hit_rtt_p50_s", "s", "lower", "POST /jobs round trip, cache hit"),
        ("cold_job_p50_s", "s", "lower", "submit to done, cold tier"),
        ("warm_job_p50_s", "s", "lower", "submit to done, warm tier"),
        ("warm_job_tail_s", "s", "lower",
         "warm tier, highest percentile with ten samples beyond it"),
        ("queue_wait_p50_s", "s", "lower", "started - submitted, all jobs"),
        ("prepare_p50_s", "s", "lower",
         "server's service.job.prepare_us histogram, cold tier"),
        ("execute_p50_s", "s", "lower",
         "server's service.job.exec_us histogram"),
        ("tax_x", "x", "lower",
         "warm_job_p50_s / the same execute() as a library call"),
        ("server_cpu_s", "s", "lower", "server process CPU per round"),
        ("polls_per_job", "count", "lower", "GET /jobs/<id> per queued job"),
        ("cache_hit_ratio=", "share", "higher", "8/18 by construction"),
        ("warm_ratio=", "share", "higher", "8/10 of queued jobs"),
        ("rejected_429=", "count", "lower", "submissions refused"),
    ),
    *_layer(
        "obs",
        ("trace_overhead_x", "x", "lower",
         "op under repro.obs.enable() / plain op"),
        ("events_per_op=", "count", "lower", "trace events recorded per op"),
    ),
    *_layer(
        "perfbench",
        ("samples_per_part", "count", "higher",
         "samples of a part in the traced run's plain pass"),
        ("op_median_s", "s", "lower",
         "sum over parts of the median sample of that pass"),
        ("op_iqr_share", "share", "lower",
         "sum over parts of (q3 - q1) / op_median_s"),
        ("box_slowdown_x", "x", "lower",
         "median speed-probe reading beside that pass's samples (1 = a "
         "quiet core)"),
        ("shim_overhead_x", "x", "lower", "op with span shims / plain op"),
        ("span_coverage", "share", "higher",
         "sum of span self times / op wall, in-process (per client "
         "thread on service_mix)"),
    ),
]

EXACT = [m.name for m in PER_LAYER if m.exact]


def benchmark_json() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must hold."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv: List[str]) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in argv:
        Path(__file__).resolve().parent.parent.joinpath(
            "BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
