"""The traced run (``--trace 1``): per-layer metrics, measured from
outside.

Nothing under ``src/`` is edited or asked to trace itself.  The harness
replaces the layers' *public* functions with span shims (name, layer,
start, end, causing span, pass label; kept in memory, written to the
scratch directory at exit), and derives a layer's self time as its
spans' durations minus the part their child spans cover.

Shims do not see inside forked pool children, so child-side layers are
attributed from twins of the same op: a plain sequential run, a
simulated 1-worker run (where ``extract_fragment`` and the shadow run
in-process) and a pool 1-worker run.  A counted pass under ``cProfile``
buckets Python calls by module directory for the exact ``*.py_calls``
counts, and the MB/s figures replay the op's
captured fragments through ``pack``/``unpack``/``merge_fragments``/
``ShadowHeap`` in isolation.  Every pass runs a fixed number of ops,
not a time budget.
"""

from __future__ import annotations

import cProfile
import json
import os
import random
import resource
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs
from repro.adapt.controller import SpeculationController
from repro.bench import geomean
from repro.bench.pipeline import PreparedProgram
from repro.frontend import lower
from repro.interp.interpreter import Interpreter
from repro.obs.metrics import labeled
from repro.obs.trace import TRACER
from repro.parallel import pool_backend, shm_ring  # noqa: F401 - patched
from repro.runtime.merge import merge_fragments
from repro.runtime.shadow import TS_BASE, ShadowHeap
from repro.runtime.system import RuntimeSystem
from repro.service.client import ServiceClient
from repro.transform.privatize import PrivateerTransform

import harness
import metrics as table
import workloads
from harness import Part, Samples, p50
from served import CLIENTS, WORKER_KNOBS

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro") + os.sep

#: Ops per pass.  PLAIN feeds the harness's own diagnostics
#: (perfbench.*) and is the base of both overhead ratios.
PLAIN_OPS = 4
SPAN_OPS = 3
OBS_OPS = 2
TWIN_REPEATS = 2

#: What a workload does not exercise, as layers or single metrics: these
#: read 0 there.  Every other declared name has to be measured; a run
#: that leaves one out fails (``run.py``).
IDLE = {
    "prepare_cold": ("parallel", "runtime", "adapt", "forensics", "service",
                     "obs"),
    "doall_clean": ("profiling", "classify", "transform.s", "bench",
                    "service"),
    "doall_storm": ("profiling", "classify", "transform.s", "bench",
                    "service", "obs"),
    "service_mix": ("profiling", "classify", "transform", "bench", "parallel",
                    "runtime", "adapt", "forensics", "obs"),
}


# -- span shims --------------------------------------------------------------

class Spans:
    """Benchmark-owned spans around calls into the layers."""

    def __init__(self) -> None:
        #: ``[name, layer, start, end, parent index, pass label]``
        self.rows: List[list] = []
        #: One stack of open spans per thread (the service clients are
        #: two threads).
        self._local = threading.local()
        self.label = "setup"
        self._undo: List[Tuple[object, str, object]] = []

    def _shim(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable] = None) -> Callable:
        rows, local, clock = self.rows, self._local, time.perf_counter

        def shim(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            idx = len(rows)
            rows.append([name, layer, clock(), 0.0,
                         stack[-1] if stack else -1, self.label])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rows[idx][3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, layer: str,
                 after: Optional[Callable] = None) -> None:
        """Shim a module-level function where it is defined and in every
        loaded ``repro`` module that imported it by name."""
        __import__(module)
        fn = getattr(sys.modules[module], attr)
        shim = self._shim(fn, attr, layer, after)
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "repro"
                                    or name.startswith("repro.")) \
                    and mod.__dict__.get(attr) is fn:
                self._set(mod, attr, shim)

    def method(self, owner: object, attr: str, layer: str,
               after: Optional[Callable] = None,
               name: Optional[str] = None) -> None:
        """Shim an attribute of one owner: a method of a class, or a
        function other modules reach through its module (``os.fork``)."""
        fn = owner.__dict__[attr]
        self._set(owner, attr, self._shim(
            fn, name or f"{owner.__name__}.{attr}", layer, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading the spans ---------------------------------------------------

    def labels(self, prefix: str) -> List[str]:
        return sorted({row[5] for row in self.rows
                       if row[5].startswith(prefix)})

    def total(self, name: str, label: str) -> float:
        """Seconds inside spans called ``name`` during pass ``label``
        (outermost only: a nested span of the same name is not counted
        twice)."""
        total = 0.0
        for row in self.rows:
            if row[0] == name and row[5] == label:
                parent = row[4]
                while parent >= 0 and self.rows[parent][0] != name:
                    parent = self.rows[parent][4]
                if parent < 0:
                    total += row[3] - row[2]
        return total

    def count(self, name: str, label: str) -> int:
        return sum(1 for row in self.rows
                   if row[0] == name and row[5] == label)

    def best(self, name: str, prefix: str = "op") -> float:
        """Fastest pass of a group: min over the labels starting with
        ``prefix`` of :meth:`total`."""
        totals = [self.total(name, label) for label in self.labels(prefix)]
        return min(totals) if totals else 0.0

    def self_times(self, label: str) -> Dict[str, float]:
        """Layer -> self seconds during ``label``: each span's duration
        minus what its direct children cover."""
        child = [0.0] * len(self.rows)
        for row in self.rows:
            if row[4] >= 0:
                child[row[4]] += row[3] - row[2]
        out: Dict[str, float] = {}
        for i, row in enumerate(self.rows):
            if row[5] == label:
                out[row[1]] = out.get(row[1], 0.0) + (row[3] - row[2]
                                                      - child[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, row in enumerate(self.rows):
                f.write(json.dumps({
                    "id": i, "name": row[0], "layer": row[1],
                    "start": row[2], "end": row[3], "parent": row[4],
                    "op": row[5]}) + "\n")


class Captured:
    """What the shims' ``after`` hooks keep for the derivations."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, object]] = []   # (label, result)
        self.executors: List[Tuple[str, object]] = []
        self.epochs: List[List[object]] = []          # fragments per commit
        self.payload_bytes: Dict[str, int] = Counter()
        self.dump_bytes: Dict[str, int] = Counter()
        self.sites: Dict[str, int] = Counter()
        self.steps: Dict[str, int] = Counter()
        self.instructions: Dict[str, int] = Counter()
        self.recover_s: Dict[str, float] = Counter()
        self.recover_t0: Optional[float] = None


def count_instructions(module) -> int:
    return sum(1 for fn in module.defined_functions()
               for _inst in fn.instructions())


CONTROLLER_METHODS = ("begin_invocation", "next_epoch_size",
                      "should_fallback", "begin_fallback", "end_fallback",
                      "on_squash", "note_commit", "note_misspec", "save")


def install(spans: Spans, cap: Captured) -> None:
    """Put a shim on every public function the layers are entered by."""
    label = lambda: spans.label  # noqa: E731

    def after_compile(args, kwargs, module):
        cap.instructions[label()] += count_instructions(module)

    def after_run(args, kwargs, out):
        cap.steps[label()] += args[0].steps

    def after_classify(args, kwargs, assignment):
        cap.sites[label()] += len(assignment.site_heaps)

    def after_execute(args, kwargs, result):
        cap.results.append((label(), result))

    def after_make_executor(args, kwargs, executor):
        cap.executors.append((label(), executor))

    def after_checkpoint(args, kwargs, record):
        fragments = kwargs.get("fragments")
        if fragments is None and len(args) > 3:
            fragments = args[3]
        if fragments and label().startswith("op"):
            cap.epochs.append(list(fragments))

    def after_unpack(args, kwargs, out):
        cap.payload_bytes[label()] += len(args[0])

    def after_dump(args, kwargs, path):
        cap.dump_bytes[label()] += os.path.getsize(path)

    def recovery_begins(args, kwargs, out):
        cap.recover_t0 = time.perf_counter()

    def recovery_ends(args, kwargs, out):
        if cap.recover_t0 is not None:
            cap.recover_s[label()] += time.perf_counter() - cap.recover_t0
            cap.recover_t0 = None

    spans.function("repro.frontend.lower", "compile_minic", "frontend",
                   after_compile)
    spans.function("repro.analysis.mem2reg", "promote_module", "analysis")
    spans.function("repro.analysis.licm", "hoist_module", "analysis")
    spans.method(Interpreter, "run", "interp", after_run)
    spans.function("repro.profiling.timeprof", "profile_execution_time",
                   "profiling")
    spans.function("repro.profiling.loopprof", "profile_loop", "profiling")
    spans.function("repro.classify.classifier", "classify", "classify",
                   after_classify)
    spans.method(PrivateerTransform, "run", "transform")
    spans.function("repro.bench.pipeline", "prepare", "bench")
    spans.function("repro.bench.pipeline", "run_sequential", "bench")
    spans.function("repro.bench.cache", "load_entry", "bench")
    spans.function("repro.bench.cache", "store_entry", "bench")
    spans.method(PreparedProgram, "execute", "parallel", after_execute,
                 name="execute")
    spans.function("repro.parallel.backend", "make_executor", "parallel",
                   after_make_executor)
    spans.function("repro.parallel.shm_ring", "pack_fragment_payload",
                   "parallel")
    spans.function("repro.parallel.shm_ring", "unpack_fragment_payload",
                   "parallel", after_unpack)
    spans.method(os, "fork", "parallel", name="fork")
    spans.method(RuntimeSystem, "checkpoint", "runtime", after_checkpoint,
                 name="checkpoint")
    spans.method(RuntimeSystem, "extract_fragment", "runtime",
                 name="extract_fragment")
    spans.method(RuntimeSystem, "squash_to_recovery", "runtime",
                 recovery_begins)
    spans.method(RuntimeSystem, "begin_sequential_span", "runtime",
                 recovery_begins)
    spans.method(RuntimeSystem, "resume_after_recovery", "runtime",
                 recovery_ends)
    spans.function("repro.runtime.merge", "find_phase2_violation", "runtime")
    spans.function("repro.runtime.merge", "merge_fragments", "runtime")
    for attr in CONTROLLER_METHODS:
        spans.method(SpeculationController, attr, "adapt", name="controller")
    spans.function("repro.forensics.recorder", "write_dump", "forensics",
                   after_dump)
    spans.method(ServiceClient, "submit", "service")
    spans.method(ServiceClient, "job", "service")


# -- counted pass ------------------------------------------------------------

def count_calls(fn: Callable[[], object]) -> Dict[str, int]:
    """Layer -> Python calls made during one call of ``fn``, bucketed by
    the callee's directory under ``src/repro`` and counted by
    ``cProfile`` (C callbacks: a fraction of what a ``sys.setprofile``
    function costs per event)."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    counts: Dict[str, int] = Counter()
    for entry in profile.getstats():
        filename = getattr(entry.code, "co_filename", "")
        if filename.startswith(SRC):
            layer = filename[len(SRC):].split(os.sep, 1)[0]
            counts[layer] += entry.callcount
    return dict(counts)


# -- replay of captured fragments -------------------------------------------

def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 and nbytes else 0.0


def _timed_loop(fn: Callable[[], None], min_seconds: float = 0.05) -> float:
    """Seconds per call of ``fn``, best of a few batches."""
    best = float("inf")
    for _ in range(3):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        best = min(best, elapsed / calls)
    return best


def replay(epochs: List[List[object]]) -> Dict[str, float]:
    """MB/s of pack, unpack, merge and shadow validation over the
    fragments the op's checkpoints committed, each in isolation."""
    from repro.parallel.shm_ring import (pack_fragment_payload,
                                         payload_size,
                                         unpack_fragment_payload)

    fragments = [f for epoch in epochs for f in epoch]
    if not fragments:
        return {}
    sizes = [payload_size(len(f.read_live_in_runs), len(f.write_runs),
                          len(f.epoch_written_runs), len(f.write_kinds),
                          len(f.write_values)) for f in fragments]
    buffers = [bytearray(size) for size in sizes]

    def pack() -> None:
        for f, buf in zip(fragments, buffers):
            pack_fragment_payload(buf, 0, f.read_live_in_runs, f.write_runs,
                                  f.epoch_written_runs, f.write_kinds,
                                  f.write_values)

    def unpack() -> None:
        for buf in buffers:
            unpack_fragment_payload(memoryview(buf))

    def merge() -> None:
        for epoch in epochs:
            merge_fragments(epoch)

    extent = max([end for f in fragments for _s, end, _r in f.write_runs]
                 + [end for f in fragments for _s, end in f.read_live_in_runs]
                 + [1])

    def shadow() -> None:
        for f in fragments:
            # Writes and reads go to separate heaps: replayed out of
            # their original order on one heap they would misspeculate.
            written, read = ShadowHeap(extent), ShadowHeap(extent)
            for start, end, rel in f.write_runs:
                written.on_write(start, end - start, TS_BASE + rel, rel)
            for start, end in f.read_live_in_runs:
                read.on_read(start, end - start, TS_BASE, 0)

    written = sum(f.write_byte_count() for f in fragments)
    validated = written + sum(end - start for f in fragments
                              for start, end in f.read_live_in_runs)
    pack_s = _timed_loop(pack)
    return {
        "parallel.ring.pack_mbps": _mbps(sum(sizes), pack_s),
        "parallel.ring.unpack_mbps": _mbps(sum(sizes), _timed_loop(unpack)),
        "runtime.merge_mbps": _mbps(written, _timed_loop(merge)),
        "runtime.shadow_validate_mbps": _mbps(validated,
                                              _timed_loop(shadow)),
    }


# -- passes -------------------------------------------------------------------

class PartCost:
    """Parent and reaped-children CPU around the timed call of a part."""

    def __init__(self, live_pids: Sequence[int] = ()) -> None:
        self.live_pids = live_pids
        self.parent: Dict[str, List[float]] = {}
        self.children: Dict[str, List[float]] = {}
        self.live: Dict[str, List[float]] = {}

    def _live_cpu(self) -> float:
        return sum(harness.proc_cpu_s(pid) for pid in self.live_pids)

    def wrap(self, part: Part) -> Part:
        def run():
            live0 = self._live_cpu()
            kids0 = _children_cpu()
            own0 = time.process_time()
            try:
                return part.run()
            finally:
                self.parent.setdefault(part.name, []).append(
                    time.process_time() - own0)
                self.children.setdefault(part.name, []).append(
                    _children_cpu() - kids0)
                self.live.setdefault(part.name, []).append(
                    self._live_cpu() - live0)

        return Part(part.name, run, part.check, part.before, part.cpus)


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def sweeps(parts: Sequence[Part], n: int, rng: random.Random,
           live_pids: Sequence[int], into: Samples,
           each: Optional[Callable[[int], None]] = None) -> None:
    """``n`` checked sweeps of the parts in seed-permuted order."""
    for k in range(n):
        if each is not None:
            each(k)
        harness.sweep(parts, into, rng, live_pids)


def twin_programs(bench, spans: Spans
                  ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One library compile and one plain sequential run of each of the
    workload's programs at its ref inputs, under the shims (label
    ``twin``), for the timings; then the same compile and a run of the
    small golden inputs under the call counter (counting slows a run
    several times, and calls per instruction do not need a long one)."""
    small_steps = [0]

    def compile_and_run() -> None:
        for prog in bench.programs:
            module = lower.compile_minic(prog.source, prog.name)
            interp = Interpreter(module)
            interp.run("main", workloads.GOLDEN_INPUTS[prog.name])
            small_steps[0] += interp.steps

    seq_s: Dict[str, float] = {}
    for k in range(TWIN_REPEATS):
        spans.label = f"twin{k}"
        for prog in bench.programs:
            module = lower.compile_minic(prog.source, prog.name)
            t0 = time.perf_counter()
            Interpreter(module).run("main", prog.ref)
            seq_s[prog.name] = min(seq_s.get(prog.name, float("inf")),
                                   time.perf_counter() - t0)
    spans.uninstall()
    counts = count_calls(compile_and_run)
    counts["guest_instrs"] = small_steps[0]
    return seq_s, counts


def traced(args, rng: random.Random) -> Dict[str, object]:
    """The whole traced run of one workload; returns the result the
    driver prints (``metrics`` holds every per-layer value measured and
    a 0 for every name in the workload's ``IDLE`` list)."""
    import child

    spans, cap = Spans(), Captured()
    problems: List[str] = []
    checked = Samples()
    m: Dict[str, float] = {}
    doall = args.workload.startswith("doall")

    passes: List[str] = []
    clock = [time.perf_counter()]

    def passed(name: str) -> None:
        now = time.perf_counter()
        passes.append(f"pass {name}: {now - clock[0]:.2f}s")
        clock[0] = now

    bench, warmup, _setup = child.set_up(args, rng, problems)
    passed("set-up")
    try:
        live = bench.live_pids
        # 1. Plain ops: the harness's own diagnostics and the base of
        #    the two overhead ratios.
        plain = Samples()
        sweeps(bench.parts, PLAIN_OPS, rng, live, plain)
        med = sum(p50(v) for v in plain.wall.values())
        m["perfbench.samples_per_part"] = plain.per_part
        m["perfbench.op_median_s"] = med
        m["perfbench.op_iqr_share"] = sum(
            q3 - q1 for q1, _q2, q3 in map(harness.quartiles,
                                            plain.wall.values())) / med
        m["perfbench.box_slowdown_x"] = plain.slowdown
        passed(f"{PLAIN_OPS} plain ops")

        # 2. The same ops under the span shims.
        install(spans, cap)
        cost = PartCost(live)
        shimmed = Samples()

        def name_op(k: int) -> None:
            spans.label = f"op{k}"

        sweeps([cost.wrap(p) for p in bench.parts], SPAN_OPS, rng, live,
               shimmed, each=name_op)
        m["perfbench.shim_overhead_x"] = shimmed.best_s / plain.best_s
        ops = spans.labels("op")
        covered = sum(sum(spans.self_times(label).values()) for label in ops)
        # Two client threads can both be inside a span at once.
        threads = CLIENTS if bench.mix else 1
        m["perfbench.span_coverage"] = covered / threads / sum(
            sum(v) for v in shimmed.wall.values())
        passed(f"{SPAN_OPS} shimmed ops")

        # 3. Twins and the counted pass (shims come off inside).
        if args.workload == "prepare_cold":
            for prog in bench.programs:
                # The ops emptied the cache before every sample.
                spans.label = "fill"
                prog.prepare()
                spans.label = "warm"
                prog.prepare()
        if doall:
            twin_executes(bench, spans, m, args.workload)
            passed("execute twins")
        seq_s, twin_counts = twin_programs(bench, spans)
        passed("program twins")
        op_counts = {} if bench.mix else count_calls(
            lambda: sweeps(bench.parts, 1, rng, live, checked))
        passed("counted op")

        derive_common(m, spans, cap, bench, seq_s, twin_counts)
        if args.workload == "prepare_cold":
            derive_prepare(m, spans, cap, seq_s, op_counts)
        elif doall:
            derive_doall(m, spans, cap, bench, plain, shimmed, cost, seq_s,
                         op_counts)
            m.update(replay(cap.epochs))
            if args.workload == "doall_clean":
                derive_obs(m, bench, rng, live, plain, checked)
        else:
            passes.append(derive_service(m, bench, cost))
        passed("replay, obs and library twins")
    finally:
        spans.uninstall()
        problems += bench.close()
        spans.write(os.path.join(args.scratch, "spans.jsonl"))

    idle = [metric.name for metric in table.PER_LAYER
            if any(metric.name == entry or metric.name.startswith(entry + ".")
                   for entry in IDLE[args.workload])]
    problems += [f"{name} is measured, yet listed as idle on {args.workload}"
                 for name in idle if name in m]
    m.update(dict.fromkeys(idle, 0))
    samples = [warmup, plain, shimmed, checked]
    return {
        "metrics": m,
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "problems": problems + [e for s in samples[1:] for e in s.errors],
        "notes": harness.describe(plain) + passes,
    }


def twin_executes(bench, spans: Spans, m: Dict[str, float],
                  workload: str) -> None:
    """The op on the simulated and pool backends at 1 worker, and the
    cost model's 24-worker speedup (a number no timing can move)."""
    knobs = dict(workloads.STORM) if workload == "doall_storm" \
        else dict(adapt=False)
    storm = workload == "doall_storm"
    best = {"sim1": float("inf"), "pool1": float("inf")}
    speedups = []
    for k in range(TWIN_REPEATS):
        totals = {"sim1": 0.0, "pool1": 0.0}
        for prog in bench.programs:
            for label, backend in (("sim1", "simulated"), ("pool1", "pool")):
                if storm:
                    workloads.empty_dir(os.environ["REPRO_ADAPT_DIR"])
                spans.label = label if k == 0 else f"{label}.again"
                t0 = time.perf_counter()
                prog.prepared.execute(backend=backend, workers=1, **knobs)
                totals[label] += time.perf_counter() - t0
        for label in best:
            best[label] = min(best[label], totals[label])
    spans.label = "sim24"
    for prog in bench.programs:
        result = prog.prepared.execute(backend="simulated", workers=24,
                                       adapt=False)
        speedups.append(prog.prepared.speedup(result))
    m["parallel.sim1_s"] = best["sim1"]
    m["parallel.pool1_s"] = best["pool1"]
    m["parallel.sim_speedup_24w"] = round(geomean(speedups), 6)


# -- derivations --------------------------------------------------------------

def derive_common(m, spans: Spans, cap: Captured, bench,
                  seq_s: Dict[str, float], counts: Dict[str, int]) -> None:
    """frontend / ir / analysis / interp: from the program twins."""
    twins = spans.labels("twin")
    compile_self = []
    for label in twins:
        total = spans.total("compile_minic", label)
        inner = (spans.total("promote_module", label)
                 + spans.total("hoist_module", label))
        compile_self.append(total - inner)
    m["frontend.compile_s"] = min(compile_self)
    m["analysis.mem2reg_s"] = spans.best("promote_module", "twin")
    m["analysis.licm_s"] = spans.best("hoist_module", "twin")
    m["frontend.py_calls"] = counts.get("frontend", 0)
    m["analysis.py_calls"] = counts.get("analysis", 0)
    m["ir.instructions"] = cap.instructions[twins[0]]
    if all(p.prepared for p in bench.programs):
        after = sum(count_instructions(p.prepared.module)
                    for p in bench.programs)
        m["transform.instr_growth_x"] = round(
            after / m["ir.instructions"], 6)
    steps = cap.steps[twins[0]]
    m["interp.guest_instrs"] = steps
    m["interp.seq_s"] = sum(seq_s.values())
    m["interp.seq_ips"] = steps / m["interp.seq_s"]
    m["interp.py_calls_per_kinstr"] = round(
        1000.0 * counts.get("interp", 0) / counts["guest_instrs"], 3)


def derive_prepare(m, spans: Spans, cap: Captured, seq_s, op_counts) -> None:
    op = spans.labels("op")[0]
    m["profiling.time_s"] = spans.best("profile_execution_time")
    m["profiling.loop_s"] = spans.best("profile_loop")
    runs = (spans.count("profile_execution_time", op)
            + spans.count("profile_loop", op))
    m["profiling.candidates"] = spans.count("profile_loop", op)
    m["profiling.py_calls"] = op_counts.get("profiling", 0)
    # One time profile per program, so runs / programs instrumented runs
    # stand against each plain one.
    plain_equivalent = sum(seq_s.values()) * runs / len(seq_s)
    m["profiling.slowdown_x"] = (
        (m["profiling.time_s"] + m["profiling.loop_s"]) / plain_equivalent)
    m["classify.s"] = spans.best("classify")
    m["classify.sites"] = cap.sites[op]
    m["transform.s"] = spans.best("PrivateerTransform.run")
    m["bench.cache_store_s"] = spans.best("store_entry")
    m["bench.glue_s"] = min(
        spans.self_times(label).get("bench", 0.0)
        - spans.total("store_entry", label) - spans.total("load_entry", label)
        for label in spans.labels("op"))
    m["bench.prepare_warm_s"] = spans.total("prepare", "warm")
    m["bench.cache_load_s"] = spans.total("load_entry", "warm")


def derive_doall(m, spans: Spans, cap: Captured, bench, plain: Samples,
                 shimmed: Samples, cost: PartCost, seq_s, op_counts) -> None:
    ops = spans.labels("op")
    op = ops[0]
    results = [r for label, r in cap.results if label == op]
    executors = [e for label, e in cap.executors if label == op]
    stats = [r.runtime_stats for r in results]
    invs = [inv for r in results for inv in r.invocations]

    m["parallel.speedup_vs_seq"] = geomean(
        [seq_s[name] / min(wall) for name, wall in plain.wall.items()])
    m["parallel.scale_2w_x"] = m["parallel.pool1_s"] / plain.best_s
    m["parallel.spec_tax_x"] = m["parallel.sim1_s"] / m["interp.seq_s"]
    m["parallel.transport_tax_x"] = (m["parallel.pool1_s"]
                                     / m["parallel.sim1_s"])
    m["parallel.parent_cpu_s"] = sum(min(v) for v in cost.parent.values())
    m["parallel.child_cpu_s"] = sum(min(v) for v in cost.children.values())
    m["parallel.serial_share"] = m["parallel.parent_cpu_s"] / shimmed.best_s
    m["parallel.spawn_s"] = spans.best("fork")
    m["parallel.recover_s"] = min(cap.recover_s[label] for label in ops)
    m["parallel.parent_py_calls"] = op_counts.get("parallel", 0)
    m["parallel.epochs"] = sum(s.checkpoints for s in stats)
    m["parallel.invocations"] = sum(s.invocations for s in stats)
    m["parallel.spawns"] = sum(e.pool_spawns for e in executors)
    m["parallel.squashes"] = sum(s.misspec_count() for s in stats)
    m["parallel.squashed_iters"] = sum(i.recovered_iterations for i in invs)
    m["parallel.seq_fallback_iters"] = sum(i.sequential_iterations
                                           for i in invs)
    m["parallel.ring_overflows"] = sum(e.ring_overflows for e in executors)
    m["parallel.ring.payload_bytes_per_epoch"] = round(
        cap.payload_bytes[op] / max(1, m["parallel.epochs"]), 3)

    m["runtime.checkpoint_s"] = spans.best("checkpoint")
    m["runtime.phase2_s"] = spans.best("find_phase2_violation")
    m["runtime.merge_s"] = spans.best("merge_fragments")
    m["runtime.extract_s"] = spans.total("extract_fragment", "sim1")
    m["runtime.private_read_bytes"] = sum(s.private_read_bytes
                                          for s in stats)
    m["runtime.private_write_bytes"] = sum(s.private_write_bytes
                                           for s in stats)
    m["runtime.separation_checks"] = sum(s.separation_checks for s in stats)
    m["runtime.py_calls"] = op_counts.get("runtime", 0)

    adapt = [r.adapt for r in results if r.adapt]
    m["adapt.decide_s"] = spans.best("controller")
    for key in ("shrinks", "grows", "fallbacks"):
        m[f"adapt.{key}"] = sum(a[key] for a in adapt)
    m["adapt.final_epoch"] = sum(a["final_epoch"] for a in adapt)
    m["forensics.dumps"] = spans.count("write_dump", op)
    m["forensics.dump_bytes"] = cap.dump_bytes[op]
    m["forensics.dump_s"] = spans.best("write_dump")


def derive_obs(m, bench, rng, live, plain: Samples,
               checked: Samples) -> None:
    """The op under ``repro.obs.enable()`` against the plain op."""
    traced_ops = Samples()
    repro.obs.enable()
    try:
        sweeps(bench.parts, OBS_OPS, rng, live, traced_ops)
        events = len(TRACER.events)
    finally:
        repro.obs.disable()
        TRACER.reset()
    m["obs.trace_overhead_x"] = traced_ops.best_s / plain.best_s
    m["obs.events_per_op"] = round(events / OBS_OPS, 3)
    checked.attempted += traced_ops.attempted
    checked.failed += traced_ops.failed
    checked.errors += traced_ops.errors


def derive_service(m, bench, cost: PartCost) -> str:
    """service.*; returns the note that names the tail's percentile."""
    mix = bench.mix
    played = mix.history[-SPAN_OPS * len(bench.parts):]
    records = [r for records in played for r in records]
    by_tier = {tier: [r for r in records if r.tier == tier]
               for tier in ("cold", "warm", "hit")}
    queued = by_tier["cold"] + by_tier["warm"]
    m["service.submit_rtt_p50_s"] = p50([r.submit_rtt_s for r in queued])
    m["service.hit_rtt_p50_s"] = p50([r.submit_rtt_s
                                      for r in by_tier["hit"]])
    m["service.cold_job_p50_s"] = p50([r.total_s for r in by_tier["cold"]])
    warm = [r.total_s for r in by_tier["warm"]]
    m["service.warm_job_p50_s"] = p50(warm)
    pct, m["service.warm_job_tail_s"] = harness.tail(warm)
    m["service.queue_wait_p50_s"] = p50(
        [r.job["started_unix"] - r.job["submitted_unix"] for r in queued])
    m["service.polls_per_job"] = sum(r.polls for r in queued) / len(queued)
    m["service.cache_hit_ratio"] = round(
        sum(1 for r in records if r.job.get("cache_hit")) / len(records), 6)
    m["service.warm_ratio"] = round(
        sum(1 for r in queued if r.job.get("warm")) / len(queued), 6)
    m["service.rejected_429"] = sum(1 for r in records if r.rejected)

    server = ServiceClient(mix.server.url).metrics()["metrics"]
    cold = server.get(labeled("service.job.prepare_us", tier="cold"), {})
    m["service.prepare_p50_s"] = (cold.get("p50") or 0.0) / 1e6
    m["service.execute_p50_s"] = (
        server.get("service.job.exec_us", {}).get("p50") or 0.0) / 1e6
    m["service.server_cpu_s"] = sum(min(v) for v in cost.live.values())

    # The warm tier's work as library calls: prepare once, execute at
    # each of the tier's knobs; the service's tax is what it adds.
    library = []
    for prog in bench.programs:
        prepared = prog.prepare()
        for workers in WORKER_KNOBS:
            best = float("inf")
            for _ in range(TWIN_REPEATS):
                t0 = time.perf_counter()
                prepared.execute(workers=workers, backend="simulated")
                best = min(best, time.perf_counter() - t0)
            library.append(best)
    m["service.tax_x"] = m["service.warm_job_p50_s"] / p50(library)
    return (f"service.warm_job_tail_s is p{pct:.0f} of {len(warm)} "
            f"warm jobs")
