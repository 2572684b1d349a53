"""Instrumented sites (DESIGN.md §7): hooks are notified only of the
events they subscribed to, a branch notifies its loop-edge subscribers
only on edges that enter, exit or iterate a loop, and the validation
intrinsics run their common case inline in generated code.

Everything here holds the fast path to the step interpreter and to the
intrinsics it replaces: the hot report and every candidate's
``LoopProfile`` on the five workloads — and the one profiling run to a
loop profile per loop (DESIGN.md §7 "One profiling run") —, the
loop-edge classification
against ``LoopInfoCache.actions``, and ``RuntimeStats``, cycles, output
and memory of speculative runs with and without the inline paths.
"""

import dataclasses

import pytest

from repro import obs
from repro.analysis.loops import LoopInfo
from repro.bench import pipeline
from repro.bench.pipeline import prepare
from repro.frontend import compile_minic
from repro.interp.interpreter import Hook, Interpreter
from repro.parallel.backend import make_executor
from repro.profiling import LoopInfoCache, profile_execution_time, profile_loop
from repro.profiling.serialize import hot_report_to_dict, profile_to_dict
from repro.runtime.shadow import SHADOW_ENV
from repro.runtime.system import PUBLISHED_COUNTERS, RuntimeSystem
from repro.workloads import ALL_WORKLOADS

from helpers import kept_profiles_equal_own_runs, prepared_counter_program

WORKLOAD_IDS = [w.name for w in ALL_WORKLOADS]

NESTED_SRC = """
int g[16];
int helper(int x) {
    int s = 0;
    for (int k = 0; k < 3; k++) { if (k == x) { s = s + 2; } else { s = s + 1; } }
    return s;
}
int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) {
            if ((i + j) % 3 == 0) { acc = acc + helper(j); continue; }
            g[j] = g[j] + i;
            if (acc > 1000) { break; }
        }
        acc = acc + g[i % 16];
    }
    return acc;
}
"""


class EdgeLog(Hook):
    """Records the edges it is notified of, under some subscription."""

    def __init__(self, subscription):
        self.subscription = frozenset(subscription)
        self.edges = []
        self.other = []

    def on_branch(self, interp, inst, target):
        self.edges.append((inst.parent, target))

    def on_load(self, interp, inst, addr, size):
        self.other.append("load")

    def on_store(self, interp, inst, addr, size):
        self.other.append("store")

    def on_call(self, interp, inst, callee):
        self.other.append("call")


def _candidates(report):
    """What ``prepare`` profiles: the hot report's loops with at least a
    tenth of the cycles, hottest first, six at most."""
    return [r.ref for r in report.hottest(top_level_only=False)
            if report.coverage(r.ref) >= 0.10][:6]


# -- loop edges ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_loop_edges_are_the_edges_a_tracker_acts_on(workload):
    """Pristine and transformed: every edge of every function."""
    pristine = compile_minic(workload.source, workload.name)
    transformed = prepare(workload.source, workload.name,
                          args=workload.train, use_cache=False).module
    edges = 0
    for module in (pristine, transformed):
        cache = LoopInfoCache(module)
        for fn in module.defined_functions():
            info = LoopInfo(fn)
            for src in fn.blocks:
                for dst in src.successors():
                    actions = cache.actions(src, dst)
                    acts = bool(actions.exited or actions.iterated
                                or actions.entered)
                    assert info.is_loop_edge(src, dst) == acts, (
                        fn.name, src.name, dst.name)
                    edges += 1
    assert edges > 20


@pytest.mark.parametrize("compiled", [True, False], ids=["fast", "step"])
def test_loop_edge_subscribers_see_exactly_the_loop_edges(compiled):
    module = compile_minic(NESTED_SRC, "nested")
    cache = LoopInfoCache(module)
    every = EdgeLog({"edge"})
    loops = EdgeLog({"loop_edge"})
    both = EdgeLog({"edge", "loop_edge"})
    interp = Interpreter(module, compiled=compiled)
    for hook in (loops, every, both):
        interp.add_hook(hook)
    interp.run("main", (9,))
    assert every.edges == both.edges  # one call per edge, never two
    want = [e for e in every.edges if cache.actions(*e).moves]
    assert loops.edges == want
    assert 0 < len(want) < len(every.edges)
    assert not (every.other or loops.other or both.other)


def test_subscriptions_select_what_a_hook_hears():
    module = compile_minic(NESTED_SRC, "nested")
    logs = {}
    for compiled in (True, False):
        interp = Interpreter(module, compiled=compiled)
        plain, quiet = EdgeLog(Hook.subscription), EdgeLog(())
        stores = EdgeLog({"store"})
        for hook in (plain, quiet, stores):
            interp.add_hook(hook)
        interp.run("main", (5,))
        assert {"load", "store", "call"} <= set(plain.other)
        assert not quiet.edges and not quiet.other
        assert not stores.edges and set(stores.other) == {"store"}
        assert interp.hooks == (plain, quiet, stores)
        interp.remove_hook(quiet)
        assert interp.hooks == (plain, stores)
        logs[compiled] = (plain.edges, plain.other, stores.other)
    assert logs[True] == logs[False]
    with pytest.raises(ValueError, match="unknown hook events"):
        Interpreter(module).add_hook(Hook(), {"loads"})


class Switcher(EdgeLog):
    """Subscribes to loads from the third edge on: a change made while an
    edge is being notified holds from the next event."""

    def __init__(self, interp):
        super().__init__({"edge"})
        self.interp = interp

    def on_branch(self, interp, inst, target):
        super().on_branch(interp, inst, target)
        if len(self.edges) == 3:
            self.interp.subscribe(self, {"edge", "load"})


def test_subscription_changes_apply_from_the_next_event():
    module = compile_minic(NESTED_SRC, "nested")
    seen = {}
    for compiled in (True, False):
        interp = Interpreter(module, compiled=compiled)
        hook = Switcher(interp)
        interp.add_hook(hook)
        interp.run("main", (4,))
        assert "load" in hook.other and "store" not in hook.other
        seen[compiled] = (hook.edges, hook.other)
    assert seen[True] == seen[False]


# -- profiles --------------------------------------------------------------------


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_hot_report_and_every_candidate_profile_fast_equals_step(
        workload, monkeypatch):
    results = {}
    for mode in ("step", "fast"):
        monkeypatch.setenv("REPRO_INTERP", mode)
        module = compile_minic(workload.source, workload.name)
        report = profile_execution_time(module, args=workload.train)
        refs = _candidates(report)
        assert refs
        results[mode] = (hot_report_to_dict(report), [
            profile_to_dict(profile_loop(module, ref, args=workload.train))
            for ref in refs])
    assert results["fast"] == results["step"]


# -- one profiling run -------------------------------------------------------------


@pytest.mark.parametrize("mode", ["fast", "step"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_one_run_keeps_what_profile_loop_records(workload, mode,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_INTERP", mode)
    module = compile_minic(workload.source, workload.name)
    report, kept = kept_profiles_equal_own_runs(module, workload.train)
    # The first candidate is kept on all five workloads: none of them
    # needs a loop profile of its own to select its loop.
    assert _candidates(report)[0] in kept


#: Programs whose hottest candidate the one run cannot profile
#: completely, with their train inputs; each must still select what a
#: loop profile per candidate selects.
FALLBACKS = {
    # fill's loop runs once at top level, then inside main's loop.
    "top_level_and_nested": ("""
    int buf[16];
    int out[64];
    int fill(int k) {
        for (int j = 0; j < 16; j++) { buf[j] = k * j + 1; }
        return buf[k % 16];
    }
    int main(int n) {
        long acc = fill(1);
        for (int i = 0; i < n; i++) { acc = acc * 3 + fill(i); out[i] = acc % 97; }
        printf("%ld\\n", acc);
        return 0;
    }
    """, (12,)),
    # walk's loop is entered again inside itself.
    "recursive": ("""
    int buf[64];
    int out[64];
    void walk(int d) {
        for (int j = 0; j < 16; j++) {
            buf[d * 16 + j] = d * j + 1;
            if (j == 15 && d > 0) { walk(d - 1); }
        }
    }
    int main(int n) {
        walk(3);
        long acc = 1;
        for (int i = 0; i < n; i++) { acc = acc * 5 + buf[i % 64]; }
        for (int i = 0; i < 64; i++) { out[i] = buf[i] * 2 + 1; }
        printf("%ld %d\\n", acc, out[n % 64]);
        return 0;
    }
    """, (40,)),
    # The program ends in exit() with main's loop still open.
    "exit_inside": ("""
    int g[64];
    int main(int n) {
        long acc = 1;
        for (int r = 0; r < n; r++) {
            for (int i = 0; i < 64; i++) { g[i] = g[i] * 3 + r + i; }
            acc = acc * 7 + g[r % 64];
            if (r == n - 2) { printf("%ld\\n", acc); exit(0); }
        }
        return 1;
    }
    """, (10,)),
    # fill's loop is reached from two loops and never at top level.
    "callee_of_two_loops": ("""
    int buf[16];
    int out[64];
    int fill(int k) {
        for (int j = 0; j < 16; j++) { buf[j] = k * j + 1; }
        return buf[k % 16];
    }
    int main(int n) {
        long acc = 1;
        for (int i = 0; i < n; i++) { acc = acc * 3 + fill(i); }
        for (int i = 0; i < n; i++) { acc = acc * 5 + fill(i + 7); out[i] = acc % 89; }
        printf("%ld %d\\n", acc, out[1]);
        return 0;
    }
    """, (12,)),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_a_fallback_selects_what_a_run_per_candidate_selects(name,
                                                             monkeypatch):
    source, args = FALLBACKS[name]
    _report, kept = kept_profiles_equal_own_runs(compile_minic(source, name),
                                                 args)
    own_runs = []
    profile_loop_ = pipeline.profile_loop
    monkeypatch.setattr(pipeline, "profile_loop", lambda module, ref, *a: (
        own_runs.append(ref) or profile_loop_(module, ref, *a)))
    one_run = prepare(source, name, args=args, use_cache=False, adapt=False)
    assert own_runs and own_runs[0] not in kept
    # What the pipeline did before the one run: a time profile alone,
    # then a loop profile of its own for every candidate it consulted.
    time_only = pipeline.profile_execution_time
    monkeypatch.setattr(pipeline, "profile_execution_time",
                        lambda *a, loop_profiles=None, **k: time_only(*a, **k))
    per_candidate = prepare(source, name, args=args, use_cache=False,
                            adapt=False)
    assert str(one_run.plan.ref) == str(per_candidate.plan.ref)
    assert profile_to_dict(one_run.profile) == profile_to_dict(
        per_candidate.profile)
    assert one_run.assignment.site_heaps == per_candidate.assignment.site_heaps
    assert one_run.rejected == per_candidate.rejected
    assert one_run.sequential == per_candidate.sequential


# -- validation intrinsics ---------------------------------------------------------


def _run(program, processes=1, **kwargs):
    executor = make_executor(program.module, program.plan,
                             workers=kwargs.pop("workers", 3),
                             processes=processes, **kwargs)
    result = executor.run(program.entry, program.ref_args)
    memory = sorted((o.base, o.size, bytes(o.data))
                    for o in executor.runtime.main_space.live_objects())
    return (result.output, result.return_value, result.total_wall_cycles,
            dataclasses.asdict(result.runtime_stats), memory)


def _count_intrinsic_calls(monkeypatch):
    calls = {}
    for name in ("check_heap", "private_read", "private_write",
                 "redux_update"):
        method = getattr(RuntimeSystem, "_i_" + name)

        def counted(self, interp, inst, args, method=method, name=name):
            calls[name] = calls.get(name, 0) + 1
            return method(self, interp, inst, args)

        monkeypatch.setattr(RuntimeSystem, "_i_" + name, counted)
    return calls


@pytest.fixture(scope="module")
def counter():
    return prepared_counter_program(24)


def test_common_cases_run_inline_and_charge_what_the_intrinsics_do(
        counter, monkeypatch):
    calls = _count_intrinsic_calls(monkeypatch)
    inline = _run(counter)
    stats = inline[3]
    assert stats["private_read_calls"] > 0 and stats["private_write_calls"] > 0
    called = dict(calls)
    # Reads of bytes the iteration wrote, and writes over live-in or own
    # bytes, never reach the intrinsic.
    assert called.get("private_read", 0) < stats["private_read_calls"] // 2
    assert called.get("private_write", 0) == 0
    calls.clear()
    monkeypatch.setenv("REPRO_INTERP", "step")
    assert _run(counter) == inline
    assert calls["private_read"] == stats["private_read_calls"]
    assert calls["private_write"] == stats["private_write_calls"]


@pytest.mark.parametrize("period", [0, 5], ids=["clean", "misspec5"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_inline_step_and_reference_shadow_agree(workload, period,
                                                monkeypatch):
    program = prepare(workload.source, workload.name, args=workload.train,
                      use_cache=False, adapt=False)
    inline = _run(program, misspec_period=period)
    assert inline[0] == program.sequential.output
    monkeypatch.setenv(SHADOW_ENV, "ref")
    assert _run(program, misspec_period=period) == inline
    monkeypatch.delenv(SHADOW_ENV)
    monkeypatch.setenv("REPRO_INTERP", "step")
    assert _run(program, misspec_period=period) == inline


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_a_traced_run_makes_the_calls_of_an_untraced_one(workload,
                                                         monkeypatch):
    program = prepare(workload.source, workload.name, args=workload.train,
                      use_cache=False, adapt=False)
    calls = _count_intrinsic_calls(monkeypatch)
    plain = _run(program, misspec_period=5)
    untraced = dict(calls)
    calls.clear()
    obs.enable()
    try:
        traced = _run(program, misspec_period=5)
    finally:
        obs.disable()
    assert traced == plain
    assert calls == untraced


@pytest.mark.parametrize("processes", [1, 2])
def test_runtime_counters_equal_the_stats(processes):
    """The registry's access counters are published from the stats in
    the parent, a squashed epoch's accesses included: dijkstra checks
    separation, alvinn updates reductions."""
    grown = set()
    for workload in (w for w in ALL_WORKLOADS
                     if w.name in ("dijkstra", "alvinn")):
        program = prepare(workload.source, workload.name,
                          args=workload.train, use_cache=False, adapt=False)
        obs.enable()
        try:
            stats = _run(program, processes, workers=2, misspec_period=5)[3]
            counters = {name: obs.METRICS.counter(name).value
                        for name in PUBLISHED_COUNTERS}
        finally:
            obs.disable()
        assert counters == {name: stats[field]
                            for name, field in PUBLISHED_COUNTERS.items()}
        grown |= {name for name, value in counters.items() if value}
    assert grown == set(PUBLISHED_COUNTERS)


def test_reductions_inline_on_pool_and_simulated():
    src = """
    double acc[4];
    long hits[3];
    int main(int n) {
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < 4; j++) { acc[j] += (i * 3 + j) * 0.5; }
            for (int j = 0; j < 3; j++) { hits[j] += i + j; }
        }
        printf("%f %f %ld %ld\\n", acc[0], acc[3], hits[0], hits[2]);
        return 0;
    }
    """
    program = prepare(src, "redux_inline", args=(8,), ref_args=(13,),
                      use_cache=False)
    assert len(program.plan.redux_objects) == 2
    simulated = _run(program, checkpoint_period=3)
    assert simulated[3]["redux_updates"] > 0
    assert simulated[0] == program.sequential.output
    assert _run(program, 3, checkpoint_period=3) == simulated
