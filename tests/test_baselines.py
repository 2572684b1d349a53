"""Baselines: DOALL-only executor, LRPD applicability, dependence
speculation estimates."""

import signal
from pathlib import Path

import pytest

from repro.analysis import LoopInfo, doall_legal_static
from repro.baselines import (
    DOALLOnlyExecutor,
    analyze_loops,
    estimate_dependence_speculation,
    judge_hot_loop,
    run_doall_only,
    select_compatible,
)
from repro.frontend import compile_minic
from repro.interp.errors import GuestFault

INDEPENDENT_SRC = """
int a[128];
int main(int n) {
    for (int i = 0; i < n; i++) { a[i] = i; }
    for (int i = 0; i < n; i++) {
        int acc = a[i];
        for (int r = 0; r < 300; r++) { acc = acc * 3 + r; }
        a[i] = acc;
    }
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + a[i]; }
    printf("%d\\n", total);
    return 0;
}
"""

QUEUE_SRC = """
struct n { int v; struct n* next; };
struct n* head;
int out[128];
int main(int n) {
    for (int i = 0; i < n; i++) {
        struct n* c = (struct n*)malloc(sizeof(struct n));
        c->v = i; c->next = head; head = c;
        int acc = 0;
        while (head != 0) {
            acc += head->v;
            struct n* d = head;
            head = head->next;
            free(d);
        }
        out[i] = acc;
    }
    printf("%d\\n", out[3]);
    return 0;
}
"""


class TestDOALLOnlyAnalysis:
    def test_independent_loop_selected(self):
        mod = compile_minic(INDEPENDENT_SRC)
        candidates = analyze_loops(mod, args=(64,))
        selected = select_compatible(mod, candidates)
        assert selected  # the a[i] loops are provably independent

    def test_linked_structure_rejected(self):
        mod = compile_minic(QUEUE_SRC)
        candidates = analyze_loops(mod, args=(32,))
        selected = select_compatible(mod, candidates)
        assert not selected

    def test_nested_selection_avoids_overlap(self):
        src = """
        int a[64];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 64; j++) { a[j] += 1; }
            }
            return 0;
        }
        """
        mod = compile_minic(src)
        selected = select_compatible(mod, analyze_loops(mod, args=(16,)))
        # Inner a[j] += 1 is legal; the outer (reusing a) is not; never both.
        assert len(selected) <= 1


class TestDOALLOnlyExecution:
    def test_correct_output(self):
        result = run_doall_only(INDEPENDENT_SRC, "ind", args=(64,), workers=8)
        mod = compile_minic(INDEPENDENT_SRC)
        from repro.interp import Interpreter

        interp = Interpreter(mod)
        interp.run(args=(64,))
        assert result.output == interp.output

    def test_speedup_on_legal_program(self):
        from repro.bench.pipeline import run_sequential

        seq = run_sequential(INDEPENDENT_SRC, "ind", args=(64,))
        result = run_doall_only(INDEPENDENT_SRC, "ind", args=(64,), workers=8)
        assert result.speedup_over(seq.cycles) > 1.5

    def test_no_speedup_when_nothing_selected(self):
        from repro.bench.pipeline import run_sequential

        seq = run_sequential(QUEUE_SRC, "q", args=(32,))
        result = run_doall_only(QUEUE_SRC, "q", args=(32,), workers=8)
        assert not result.selected
        assert result.invocations == 0
        assert result.speedup_over(seq.cycles) == pytest.approx(1.0, rel=0.05)

    def test_output_identical_when_not_parallelized(self):
        result = run_doall_only(QUEUE_SRC, "q", args=(32,), workers=8)
        mod = compile_minic(QUEUE_SRC)
        from repro.interp import Interpreter

        interp = Interpreter(mod)
        interp.run(args=(32,))
        assert result.output == interp.output


#: A loop that returns from inside itself: 40 calls that run it to the
#: end, then one that returns at i == 7 (the program prints -33).
EARLY_RETURN_SRC = (Path(__file__).parent / "corpus" / "baselines"
                    / "early_return.c").read_text()


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a run that has not ended in 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the DOALL-only run did not end in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestEarlyReturn:
    def test_static_legality_rejects_the_side_exit(self):
        # The reasons `repro analyze` prints for the same loop.
        mod = compile_minic(EARLY_RETURN_SRC, "early_return")
        info = LoopInfo(mod.function_named("find"))
        verdict = doall_legal_static(mod, info.loop_with_header("for.cond"),
                                     info)
        assert not verdict
        assert verdict.reasons == ["loop live-out value %i.phi",
                                   "side exit from block for.body"]

    def test_the_loop_is_not_selected(self, deadline):
        result = run_doall_only(EARLY_RETURN_SRC, "early_return",
                                args=(400,))
        assert result.output == ["-33\n"]
        assert result.selected == []
        assert result.invocations == 0

    def test_a_forced_return_inside_the_loop_is_a_guest_fault(self,
                                                               deadline):
        mod = compile_minic(EARLY_RETURN_SRC, "early_return")
        find = next(c for c in analyze_loops(mod, args=(400,))
                    if str(c.ref) == "find/for.cond")
        executor = DOALLOnlyExecutor(mod, [find], workers=4)
        with pytest.raises(GuestFault, match="returned inside"):
            executor.run(args=(400,))

class TestLRPD:
    def test_array_loop_applicable(self):
        verdict = judge_hot_loop(INDEPENDENT_SRC, "ind", args=(64,))
        assert verdict.applicable

    def test_linked_loop_inapplicable(self):
        verdict = judge_hot_loop(QUEUE_SRC, "q", args=(32,))
        assert not verdict.applicable
        assert any("dynamic allocation" in r or "pointer" in r
                   for r in verdict.reasons)


class TestDependenceSpeculation:
    def test_reuse_manifests_every_iteration(self):
        # §2: dijkstra-style reuse misspeculates constantly under naive
        # dependence speculation.
        est = estimate_dependence_speculation(QUEUE_SRC, "q", args=(32,))
        assert est.misspec_rate > 0.9

    def test_independent_loop_conflict_free(self):
        est = estimate_dependence_speculation(INDEPENDENT_SRC, "ind", args=(64,))
        assert est.misspec_rate == 0.0

    def test_projected_speedups(self):
        est = estimate_dependence_speculation(QUEUE_SRC, "q", args=(32,))
        assert est.projected_speedup(workers=24) < 1.0
        clean = estimate_dependence_speculation(INDEPENDENT_SRC, "ind", args=(64,))
        assert clean.projected_speedup(workers=24) == pytest.approx(24.0)


class TestCapabilityProbes:
    def test_table1_matrix_shape(self):
        from repro.bench.probes import run_capability_probes

        rows = run_capability_probes()
        result = {(r["technique"], r["probe"]): r["handles"] for r in rows}
        # Privateer handles everything.
        assert result[("privateer", "array")]
        assert result[("privateer", "linked-list")]
        assert result[("privateer", "reduction")]
        # LRPD is layout-limited to arrays/scalars.
        assert result[("lrpd", "array")]
        assert not result[("lrpd", "linked-list")]
        assert result[("lrpd", "reduction")]
        # Non-speculative DOALL handles none of the privatization probes.
        assert not result[("doall_only", "array")]
        assert not result[("doall_only", "linked-list")]
        assert not result[("doall_only", "reduction")]
