"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.frontend import compile_minic
from repro.interp import Interpreter


def run_source(source: str, args: Sequence[object] = (),
               entry: str = "main", promote: bool = True):
    """Compile and run MiniC; returns (return value, output text, interp)."""
    module = compile_minic(source, "test", promote=promote)
    interp = Interpreter(module)
    rv = interp.run(entry, tuple(args))
    return rv, "".join(interp.output), interp


def run_expr(expr: str, decls: str = "") -> int:
    """Evaluate an int expression in a tiny main."""
    source = f"{decls}\nlong main() {{ return {expr}; }}\n"
    rv, _out, _ = run_source(source)
    return rv


def run_double_expr(expr: str, decls: str = "") -> float:
    source = f"{decls}\ndouble main() {{ return {expr}; }}\n"
    rv, _out, _ = run_source(source)
    return rv


SUM_LOOP = """
int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + i; }
    return acc;
}
"""


def kept_profiles_equal_own_runs(module, args: Sequence[object]) -> set:
    """Run the one profiling run on ``module`` and hold its hot report to
    the time profile's and every profile it keeps to a
    ``profile_loop`` run of that loop; returns the hot report and the
    kept loops' refs."""
    from repro.profiling import profile_execution_time, profile_loop
    from repro.profiling.serialize import hot_report_to_dict, profile_to_dict

    kept = {}
    report = profile_execution_time(module, args=args, loop_profiles=kept)
    assert hot_report_to_dict(report) == hot_report_to_dict(
        profile_execution_time(module, args=args))
    for ref, profile in kept.items():
        assert profile_to_dict(profile) == profile_to_dict(
            profile_loop(module, ref, args=args)), ref
    return report, set(kept)


def prepared_counter_program(n: int = 32):
    """A minimal privatizable program for executor tests: reuses a global
    scratch array across iterations."""
    source = """
    int scratch[64];
    int out[64];

    int main(int n) {
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < 64; j++) { scratch[j] = i * 64 + j; }
            int acc = 0;
            for (int r = 0; r < 6; r++) {
                for (int j = 0; j < 64; j++) { acc = acc + scratch[j] % 17; }
            }
            out[i] = acc;
        }
        int total = 0;
        for (int i = 0; i < n; i++) { total = total + out[i]; }
        printf("%d\\n", total);
        return total;
    }
    """
    from repro.bench.pipeline import prepare

    return prepare(source, "counter", args=(n,))
