"""Differential tests: the generated fast path vs the reference step path.

The generated-source interpreter tier (repro.interp.codegen) must be
observationally identical to ``Interpreter.step()``: same guest output,
same step and simulated-cycle totals, same profiler records, and the
same behaviour through speculation, misspeculation, and recovery.  Every
workload (train input) and every genuine-misspeculation program runs
through both paths here; the profiler records of every candidate loop
are compared in ``test_instrumented_sites.py``.
"""

import pytest

from repro.bench.pipeline import prepare
from repro.frontend import compile_minic
from repro.interp.interpreter import Interpreter
from repro.workloads import ALL_WORKLOADS

import test_genuine_misspeculation as misspec

WORKLOAD_IDS = [w.name for w in ALL_WORKLOADS]

MISSPEC_PROGRAMS = [
    ("privacy", misspec.TestPrivacyViolation.SRC, (24, 0), (24, 1)),
    ("value_pred", misspec.TestValuePredictionViolation.SRC, (24, 0), (24, 1)),
    ("lifetime", misspec.TestLifetimeViolation.SRC, (24, 0), (24, 1)),
    ("control", misspec.TestControlSpeculationViolation.SRC, (24,), (48,)),
    ("separation", misspec.TestSeparationViolation.SRC, (18,), (40,)),
]


def _interpret(module, args, compiled):
    interp = Interpreter(module, compiled=compiled)
    rv = interp.run("main", tuple(args))
    return rv, interp


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
class TestWorkloadExecution:
    def test_output_steps_cycles_identical(self, workload):
        module = compile_minic(workload.source, workload.name)
        rv_step, i_step = _interpret(module, workload.train, compiled=False)
        rv_fast, i_fast = _interpret(module, workload.train, compiled=True)
        assert rv_step == rv_fast
        assert "".join(i_step.output) == "".join(i_fast.output)
        assert i_step.steps == i_fast.steps
        assert i_step.cycles == i_fast.cycles


@pytest.mark.parametrize(
    "name,src,train,ref", MISSPEC_PROGRAMS,
    ids=[p[0] for p in MISSPEC_PROGRAMS])
class TestMisspeculationPrograms:
    def test_pipeline_identical(self, name, src, train, ref, monkeypatch):
        results = {}
        for mode in ("step", "fast"):
            monkeypatch.setenv("REPRO_INTERP", mode)
            prog = prepare(src, f"diff_{name}_{mode}", args=train,
                           ref_args=ref, use_cache=False)
            result = prog.execute(workers=4)
            results[mode] = (prog, result)
        p_step, r_step = results["step"]
        p_fast, r_fast = results["fast"]
        assert p_step.sequential.cycles == p_fast.sequential.cycles
        assert p_step.sequential.output == p_fast.sequential.output
        assert r_step.return_value == r_fast.return_value
        assert "".join(r_step.output) == "".join(r_fast.output)
        # The executor's simulated clocks are built from interpreter cycle
        # deltas, including on misspeculation/recovery paths — identical
        # wall cycles prove the fast path's bulk cycle accounting rolls
        # back exactly where the reference path stops.
        assert r_step.total_wall_cycles == r_fast.total_wall_cycles
        assert (r_step.runtime_stats.misspec_count()
                == r_fast.runtime_stats.misspec_count())
        assert (r_step.runtime_stats.recoveries
                == r_fast.runtime_stats.recoveries)


class TestTimeoutParity:
    SRC = """
    int main(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) { acc += i; }
        return acc;
    }
    """

    def test_guest_timeout_at_same_step(self):
        from repro.interp.errors import GuestTimeout

        module = compile_minic(self.SRC, "budget")
        baseline = Interpreter(module, compiled=False)
        baseline.run("main", (64,))
        total = baseline.steps
        for budget in (total - 1, total // 2, 7):
            counts = {}
            for compiled in (False, True):
                interp = Interpreter(module, max_steps=budget,
                                     compiled=compiled)
                with pytest.raises(GuestTimeout):
                    interp.run("main", (64,))
                counts[compiled] = (interp.steps, interp.cycles)
            assert counts[False] == counts[True]

    def test_guest_fault_at_same_step(self):
        src = """
        int a[4];
        int main(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += a[i]; }
            return acc;
        }
        """
        from repro.interp.errors import GuestFault

        module = compile_minic(src, "fault")
        counts = {}
        for compiled in (False, True):
            interp = Interpreter(module, compiled=compiled)
            with pytest.raises(GuestFault):
                interp.run("main", (100,))
            counts[compiled] = (interp.steps, interp.cycles)
        assert counts[False] == counts[True]
