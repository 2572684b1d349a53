"""Differential generator for uneven loops (ROADMAP item 1, class (d)):
DOALL loops whose iterations differ at least 10x in cost.

A hypothesis strategy emits MiniC whose parallel loop runs a light or a
heavy amount of privatized scratch work per iteration.  Which iterations
are heavy is drawn: every ``stride``-th one, a contiguous block of every
other ``block`` iterations, or the ones whose live-in weight (filled by
main from a small congruential generator) is zero — data-dependent, so
no count of iterations tells where the work is.

Every program runs simulated and pool, at 2 and 3 workers, with the
default checkpoint period and an explicit one, with misspeculation
injected every third iteration or not, and with the adaptive controller
on and off.  Output must be the sequential run's, and the two backends
must agree on ``RuntimeStats`` with every ``CheckpointRecord`` and on
the simulated wall cycles.  Bounded to a Tier-1 budget.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.bench.pipeline import prepare

#: Train input: its weights ``2 0 2 3 0 1 2 0`` take both branches, so
#: no shape's heavy path is control-speculated away.
TRAIN = (8, 4)
SCRATCH = 12


@st.composite
def uneven_loops(draw):
    shape = draw(st.sampled_from(("stride", "block", "data")))
    if shape == "stride":
        stride = draw(st.integers(min_value=2, max_value=5))
        heavy = f"i % {stride} == {draw(st.integers(0, stride - 1))}"
    elif shape == "block":
        heavy = f"(i / {draw(st.integers(2, 6))}) % 2 == 1"
    else:
        heavy = "w[i] == 0"
    light = draw(st.integers(min_value=1, max_value=2))
    return dict(
        heavy=heavy, light=light,
        reps=light * draw(st.integers(min_value=12, max_value=16)),
        mod=draw(st.integers(min_value=3, max_value=11)),
        trips=draw(st.integers(min_value=6, max_value=30)),
        seed=draw(st.integers(min_value=1, max_value=999)))


def render(loop) -> str:
    """MiniC source whose one hot loop runs ``reps`` rounds of scratch
    work on the iterations ``heavy`` selects and ``light`` on the rest."""
    return f"""
int w[64];
int scratch[{SCRATCH}];
long out[64];

int main(int n, int seed) {{
    int s = seed;
    for (int i = 0; i < n; i++) {{ s = (s * 75 + 74) % 65537; w[i] = s % 4; }}
    for (int i = 0; i < n; i++) {{
        int reps = {loop["light"]};
        if ({loop["heavy"]}) {{ reps = {loop["reps"]}; }}
        long acc = i;
        for (int r = 0; r < reps; r++) {{
            for (int j = 0; j < {SCRATCH}; j++) {{ scratch[j] = i * r + j; }}
            for (int j = 0; j < {SCRATCH}; j++) {{
                acc = acc + scratch[j] % {loop["mod"]};
            }}
        }}
        out[i] = acc;
    }}
    long total = 0;
    for (int i = 0; i < n; i++) {{ total = total + out[i] * (i + 1); }}
    printf("%ld\\n", total);
    return 0;
}}
"""


def _digest(result):
    stats = result.runtime_stats
    return (result.output, result.total_wall_cycles,
            stats.counter_snapshot(), stats.invocations, stats.checkpoints,
            stats.misspec_count(),
            [dataclasses.astuple(r) for r in stats.checkpoint_records])


def _iteration_cycles(prog, args):
    """Simulated cycles of each iteration of a clean 2-worker run."""
    result = prog.execute(workers=2, args=args, adapt=False,
                          record_timeline=True)
    return [e.end - e.start for e in result.timeline.events
            if e.kind == "iteration"]


class TestUnevenLoopGenerator:
    @given(loop=uneven_loops())
    @example(loop=dict(heavy="i % 4 == 0", light=1, reps=12, mod=7,
                       trips=16, seed=3))
    @example(loop=dict(heavy="w[i] == 0", light=2, reps=28, mod=5,
                       trips=21, seed=48))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_every_mode_prints_the_sequential_output(self, loop):
        args = (loop["trips"], loop["seed"])
        prog = prepare(render(loop), "uneven_gen", args=TRAIN,
                       ref_args=args, use_cache=False)
        cycles = _iteration_cycles(prog, args)
        assume(max(cycles) >= 10 * min(cycles))
        for workers in (2, 3):
            for period in (None, 4):
                for misspec_period in (0, 3):
                    for adapt in (False, True):
                        runs = []
                        for backend in ("simulated", "pool"):
                            # A fresh policy store: no warm start.
                            with tempfile.TemporaryDirectory() as store, \
                                    mock.patch.dict(os.environ, {
                                        "REPRO_ADAPT_DIR": store}):
                                result = prog.execute(
                                    workers=workers, args=args,
                                    checkpoint_period=period,
                                    misspec_period=misspec_period,
                                    adapt=adapt, backend=backend)
                            assert result.output == prog.sequential.output
                            runs.append(_digest(result))
                        assert runs[0] == runs[1], (workers, period,
                                                    misspec_period, adapt)
                        assert bool(runs[0][5]) == bool(misspec_period)
