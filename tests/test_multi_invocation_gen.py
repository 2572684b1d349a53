"""Differential generator for multi-invocation programs (ROADMAP item 1,
classes (iv) and (v)): what the resident pool's lifetime stands on.

A hypothesis strategy emits MiniC with an outer loop of 2-5 invocations
around one DOALL loop of 1-6 trips.  The loop privatizes stack arrays
and a short-lived ``malloc`` of its own (worker allocations), reads
globals and heap objects that live in from main, optionally reduces into
a global; between two invocations main does a drawn mix of the things a
resident pool child cannot see happen: stores to what the loop reads,
``malloc`` of an object live into the next invocation, ``free`` and
free-and-replace of a live-in, a helper call that churns stack arrays
(cursors move, nothing stays), ``rand_int()``, ``printf``.  The loop
itself may free a live-in, or free each iteration's own live-in and
replace it with an object it allocates (ROADMAP item 1 (a)).

Every program runs on the parent alone (P = 1, on the generated code
and on the step interpreter), on a team of the drawn size P, and on that
team with every sync refused (the respawn path: the oracle, as
``REPRO_SHADOW=ref`` is for the shadow), under both
shadow implementations, and all of them must agree
on output, return value, final main memory and cursors, ``RuntimeStats``
with every ``CheckpointRecord``, and on the addresses the workers'
allocations were handed; and every profile the one profiling run keeps
must be what a loop profile of its own records.  Bounded to a Tier-1
budget; a shrunk failure belongs in ``tests/corpus/multi_invocation/``
(every ``*.json`` there is replayed by ``test_corpus``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adapt.policy import PolicyStore
from repro.bench.pipeline import prepare
from repro.frontend import compile_minic
from repro.interp.memory import AddressSpace
from repro.parallel import pool_backend
from repro.parallel.backend import (
    DOALLExecutor,
    WorkerEpochReport,
    make_executor,
)
from repro.profiling import LoopRef
from repro.runtime.shadow import SHADOW_ENV

from helpers import kept_profiles_equal_own_runs

CORPUS = Path(__file__).parent / "corpus" / "multi_invocation"

#: What main may do between two invocations.
ACTIONS = ("store", "malloc", "free", "replace", "churn", "rand", "printf")

_RENDER = {
    "store": "g[(inv + {k}) % 8] = g[(inv + {k}) % 8] * 3 + inv + {k};",
    "malloc": ("{{ int* e = malloc(16); int s = inv * {k}; "
               "for (int j = 0; j < 4; j++) {{ s = s * 3 + j; e[j] = s % 40; }} "
               "extra = e; has_extra = 1; }}"),
    "free": "if (live) {{ free(p); live = 0; }}",
    "replace": ("{{ if (live) {{ free(p); }} p = malloc(32); live = 1; "
                "int s = inv + {k}; for (int j = 0; j < 8; j++) "
                "{{ s = s * 5 + j; p[j] = s % 60; }} }}"),
    "churn": "carry = carry + churn(inv + {k});",
    "rand": "carry = carry + rand_int() % {k};",
    "printf": 'printf("inv %d: %ld %d\\n", inv, carry, g[{k} % 8]);',
}

#: What the DOALL loop itself may free: nothing, the live-in ``p`` (in
#: its last iteration, after every read of it), or each iteration its
#: own live-in ``slot[i]``, replaced by an object it allocates — which
#: the next invocation reads and frees in turn.  (Reading ``slot[i]``
#: live-in and then overwriting it misspeculates every iteration by
#: Table 2's conservative rule: that shape checks recovery, not
#: speed.)
LOOP_FREES = (None, "free", "replace")


@st.composite
def programs(draw):
    actions = draw(st.lists(
        st.tuples(st.sampled_from(ACTIONS),
                  st.integers(min_value=1, max_value=7),     # constant k
                  st.integers(min_value=1, max_value=3),     # every m-th …
                  st.integers(min_value=0, max_value=2)),    # … invocation
        max_size=5))
    return dict(
        invocations=draw(st.integers(min_value=2, max_value=5)),
        trips=draw(st.integers(min_value=1, max_value=6)),
        # Odd invocations run one trip fewer: some fall under
        # min_parallel_trips and run in main, unspeculated.
        uneven=draw(st.booleans()),
        reduction=draw(st.booleans()),
        actions=actions,
        loop_frees=draw(st.sampled_from(LOOP_FREES)))


configs = st.fixed_dictionaries(dict(
    misspec_period=st.sampled_from((0, 3)),
    workers=st.integers(min_value=1, max_value=3),
    # P counts the parent: 1 forks nothing, 2 is one child that hosts
    # every worker but 0, None is one process per worker.
    processes=st.sampled_from((None, 1, 2)),
    adapt=st.booleans()))


def render(program) -> str:
    between = []
    for kind, k, every, phase in program["actions"]:
        stmt = _RENDER[kind].format(k=k)
        between.append(f"if (inv % {every} == {phase % every}) {{ {stmt} }}")
    trips = "trips - inv % 2" if program["uneven"] else "trips"
    frees = program.get("loop_frees")
    return "\n".join([
        "int g[8];",
        "int out[48];",
        "long total;",
        "int* slot[8];" if frees == "replace" else "",
        "int churn(int k) {",
        "    int a[16]; int b[8]; int s = k;",
        "    for (int j = 0; j < 16; j++) { s = s * 5 + j; a[j] = s % 23; }",
        "    for (int j = 0; j < 8; j++) { s = s + a[j]; b[j] = s + a[j + 8]; }",
        "    return b[k % 8] % 9;",
        "}",
        "int main(int n, int trips) {",
        "    long carry = 1;",
        "    int live = 1;",
        "    int has_extra = 0;",
        "    int* extra = 0;",
        "    int* p = malloc(32);",
        "    for (int j = 0; j < 8; j++) {",
        "        carry = carry * 2 + j; p[j] = carry % 9; g[j] = carry % 7 + 1;",
        "        slot[j] = malloc(16); slot[j][0] = j; slot[j][1] = carry % 5;"
        " slot[j][2] = 3 * j; slot[j][3] = 7;" if frees == "replace" else "",
        "    }",
        "    for (int inv = 0; inv < n; inv++) {",
        f"        int t = {trips};",
        "        for (int i = 0; i < t; i++) {",
        "            int tmp[4];",
        "            int* q = malloc(16);",
        "            for (int j = 0; j < 4; j++) {",
        "                tmp[j] = g[j] * (i + 1) + inv;",
        "                q[j] = tmp[j] + g[j + 4];",
        "            }",
        "            if (live) { tmp[1] = tmp[1] + p[i % 8]; }",
        "            if (has_extra) { tmp[2] = tmp[2] + extra[i % 4]; }",
        "            out[inv * 8 + i] = tmp[0] + 3 * tmp[1] + 5 * tmp[2]"
        " + 7 * tmp[3] + q[i % 4];",
        "            total += tmp[1];" if program["reduction"] else "",
        "            free(q);",
        "            if (live && i == t - 1) { free(p); }"
        if frees == "free" else "",
        "            { int* o = slot[i % 8]; out[inv * 8 + i] += o[inv % 4];"
        " o[0] = tmp[3]; free(o); int* r = malloc(16); r[0] = tmp[0] % 13;"
        " r[1] = tmp[1] % 11; r[2] = tmp[2] % 7; r[3] = i + inv;"
        " slot[i % 8] = r; }" if frees == "replace" else "",
        "        }",
        "        if (t > 0) { live = 0; }" if frees == "free" else "",
        # A scalar carried round the outer loop: never the loop selected.
        "        carry = carry * 3 + out[inv * 8];",
        *("        " + line for line in between),
        "    }",
        "    for (int k = 0; k < 48; k++) { carry = carry * 31 + out[k]; }",
        '    printf("%ld %ld\\n", carry, total);',
        "    return carry % 100;",
        "}"])


# -- what a run is compared on ------------------------------------------------


def _image(space):
    """Everything of a main space a fork would copy: cursors, and every
    live object with its protection and a digest of its bytes."""
    return (dict(space._cursors), space.bytes_allocated,
            sorted((o.base, o.size, o.name, o.kind, o.site, o.writable,
                    hashlib.sha1(o.data).hexdigest())
                   for o in space.live_objects()))


class _AllocationSpy:
    """Addresses handed to allocations through worker overlays, keyed
    by (invocation, epoch start, iteration).  Pool children ship theirs
    home on the report, in the metrics field the parent only reads when
    tracing is on — and with them the main image they ran the epoch on,
    which must be the parent's, byte for byte, forked or synchronised
    (the loop reads only some of it; the next one may read the rest)."""

    def __init__(self, patch):
        self.log = []    # this process's worker allocations, in order
        self.seen = {}
        spy = self
        allocate = AddressSpace.allocate
        execute_iteration = DOALLExecutor._execute_iteration
        run_slice = DOALLExecutor._run_slice
        account = DOALLExecutor._account_slices
        parent = os.getpid()

        def watched_allocate(space, size, *args, **kwargs):
            obj = allocate(space, size, *args, **kwargs)
            if space.parent is not None:
                spy.log.append((obj.base, obj.size))
            return obj

        def watched_iteration(ex, worker, i, init):
            mark = len(spy.log)
            try:
                execute_iteration(ex, worker, i, init)
            finally:
                key = (ex.runtime.invocation_index, ex.runtime.epoch_start, i)
                spy.seen[key] = tuple(spy.log[mark:])

        def watched_slice(ex, worker, *args, **kwargs):
            if os.getpid() == parent:
                # In-process: the iterations logged into spy.seen here.
                return run_slice(ex, worker, *args, **kwargs)
            spy.seen = {}
            report = run_slice(ex, worker, *args, **kwargs)
            report.metrics = dict(report.metrics, allocations=spy.seen,
                                  image=_image(ex.runtime.main_space))
            return report

        def watched_account(ex, reports, inv, earliest=None, shipped=False):
            for report in reports if shipped else ():
                if isinstance(report, WorkerEpochReport):
                    spy.seen.update(report.metrics.pop("allocations", {}))
                    # Main stands still between the plan and the commit.
                    assert report.metrics.pop("image") == _image(
                        ex.runtime.main_space), report.wid
            return account(ex, reports, inv, earliest, shipped)

        patch(AddressSpace, "allocate", watched_allocate)
        patch(DOALLExecutor, "_execute_iteration", watched_iteration)
        patch(DOALLExecutor, "_run_slice", watched_slice)
        patch(DOALLExecutor, "_account_slices", watched_account)

    def take(self):
        seen, self.seen, self.log = self.seen, {}, []
        return seen


def _run(prog, spy, processes, config):
    with tempfile.TemporaryDirectory() as policies:
        controller = (prog.make_controller(None, PolicyStore(policies))
                      if config["adapt"] else None)
        ex = make_executor(prog.module, prog.plan,
                           workers=config["workers"],
                           misspec_period=config["misspec_period"],
                           controller=controller, processes=processes)
        result = ex.run(prog.entry, prog.ref_args)
    space = ex.runtime.main_space
    digest = dict(
        output=result.output,
        return_value=result.return_value,
        memory=sorted((o.base, o.size, o.name, o.kind, bytes(o.data))
                      for o in space.live_objects()),
        cursors=dict(space._cursors),
        stats=dataclasses.asdict(result.runtime_stats),
        wall_cycles=result.total_wall_cycles)
    return ex, digest, spy.take()


def check(program, config, monkeypatch_context):
    source = render(program)
    args = (program["invocations"], program["trips"])
    # Every loop but the DOALL loop (and those inside it) carries a
    # scalar, so whatever the profile finds hottest, the first
    # candidate the transform accepts is the DOALL loop.
    prog = prepare(source, "multi_inv", args=args, use_cache=False,
                   adapt=False, min_coverage=0.0, max_candidates=32)
    header = prog.plan.loop.header
    assert header.parent.name == "main" and header.name == "for.cond.2", (
        header.name, prog.rejected)
    # The DOALL loop is nested, so its profile is a run of its own; the
    # outer loop's, kept by the one profiling run, sees every free.
    _report, kept = kept_profiles_equal_own_runs(
        compile_minic(source, "multi_inv"), args)
    assert LoopRef("main", "for.cond.1") in kept
    with monkeypatch_context() as patch:
        spy = _AllocationSpy(patch.setattr)
        for shadow in ("vec", "ref"):
            with mock.patch.dict(os.environ, {SHADOW_ENV: shadow}):
                _ex, simulated, sim_allocs = _run(prog, spy, 1, config)
                assert simulated["output"] == prog.sequential.output
                assert simulated["return_value"] == \
                    prog.sequential.return_value
                # The step interpreter: the oracle of the generated
                # code, inline validation intrinsics included.
                with mock.patch.dict(os.environ, {"REPRO_INTERP": "step"}):
                    _ex, stepped, step_allocs = _run(prog, spy, 1, config)
                assert stepped == simulated, shadow
                assert step_allocs == sim_allocs, shadow
                team = config["processes"] or config["workers"]
                resident, pool, pool_allocs = _run(prog, spy, team, config)
                assert pool == simulated, shadow
                # Refuse every sync: the respawn path is the oracle.
                patch.setattr(pool_backend, "SYNC_MAX_BYTES", -1)
                forced, respawned, forced_allocs = _run(
                    prog, spy, team, config)
                patch.setattr(pool_backend, "SYNC_MAX_BYTES",
                              SYNC_MAX_BYTES)
                assert respawned == simulated, shadow
                # The children also run what the simulated scheduler's
                # earliest-misspeculation cut never starts.
                assert sim_allocs.items() <= pool_allocs.items(), shadow
                assert forced_allocs == pool_allocs, shadow
                if simulated["stats"]["invocations"]:
                    assert any(sim_allocs.values())
                    # A team of one process is the parent alone.
                    forks = int(resident.processes > 1)
                    assert resident.pool_spawns == forks
                    assert forced.pool_spawns == forks * (
                        1 + _pool(forced, "respawns", {}).get("oversize", 0))
                    assert _pool(forced, "syncs", 0) == 0
                    assert _pool(resident, "syncs", 0) == \
                        forced.pool_spawns - forks


SYNC_MAX_BYTES = pool_backend.SYNC_MAX_BYTES


def _pool(ex, attr, none):
    """``ex.pool.<attr>``, or ``none`` for a team of one process."""
    return none if ex.pool is None else getattr(ex.pool, attr)


class TestMultiInvocationGenerator:
    @given(program=programs(), config=configs)
    # Everything main can do, every invocation, on a squashing run …
    @example(program=dict(invocations=4, trips=5, uneven=False,
                          reduction=True,
                          actions=[(kind, 3, 1, 0) for kind in ACTIONS]),
             config=dict(misspec_period=3, workers=2, processes=None,
                         adapt=True))
    # … and a free that leaves the loop without its live-in, with
    # invocations that fall under min_parallel_trips in between.
    @example(program=dict(invocations=5, trips=2, uneven=True,
                          reduction=False,
                          actions=[("free", 1, 2, 1), ("malloc", 5, 3, 2),
                                   ("churn", 2, 1, 0)]),
             config=dict(misspec_period=0, workers=3, processes=1,
                         adapt=False))
    # The loop frees its live-in in its last iteration, then main
    # replaces it; under squashes, two workers.
    @example(program=dict(invocations=4, trips=4, uneven=True,
                          reduction=True, loop_frees="free",
                          actions=[("replace", 2, 2, 1), ("store", 3, 1, 0)]),
             config=dict(misspec_period=3, workers=2, processes=None,
                         adapt=False))
    # Every iteration frees its own live-in and replaces it with an
    # object the next invocation reads and frees.
    @example(program=dict(invocations=3, trips=3, uneven=False,
                          reduction=False, loop_frees="replace",
                          actions=[("churn", 4, 1, 0)]),
             config=dict(misspec_period=0, workers=3, processes=1,
                         adapt=True))
    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_backends_agree(self, program, config):
        check(program, config, pytest.MonkeyPatch.context)

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus(self, path):
        case = json.loads(path.read_text())
        case["program"]["actions"] = [
            tuple(a) for a in case["program"]["actions"]]
        check(case["program"], case["config"], pytest.MonkeyPatch.context)
