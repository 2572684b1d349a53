"""The three in-process workloads and the input-size constants of all
four.  ``served.py`` holds the fourth (``service_mix``).

``--seed`` must not change the work: it permutes part order (and, for
the service, job order and client assignment) and draws the guest PRNG
seed only for the programs whose guest-instruction count does not move
with it (alvinn 0.04 %, blackscholes 0.98 %, swaptions and enc_md5
0.00 % over guest seeds 1-8).  ``dijkstra`` moves 20.6 % and always runs
its registered seed.

Sizes are ``(n, m)`` of ``main(n, m, seed)``.  They are small on
purpose: the box's cores flip between a quiet and a 1.4-3x slower state
within a second or a few, every sample is divided by the speed probed
just before and after it (``probe.py``), and the shorter the part
(0.07-0.35 s), the likelier that the probes saw the state it ran in and
the more samples a run holds (README.md, "Timing protocol").
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import pipeline
from repro.bench.pipeline import PreparedProgram
from repro.workloads import BY_NAME

from harness import Part

SEED_INVARIANT = ("alvinn", "blackscholes", "swaptions", "enc_md5")

#: prepare_cold: program -> (n, m); train and ref inputs are the same.
PREPARE_COLD = {
    "dijkstra": (8, 12),
    "enc_md5": (6, 64),
    "blackscholes": (24, 20),
}

#: doall_*: program -> (train (n, m), ref (n, m)).  alvinn runs 5
#: invocations (its ``m``) of 2-3 epochs each: the one program that
#: spawns and joins the pool more than once.
DOALL_CLEAN = {
    "dijkstra": ((8, 12), (16, 12)),
    "enc_md5": ((6, 96), (16, 96)),
    "alvinn": ((4, 3), (4, 5)),
}
#: The storm injects at iterations 4, 9, 14 ... of every invocation, so
#: alvinn needs 5 patterns for each of its invocations to be hit.
DOALL_STORM = {
    "dijkstra": ((8, 12), (16, 12)),
    "enc_md5": ((6, 96), (12, 96)),
    "alvinn": ((4, 3), (5, 5)),
}
STORM = dict(misspec_period=5, misspec_burst=40, adapt=True)

#: service_mix: program -> (n, m), train and ref the same.
SERVICE_MIX = {
    "enc_md5": (4, 48),
    "swaptions": (4, 6),
}

#: golden.json inputs: program -> (n, m, registered seed); small, since
#: the step interpreter produced them and set-up re-runs them.
GOLDEN_INPUTS = {
    "alvinn": (4, 3, 9),
    "dijkstra": (16, 12, 7),
    "blackscholes": (24, 20, 11),
    "swaptions": (8, 8, 3),
    "enc_md5": (8, 48, 2),
}

WORKERS = 2


def cpus_of(workload: str) -> Tuple[int, ...]:
    """The cores a workload's measured process is pinned to and its
    speed probe runs on: one for ``prepare_cold`` (one process), two for
    the others (pool workers; client and server)."""
    allowed = tuple(sorted(os.sched_getaffinity(0)))
    return allowed[:1] if workload == "prepare_cold" else allowed[:WORKERS]


def guest_seed(program: str, rng: random.Random) -> int:
    """The guest PRNG seed of one program for this run."""
    if program in SEED_INVARIANT:
        return rng.randrange(1, 1 << 16)
    return BY_NAME[program].train[2]


def empty_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)


@dataclass
class Program:
    """One program of a workload with this run's inputs."""

    name: str
    train: Tuple[int, ...]
    ref: Tuple[int, ...]
    prepared: Optional[PreparedProgram] = None

    @property
    def source(self) -> str:
        return BY_NAME[self.name].source

    def prepare(self, **kwargs) -> PreparedProgram:
        # Through the module, so the traced run's shim is the one called.
        return pipeline.prepare(self.source, self.name, args=self.train,
                                ref_args=self.ref, **kwargs)


@dataclass
class Bench:
    """A built workload: what ``child.py`` samples and tears down."""

    programs: List[Program]
    parts: List[Part]
    #: Live child processes whose CPU and memory belong to the tree.
    live_pids: Tuple[int, ...] = ()
    #: Teardown; returns the hygiene problems it found.
    close: Callable[[], List[str]] = lambda: []
    #: service_mix only: the ``served.ServiceMix`` behind the round part.
    mix: Optional[object] = None


def programs_of(table: Dict[str, object], rng: random.Random,
                paired: bool) -> List[Program]:
    out = []
    for name, sizes in table.items():
        seed = guest_seed(name, rng)
        train_nm, ref_nm = sizes if paired else (sizes, sizes)
        # Train keeps the registered seed: profile on one input,
        # evaluate on another, as the paper does.
        train_seed = seed if not paired else BY_NAME[name].train[2]
        out.append(Program(name, (*train_nm, train_seed), (*ref_nm, seed)))
    return out


def build_prepare_cold(rng: random.Random, cpus: Tuple[int, ...]) -> Bench:
    programs = programs_of(PREPARE_COLD, rng, paired=False)
    cache = os.environ["REPRO_CACHE_DIR"]
    parts = []
    for prog in programs:
        # The reference: a plain sequential run of the same inputs, made
        # here, outside the timed region and outside prepare().
        ref = pipeline.run_sequential(prog.source, prog.name, "main",
                                      prog.ref)

        def check(out: PreparedProgram, prog=prog, ref=ref) -> bool:
            prog.prepared = out
            return (out.sequential.output == ref.output
                    and out.sequential.return_value == ref.return_value
                    and out.plan is not None)

        parts.append(Part(prog.name, prog.prepare, check,
                          before=lambda: empty_dir(cache), cpus=cpus))
    return Bench(programs, parts)


def verify_prepared(prog: Program) -> bool:
    """Untimed: the program a cold ``prepare()`` produced runs to the
    sequential output (checked once, on the warm-up op)."""
    result = prog.prepared.execute(workers=WORKERS, backend="simulated",
                                   adapt=False)
    return result.output == prog.prepared.sequential.output


def build_doall(table: Dict[str, object], rng: random.Random,
                cpus: Tuple[int, ...], storm: bool) -> Bench:
    programs = programs_of(table, rng, paired=True)
    adapt_dir = os.environ["REPRO_ADAPT_DIR"]
    flight_dir = os.environ["REPRO_FLIGHT_DIR"]
    knobs = dict(STORM) if storm else dict(adapt=False)
    parts = []
    for prog in programs:
        prog.prepared = prog.prepare()
        expected = prog.prepared.sequential

        def run(prog=prog):
            return prog.prepared.execute(backend="pool", workers=WORKERS,
                                         **knobs)

        def check(result, expected=expected) -> bool:
            return (result.output == expected.output
                    and result.return_value == expected.return_value)

        def before() -> None:
            # No warm start from the previous sample's learned policy,
            # and no growing pile of flight dumps.
            empty_dir(adapt_dir)
            empty_dir(flight_dir)

        parts.append(Part(prog.name, run, check,
                          before=before if storm else None, cpus=cpus))
    return Bench(programs, parts)


def build(workload: str, rng: random.Random, scratch: str) -> Bench:
    cpus = cpus_of(workload)
    os.sched_setaffinity(0, cpus)
    if workload == "prepare_cold":
        return build_prepare_cold(rng, cpus)
    if workload == "doall_clean":
        return build_doall(DOALL_CLEAN, rng, cpus, storm=False)
    if workload == "doall_storm":
        return build_doall(DOALL_STORM, rng, cpus, storm=True)
    if workload == "service_mix":
        from served import build_service_mix

        return build_service_mix(rng, scratch, cpus)
    raise ValueError(f"unknown workload {workload!r}")
