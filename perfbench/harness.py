"""Timing protocol, process-tree accounting and sample statistics.

Everything here is workload-agnostic: a workload (``workloads.py``,
``served.py``) hands over a list of :class:`Part` and this module takes
the samples.  See README.md, "Timing protocol", for why a timing metric
is the sum over parts of the *median speed-normalised* sample of each
part.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import probe
from metrics import MIN_SAMPLES

# -- process-tree accounting ------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process (all its threads, living
    and dead), read from its POSIX CPU-time clock: what
    ``clock_getcpuclockid(pid)`` returns, ``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)`` on Linux.  Nanoseconds, where ``/proc/<pid>/stat``
    counts 10 ms ticks -- a tenth of a short service part."""
    return time.clock_gettime((~pid << 3) | 2)


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``), MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def tree_cpu_s(live_pids: Sequence[int] = ()) -> float:
    """CPU seconds of this process, every child it has reaped, and the
    named live children (the ``repro serve`` process)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + sum(proc_cpu_s(pid) for pid in live_pids))


def tree_peak_rss_mb(live_pids: Sequence[int] = ()) -> float:
    """Largest resident set of any process in the tree, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max([own / 1024.0, kids / 1024.0]
               + [proc_peak_rss_mb(pid) for pid in live_pids])


# -- sample statistics ------------------------------------------------------

def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    ten samples beyond it; with ten samples or fewer, the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- parts and sampling -----------------------------------------------------

@dataclass
class Part:
    """One timed unit of an op: one program, or one service round."""

    name: str
    #: The timed call; its return value goes to ``check``.
    run: Callable[[], object]
    #: True iff the output equals its reference (computed outside the
    #: timed region).
    check: Callable[[object], bool]
    #: Untimed work before every sample (empty a cache directory, draw
    #: the round's jobs and their references).
    before: Optional[Callable[[], None]] = None
    #: The cores the part keeps busy: where the speed probe runs.
    cpus: Tuple[int, ...] = ()


@dataclass
class Samples:
    """What the sampler took: per part, wall and tree-CPU seconds as
    measured, and the box's slowdown (``probe.slowdown``, mean of the
    probes just before and just after) beside every sample."""

    wall: Dict[str, List[float]] = field(default_factory=dict)
    cpu: Dict[str, List[float]] = field(default_factory=dict)
    slow: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Largest resident set in the tree once every part had
    #: ``MIN_SAMPLES`` samples: a fixed amount of work, so memory that
    #: grows per op reads as a higher number, not as run-to-run noise.
    peak_rss_mb: float = 0.0

    def steady(self, which: Dict[str, List[float]]) -> float:
        """Sum over parts of the median sample, every sample first
        divided by the slowdown measured beside it: seconds of a quiet
        core (``probe.REF_S``), whatever the box did during the run."""
        return sum(statistics.median(
            [v / s for v, s in zip(values, self.slow[name])])
            for name, values in which.items())

    @property
    def op_s(self) -> float:
        return self.steady(self.wall)

    @property
    def cpu_s(self) -> float:
        return self.steady(self.cpu)

    @property
    def best_s(self) -> float:
        """Sum over parts of the fastest sample, as measured: the traced
        run's base, whose spans and twins are fastest-of-a-few too."""
        return sum(min(v) for v in self.wall.values())

    @property
    def slowdown(self) -> float:
        """The run's median slowdown: what the box was like."""
        return statistics.median(
            [s for values in self.slow.values() for s in values])

    @property
    def per_part(self) -> int:
        return min(len(v) for v in self.wall.values())


class SetUp:
    """Set-up seconds of a quiet core: the wall time of every stage of
    the set-up divided by the mean of the slowdowns probed at its two
    ends (the first stage, interpreter start and imports, has only its
    far end).  The probes' own time is left out."""

    def __init__(self, t0: float, cpus: Sequence[int]) -> None:
        self.cpus = cpus
        self.seconds = 0.0
        self.mark = t0
        self.slow: Optional[float] = None
        self.stage()

    def stage(self) -> None:
        """The stage since the previous call ends here."""
        elapsed = time.time() - self.mark
        after = probe.slowdown(self.cpus)
        before = after if self.slow is None else self.slow
        self.seconds += elapsed / ((before + after) / 2)
        self.slow = after
        self.mark = time.time()


def take_sample(part: Part, samples: Samples,
                live_pids: Sequence[int] = ()) -> None:
    """One timed sample of one part, checked against its reference."""
    if part.before is not None:
        part.before()
    gc.collect()
    slow = probe.slowdown(part.cpus)
    cpu0 = tree_cpu_s(live_pids)
    t0 = time.perf_counter()
    try:
        out = part.run()
        ok = True
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        out, ok = None, False
        samples.errors.append(f"{part.name}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = tree_cpu_s(live_pids) - cpu0
    slow = (slow + probe.slowdown(part.cpus)) / 2
    samples.attempted += 1
    if ok:
        try:
            ok = bool(part.check(out))
        except Exception as exc:  # noqa: BLE001 - a broken output is a failure
            ok = False
            samples.errors.append(
                f"{part.name}: check raised {type(exc).__name__}: {exc}")
        else:
            if not ok:
                samples.errors.append(
                    f"{part.name}: output differs from its reference")
    if not ok:
        samples.failed += 1
    samples.wall.setdefault(part.name, []).append(wall)
    samples.cpu.setdefault(part.name, []).append(cpu)
    samples.slow.setdefault(part.name, []).append(slow)


def sweep(parts: Sequence[Part], samples: Samples, rng: random.Random,
          live_pids: Sequence[int] = ()) -> None:
    """One checked sample of every part, in seed-permuted order."""
    order = list(parts)
    rng.shuffle(order)
    for part in order:
        take_sample(part, samples, live_pids)


def sample(parts: Sequence[Part], seconds: float, rng: random.Random,
           live_pids: Sequence[int] = ()) -> Samples:
    """Sweep the parts until ``seconds`` have passed and every part has
    ``MIN_SAMPLES`` timed samples."""
    samples = Samples()
    start = time.perf_counter()
    sweeps = 0
    while sweeps < MIN_SAMPLES or time.perf_counter() - start < seconds:
        sweep(parts, samples, rng, live_pids)
        sweeps += 1
        if sweeps == MIN_SAMPLES:
            samples.peak_rss_mb = tree_peak_rss_mb(live_pids)
    return samples


def describe(samples: Samples) -> List[str]:
    """Per-part diagnostics, as measured (not normalised): fastest,
    quartiles and the tail, and the slowdown beside them."""
    lines = []
    for name, wall in samples.wall.items():
        q1, q2, q3 = quartiles(wall)
        pct, tv = tail(wall)
        lines.append(
            f"part {name}: n={len(wall)} min={min(wall):.4f}s "
            f"q1={q1:.4f}s median={q2:.4f}s q3={q3:.4f}s "
            f"p{pct:.0f}={tv:.4f}s cpu_min={min(samples.cpu[name]):.4f}s "
            f"slowdown_median={p50(samples.slow[name]):.3f}x")
    lines.append(f"box slowdown (median over samples): "
                 f"{samples.slowdown:.3f}x")
    return lines
