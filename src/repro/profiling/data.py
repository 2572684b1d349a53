"""Profile data structures shared by the profilers, classifier, and
transformation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: Sentinel object-site for memory written outside the profiled loop.
OUTSIDE_WRITE = "<outside>"


@dataclass(frozen=True)
class LoopRef:
    """Stable identifier of a static loop: function name + header block."""

    function: str
    header: str

    def __str__(self) -> str:
        return f"{self.function}/{self.header}"


@dataclass(frozen=True)
class FlowDep:
    """A profiled cross-iteration memory flow dependence."""

    src_site: str   # store instruction site
    dst_site: str   # load instruction site
    obj_site: str   # allocation site of the object carrying the dependence

    def __str__(self) -> str:
        return f"{self.src_site} -> {self.dst_site} via {self.obj_site}"


@dataclass(frozen=True)
class ValuePrediction:
    """A location observed to hold one constant at every cross-iteration
    read: predict it, and validate at iteration end (§4.1, fig. 2b)."""

    obj_site: str
    offset: int
    size: int
    value: int

    def __str__(self) -> str:
        return f"{self.obj_site}+{self.offset}:{self.size} == {self.value}"


@dataclass
class LoopTimeRecord:
    """Execution-time profile of one loop (inclusive cycles)."""

    ref: LoopRef
    cycles: int = 0
    invocations: int = 0
    iterations: int = 0
    depth: int = 1

    @property
    def avg_trip_count(self) -> float:
        return self.iterations / self.invocations if self.invocations else 0.0


@dataclass
class HotLoopReport:
    """Output of the execution-time profiler."""

    total_cycles: int
    records: List[LoopTimeRecord]

    def hottest(self, top_level_only: bool = True) -> List[LoopTimeRecord]:
        recs = [r for r in self.records if r.depth == 1] if top_level_only else list(self.records)
        return sorted(recs, key=lambda r: r.cycles, reverse=True)

    def coverage(self, ref: LoopRef) -> float:
        for r in self.records:
            if r.ref == ref:
                return r.cycles / self.total_cycles if self.total_cycles else 0.0
        return 0.0


@dataclass
class LoopProfile:
    """Detailed profile of one candidate loop.

    All object identities are *allocation sites*: ``global:<name>`` for
    globals, ``<function>:<uid>`` for allocas and heap-allocation calls.
    """

    ref: LoopRef
    invocations: int = 0
    iterations: int = 0

    # Algorithm 2 footprints (object sites).
    read_sites: Set[str] = field(default_factory=set)
    write_sites: Set[str] = field(default_factory=set)
    redux_sites: Set[str] = field(default_factory=set)
    redux_ops: Dict[str, str] = field(default_factory=dict)  # obj site -> BinOpKind name

    #: All cross-iteration memory flow dependences observed.
    flow_deps: Set[FlowDep] = field(default_factory=set)

    #: Allocation sites whose every dynamic object was allocated and freed
    #: within a single iteration.
    short_lived_sites: Set[str] = field(default_factory=set)
    #: Allocation sites allocated inside the loop (superset of short-lived).
    loop_alloc_sites: Set[str] = field(default_factory=set)

    #: Pointer-to-object map: pointer-use instruction site -> object sites.
    pointer_objects: Dict[str, Set[str]] = field(default_factory=dict)

    #: Locations whose cross-iteration reads always saw one constant,
    #: mapped to the dependences each prediction would remove.
    value_predictions: Dict[ValuePrediction, Set[FlowDep]] = field(default_factory=dict)

    #: I/O call sites inside the loop (printf/puts) — need deferral.
    io_sites: Set[str] = field(default_factory=set)

    #: Region blocks never executed during profiling: (function, block).
    unexecuted_blocks: Set[Tuple[str, str]] = field(default_factory=set)
    executed_blocks: Set[Tuple[str, str]] = field(default_factory=set)

    #: Dynamic access counts, for reporting.
    loads: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def deps_on(self, obj_site: str) -> Set[FlowDep]:
        return {d for d in self.flow_deps if d.obj_site == obj_site}

