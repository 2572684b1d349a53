"""Execution results: wall-clock (simulated) time and the Figure 8
overhead breakdown."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runtime.stats import RuntimeStats

#: Figure 8 bucket names, in the paper's order, plus "other_validation"
#: (separation/reduction/prediction checks — negligible in the paper's
#: breakdown, visible in ours for pointer-heavy programs).
BUCKETS = ("useful", "private_read", "private_write", "checkpoint",
           "other_validation", "spawn_join")


@dataclass
class InvocationResult:
    """One parallel-region invocation."""

    index: int
    trips: int
    workers: int
    wall_cycles: int = 0
    spawn_cycles: int = 0
    join_cycles: int = 0
    useful_cycles: int = 0
    validation_cycles: Dict[str, int] = field(default_factory=dict)
    checkpoint_cycles: int = 0
    recovery_cycles: int = 0
    checkpoints: int = 0
    misspeculations: int = 0
    recovered_iterations: int = 0
    #: Iterations/cycles spent in adaptive sequential-fallback spans
    #: (committed non-speculative execution inside a parallel invocation).
    sequential_iterations: int = 0
    sequential_cycles: int = 0

    @property
    def capacity(self) -> int:
        return self.wall_cycles * self.workers


@dataclass
class ExecutionResult:
    """Whole-program result of a speculatively parallelized run."""

    return_value: object
    output: List[str]
    workers: int
    sequential_cycles_outside: int = 0
    invocations: List[InvocationResult] = field(default_factory=list)
    runtime_stats: Optional[RuntimeStats] = None
    #: Adaptive-controller summary (epoch trajectory, decision counts);
    #: None when the run used a fixed policy.
    adapt: Optional[Dict[str, object]] = None

    @property
    def parallel_wall_cycles(self) -> int:
        return sum(inv.wall_cycles for inv in self.invocations)

    @property
    def total_wall_cycles(self) -> int:
        return self.sequential_cycles_outside + self.parallel_wall_cycles

    def overhead_breakdown(self) -> Dict[str, float]:
        """Fractions of the parallel region's computational capacity
        (workers x duration), as in Figure 8."""
        capacity = sum(inv.capacity for inv in self.invocations)
        if capacity == 0:
            return {b: 0.0 for b in BUCKETS}
        useful = sum(inv.useful_cycles for inv in self.invocations)
        priv_r = sum(inv.validation_cycles.get("private_read", 0)
                     for inv in self.invocations)
        priv_w = sum(inv.validation_cycles.get("private_write", 0)
                     for inv in self.invocations)
        checkpoint = sum(inv.checkpoint_cycles for inv in self.invocations)
        spawn = sum(inv.spawn_cycles * inv.workers for inv in self.invocations)
        out = {
            "useful": useful / capacity,
            "private_read": priv_r / capacity,
            "private_write": priv_w / capacity,
            "checkpoint": checkpoint / capacity,
        }
        other_validation = sum(
            sum(v for k, v in inv.validation_cycles.items()
                if k not in ("private_read", "private_write"))
            for inv in self.invocations
        )
        out["other_validation"] = other_validation / capacity
        # Spawn/Join: capacity idle while workers start, plus the residual
        # (join latency, imbalance, commit of final state and output).
        residual = max(0, capacity - (useful + priv_r + priv_w + checkpoint
                                      + other_validation + spawn))
        out["spawn_join"] = (spawn + residual) / capacity
        return out

    def speedup_over(self, sequential_cycles: int) -> float:
        total = self.total_wall_cycles
        return sequential_cycles / total if total else 0.0
