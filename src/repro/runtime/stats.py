"""Runtime statistics: everything Table 3 and Figure 8 report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: The purely additive counters, snapshot/delta-able so a worker process
#: can ship per-iteration increments back to the parent (the remaining
#: fields — invocations, checkpoints, recoveries, misspeculations,
#: checkpoint_records — are only ever updated by the parent).
COUNTER_FIELDS: Tuple[str, ...] = (
    "private_read_calls", "private_read_bytes",
    "private_write_calls", "private_write_bytes",
    "separation_checks", "redux_updates", "redux_bytes",
    "predictions_checked",
    "lifetime_checks", "io_deferred",
    "private_read_cycles", "private_write_cycles", "separation_cycles",
    "checkpoint_cycles", "redux_cycles", "misc_validation_cycles",
)


@dataclass
class MisspecEvent:
    """One recorded misspeculation: kind, iteration, detail, and
    whether it was artificially injected.
    """
    kind: str
    iteration: int
    detail: str = ""
    injected: bool = False


@dataclass
class CheckpointRecord:
    """One retired checkpoint (§5.2)."""

    invocation: int
    start_iteration: int
    end_iteration: int
    private_bytes_copied: int = 0
    dirty_pages: int = 0
    redux_bytes_merged: int = 0
    io_records_committed: int = 0
    speculative: bool = True  # flipped off once validated


@dataclass
class RuntimeStats:
    """Counters accumulated by the runtime validation system."""

    invocations: int = 0
    checkpoints: int = 0
    misspeculations: List[MisspecEvent] = field(default_factory=list)
    recoveries: int = 0

    # Privacy validation (Table 3's Priv R / Priv W are byte totals).
    private_read_calls: int = 0
    private_read_bytes: int = 0
    private_write_calls: int = 0
    private_write_bytes: int = 0

    separation_checks: int = 0
    redux_updates: int = 0
    redux_bytes: int = 0
    predictions_checked: int = 0
    lifetime_checks: int = 0
    io_deferred: int = 0

    # Cycle attribution for the Figure 8 overhead breakdown.
    private_read_cycles: int = 0
    private_write_cycles: int = 0
    separation_cycles: int = 0
    checkpoint_cycles: int = 0
    redux_cycles: int = 0
    misc_validation_cycles: int = 0

    checkpoint_records: List[CheckpointRecord] = field(default_factory=list)

    def counter_snapshot(self) -> Tuple[int, ...]:
        """Current values of the additive counters, in COUNTER_FIELDS
        order."""
        return tuple(getattr(self, f) for f in COUNTER_FIELDS)

    def counter_delta(self, base: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-counter increments since ``base`` (a prior snapshot)."""
        return tuple(cur - prev
                     for cur, prev in zip(self.counter_snapshot(), base))

    def apply_counter_delta(self, delta: Tuple[int, ...]) -> None:
        """Add a shipped increment vector onto the additive counters."""
        for name, d in zip(COUNTER_FIELDS, delta):
            setattr(self, name, getattr(self, name) + d)

    def misspec_count(self, include_injected: bool = True) -> int:
        return sum(
            1 for m in self.misspeculations if include_injected or not m.injected
        )

    def validation_cycles(self) -> int:
        return (self.private_read_cycles + self.private_write_cycles
                + self.separation_cycles + self.redux_cycles
                + self.misc_validation_cycles)

    def table3_row(self) -> Dict[str, object]:
        return {
            "invocations": self.invocations,
            "checkpoints": self.checkpoints,
            "private_bytes_read": self.private_read_bytes,
            "private_bytes_written": self.private_write_bytes,
        }
