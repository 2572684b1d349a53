"""DOALL execution of speculatively privatized code: the executor, which
runs one team of workers in P processes — the parent alone (the
deterministic reference) or with the resident children of
:mod:`.pool_backend`."""

from .backend import (
    BackendError,
    DOALLExecutor,
    make_executor,
    processes_for,
    trip_count,
)
from .costmodel import DEFAULT_COSTS, CostModelConfig
from .stats import BUCKETS, ExecutionResult, InvocationResult
from .timeline import Timeline, TimelineEvent

__all__ = [
    "BUCKETS", "BackendError", "CostModelConfig", "DEFAULT_COSTS",
    "DOALLExecutor", "ExecutionResult", "InvocationResult", "Timeline",
    "TimelineEvent", "make_executor", "processes_for", "trip_count",
]
