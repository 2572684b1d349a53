"""DOALL execution of speculatively privatized code: the executor,
which is the simulated (deterministic reference) backend, and the pool
(real-parallel) backend that subclasses it."""

from .backend import (
    BACKEND_NAMES,
    BackendError,
    DOALLExecutor,
    make_executor,
    resolve_backend_name,
    trip_count,
)
from .costmodel import DEFAULT_COSTS, CostModelConfig
from .stats import BUCKETS, ExecutionResult, InvocationResult
from .timeline import Timeline, TimelineEvent

__all__ = [
    "BACKEND_NAMES", "BUCKETS", "BackendError", "CostModelConfig",
    "DEFAULT_COSTS", "DOALLExecutor", "ExecutionResult", "InvocationResult",
    "Timeline", "TimelineEvent", "make_executor", "resolve_backend_name",
    "trip_count",
]
