"""DOALL execution of speculatively privatized code: the shared backend
driver plus the simulated (deterministic reference) and pool
(real-parallel) backends."""

from .backend import (
    BACKEND_NAMES,
    BackendError,
    BaseDOALLExecutor,
    make_executor,
    resolve_backend_name,
)
from .costmodel import DEFAULT_COSTS, CostModelConfig
from .executor import DOALLExecutor, trip_count
from .stats import BUCKETS, ExecutionResult, InvocationResult
from .timeline import Timeline, TimelineEvent

__all__ = [
    "BACKEND_NAMES", "BUCKETS", "BackendError", "BaseDOALLExecutor",
    "CostModelConfig", "DEFAULT_COSTS", "DOALLExecutor",
    "ExecutionResult", "InvocationResult", "Timeline", "TimelineEvent",
    "make_executor", "resolve_backend_name", "trip_count",
]
