"""The Privateer analysis and transformation (§4)."""

from .plan import (
    MAX_CHECKPOINT_PERIOD,
    CheckCounts,
    ParallelPlan,
    ReduxObjectPlan,
    SelectionError,
)
from .privatize import PrivateerTransform
from .selection import (
    check_transformable,
    loops_may_be_simultaneously_active,
    region_functions,
)

__all__ = [
    "CheckCounts", "MAX_CHECKPOINT_PERIOD",
    "ParallelPlan", "PrivateerTransform", "ReduxObjectPlan",
    "SelectionError", "check_transformable",
    "loops_may_be_simultaneously_active", "region_functions",
]
