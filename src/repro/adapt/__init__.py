"""Adaptive speculation control plane.

The data plane (runtime validation, checkpoint commit, squash/recovery)
executes speculation decisions; this package *makes* them, online, from
runtime outcomes:

* :mod:`repro.adapt.monitor` — a windowed misspeculation-rate estimator
  fed from :meth:`RuntimeSystem.record_misspeculation` and checkpoint
  commit stats, per (workload, loop);
* :mod:`repro.adapt.controller` — the :class:`SpeculationController`:
  AIMD epoch sizing (grow the checkpoint period additively on clean
  commits, shrink it multiplicatively on squash), classification
  demotion after repeated misspeculations attributable to one object,
  and sequential fallback with exponential backoff after consecutive
  whole-epoch squashes;
* :mod:`repro.adapt.policy` — the on-disk policy store persisting
  learned decisions (epoch size, demotions) keyed by the same module
  fingerprint as the profile cache, so a second run starts warm.

Everything is deterministic — decisions are pure functions of the
(identical-across-backends) sequence of epoch outcomes, never of wall
clocks — so the simulated and pool backends stay in lockstep and the
parity suite covers adaptive runs too.

Enabled by ``--adapt`` on ``run``/``trace``/``perf`` or ``REPRO_ADAPT=1``;
``--no-adapt`` (or leaving both unset) fully bypasses the subsystem.
"""

from __future__ import annotations

import os
from typing import Optional

from .controller import AdaptConfig, SpeculationController, format_summary
from .monitor import MisspecRateMonitor
from .policy import PolicyStore, apply_demotions

#: Environment variable enabling the adaptive controller by default.
ADAPT_ENV = "REPRO_ADAPT"

#: Truthy spellings accepted by :data:`ADAPT_ENV`.
_TRUTHY = ("1", "true", "yes", "on")


def resolve_adapt_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve whether adaptation is on: explicit flag > ``REPRO_ADAPT``
    environment variable > disabled."""
    if flag is not None:
        return flag
    return os.environ.get(ADAPT_ENV, "").strip().lower() in _TRUTHY


__all__ = [
    "ADAPT_ENV",
    "AdaptConfig",
    "MisspecRateMonitor",
    "PolicyStore",
    "SpeculationController",
    "apply_demotions",
    "format_summary",
    "resolve_adapt_enabled",
]
