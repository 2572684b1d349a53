"""Unified observability: tracing, metrics, and logging.

One switch controls the whole layer: :func:`enable` resets and arms the
process-wide :data:`TRACER` and :data:`METRICS`, and applies any
``$REPRO_LOG`` logging configuration.  Instrumented call sites across
the pipeline guard their work behind ``TRACER.enabled`` — a single
attribute check — so the disabled path is effectively free.

See DESIGN.md ("Observability") for the event taxonomy and file formats.
"""

from __future__ import annotations

from .history import (
    HISTORY_DIR_ENV,
    HistorySampler,
    read_history,
    resolve_history_dir,
)
from .log import configure_from_env, get_logger
from .metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labeled,
    parse_metric_name,
    render_prometheus,
)
from .server import (
    STATUS_PORT_ENV,
    StatusServer,
    resolve_status_port,
    start_status_server,
)
from .trace import (
    CYCLES_PER_US,
    NULL_SPAN,
    TRACE_FORMAT,
    TRACER,
    Span,
    Tracer,
    timeline_to_chrome,
)

__all__ = [
    "CYCLES_PER_US", "Counter", "Gauge", "HISTORY_DIR_ENV", "Histogram",
    "HistorySampler", "METRICS", "MetricsRegistry", "NULL_SPAN",
    "STATUS_PORT_ENV", "Span", "StatusServer", "TRACE_FORMAT", "TRACER",
    "Tracer", "configure_from_env", "disable", "enable", "enabled",
    "get_logger", "labeled", "parse_metric_name", "read_history",
    "render_prometheus", "resolve_history_dir", "resolve_status_port",
    "start_status_server", "timeline_to_chrome",
]


def enable() -> None:
    """Arm tracing + metrics for this process (fresh epoch, counters
    cleared) and configure logging from ``$REPRO_LOG``."""
    METRICS.reset()
    TRACER.enable()
    configure_from_env()


def disable() -> None:
    """Disarm tracing + metrics; recorded events stay readable until the
    next :func:`enable`."""
    TRACER.disable()


def enabled() -> bool:
    return TRACER.enabled
