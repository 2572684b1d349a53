"""Process-wide metrics registry: counters, gauges, histograms.

Lightweight by design — a metric update is a dict lookup plus an integer
add, and call sites in hot code guard updates behind the same
``TRACER.enabled`` check as tracing, so the disabled path costs one
attribute load.  The registry captures the runtime's observability
surface (PAPER.md §5): separation-check counts, shadow-memory byte
transitions, per-class heap tallies, checkpoint latencies,
misspeculation causes, and interpreter instructions/second on both
execution paths.

Cross-process shipping: a forked pool-backend worker records into its
own (copy-on-write) registry, then ships :meth:`MetricsRegistry.dump`
back to the parent piggybacked on the epoch-result pipe; the parent
absorbs it with :meth:`MetricsRegistry.merge` under a ``worker.N.``
prefix, so the live registry (and the ``/metrics`` status endpoint)
shows real in-worker tallies alongside the parent's own.

Export: :meth:`MetricsRegistry.snapshot` is the JSON form served on
``/metrics``; :func:`render_prometheus` renders the same snapshot in the
Prometheus text exposition format (``worker.N.`` prefixes become a
``worker="N"`` label) for ``/metrics.prom``.
"""

from __future__ import annotations

import re
import zlib
from bisect import bisect_left
from contextlib import contextmanager
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Cap on raw samples retained per histogram; count/sum/min/max/buckets
#: stay exact beyond it, percentiles become reservoir estimates.
HISTOGRAM_SAMPLE_CAP = 4096

#: Fixed ``le`` bucket ladder shared by every histogram: a 1-2.5-5
#: log sweep from 1 to 1e8, sized for microsecond latencies (1us ..
#: 100s) while still resolving small-integer distributions (batch
#: sizes) in the bottom decades.  A shared ladder keeps cross-process
#: :meth:`Histogram.merge` a straight element-wise add and gives
#: ``/metrics.prom`` real ``_bucket{le="..."}`` series.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
    for base in (1.0, 2.5, 5.0)) + (1e8,)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}

    def dump(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}

    def merge(self, data: Dict[str, object]) -> None:
        self.value += int(data.get("value") or 0)


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, v: float) -> None:
        self.value = v

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}

    def dump(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}

    def merge(self, data: Dict[str, object]) -> None:
        if data.get("value") is not None:
            self.value = data["value"]


class Histogram:
    """Distribution summary: exact count/sum/min/max/bucket counts plus
    a uniform reservoir of raw samples for percentile estimates.

    The reservoir (Vitter's algorithm R) replaces the old first-N cap,
    which froze percentiles on the first :data:`HISTOGRAM_SAMPLE_CAP`
    observations — on a long-lived server that biased ``p50``/``p99``
    toward startup traffic forever.  The replacement RNG is seeded from
    the metric name (crc32), so runs are reproducible and two processes
    recording the same stream agree.

    Bucket counts are *exact* regardless of the reservoir: ``observe``
    increments the matching ``le`` bucket (shared ladder, see
    :data:`DEFAULT_BUCKETS`), which is what ``/metrics.prom`` exports.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples",
                 "buckets", "bucket_counts", "_offered", "_rng")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self.buckets: Tuple[float, ...] = tuple(buckets)
        #: Per-bucket (non-cumulative) counts; the extra last slot is the
        #: +Inf overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self._offered = 0
        self._rng = Random(zlib.crc32(name.encode()))

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        # Prometheus `le` is inclusive: bisect_left lands v on the first
        # bound >= v, equal values included.
        self.bucket_counts[bisect_left(self.buckets, v)] += 1
        self._reservoir_add(v)

    def _reservoir_add(self, v: float) -> None:
        self._offered += 1
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(v)
            return
        slot = self._rng.randrange(self._offered)
        if slot < HISTOGRAM_SAMPLE_CAP:
            self.samples[slot] = v

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, p: float) -> Optional[float]:
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
        return ordered[idx]

    def cumulative_buckets(self) -> List[Tuple[object, int]]:
        """``(le, cumulative_count)`` pairs ending with ``("+Inf",
        count)`` — the Prometheus histogram series."""
        out: List[Tuple[object, int]] = []
        running = 0
        for le, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((le, running))
        out.append(("+Inf", running + self.bucket_counts[-1]))
        return out

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram", "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max, "mean": self.mean,
            "p50": self.percentile(50), "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": [[le, n] for le, n in self.cumulative_buckets()],
        }

    def dump(self) -> Dict[str, object]:
        """Shipping form: exact aggregates, the bucket ladder/counts, and
        the retained reservoir, so a merge on the receiving side keeps
        both buckets exact and percentiles meaningful."""
        return {
            "type": "histogram", "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max,
            "samples": list(self.samples),
            "le": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
        }

    def merge(self, data: Dict[str, object]) -> None:
        self.count += int(data.get("count") or 0)
        self.total += float(data.get("sum") or 0.0)
        for bound, pick in (("min", min), ("max", max)):
            other = data.get(bound)
            if other is not None:
                ours = getattr(self, bound)
                setattr(self, bound,
                        other if ours is None else pick(ours, other))
        samples = list(data.get("samples") or ())
        shipped_le = tuple(data.get("le") or ())
        shipped_counts = list(data.get("bucket_counts") or ())
        if shipped_le == self.buckets \
                and len(shipped_counts) == len(self.bucket_counts):
            for i, n in enumerate(shipped_counts):
                self.bucket_counts[i] += int(n)
        else:
            # Ladder mismatch (old dump format, or a custom ladder):
            # rebucket from the shipped reservoir — approximate beyond
            # the shipper's sample cap, exact below it.
            for v in samples:
                self.bucket_counts[bisect_left(self.buckets, v)] += 1
        # Feed shipped samples through the reservoir so long-run merges
        # stay uniform-ish instead of first-N biased.
        for v in samples:
            self._reservoir_add(v)


class MetricsRegistry:
    """Name -> metric map with lazy creation and stable iteration order."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name)
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(m).__name__}, not {cls.__name__}")
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def reset(self) -> None:
        self._metrics.clear()

    @contextmanager
    def capture(self) -> Iterator["MetricsRegistry"]:
        """Record into a fresh registry, yielded, until the block exits.

        Readers of this registry (:meth:`snapshot`, :meth:`dump`, a live
        status endpoint) keep seeing its metrics unchanged meanwhile.  A
        worker slice run in-process measures itself this way, into a
        registry of its own as a forked worker does."""
        inner = MetricsRegistry()
        self._get = inner._get
        try:
            yield inner
        finally:
            del self._get

    def remove(self, prefix: str) -> int:
        """Drop every metric whose name starts with ``prefix`` and return
        how many were dropped.  Used by the service tier to evict a
        retired job's ``job.<id>.*`` entries so a long-lived server's
        ``/metrics`` payload stays bounded."""
        doomed = [n for n in self._metrics if n.startswith(prefix)]
        for name in doomed:
            del self._metrics[name]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, prefix: str = "") -> Dict[str, Dict[str, object]]:
        """Name -> snapshot dict, in grouped namespace order (see
        :func:`metric_sort_key`); ``prefix`` keeps only metrics whose
        name starts with it (e.g. ``"worker."``)."""
        names = sorted((n for n in self._metrics
                        if not prefix or n.startswith(prefix)),
                       key=metric_sort_key)
        return {name: self._metrics[name].snapshot() for name in names}

    def dump(self, prefix: str = "") -> Dict[str, Dict[str, object]]:
        """The cross-process shipping form (histograms keep their raw
        samples); same filtering/ordering as :meth:`snapshot`."""
        names = sorted((n for n in self._metrics
                        if not prefix or n.startswith(prefix)),
                       key=metric_sort_key)
        return {name: self._metrics[name].dump() for name in names}

    _MERGE_CLASSES = {"counter": Counter, "gauge": Gauge,
                      "histogram": Histogram}

    def merge(self, dump: Dict[str, Dict[str, object]],
              prefix: str = "") -> None:
        """Absorb a :meth:`dump` from another registry (typically shipped
        from a forked worker), registering each metric as
        ``prefix + name``: counters add, gauges take the shipped value,
        histograms pool aggregates and samples.  Entries with an unknown
        type are skipped rather than corrupting the registry."""
        for name, data in dump.items():
            cls = self._MERGE_CLASSES.get(str(data.get("type")))
            if cls is None:
                continue
            self._get(prefix + name, cls).merge(data)

    def render_table(self, prefix: str = "") -> str:
        snap = self.snapshot(prefix=prefix)
        if not snap:
            return "(no metrics recorded)"
        name_w = max(len(n) for n in snap)
        lines = [f"{'metric':<{name_w}}  value"]
        for name, s in snap.items():
            if s["type"] == "histogram":
                detail = (f"count={s['count']} mean={_fmt(s['mean'])} "
                          f"p95={_fmt(s['p95'])} max={_fmt(s['max'])}")
            else:
                detail = _fmt(s["value"])
            lines.append(f"{name:<{name_w}}  {detail}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:,.2f}" if abs(v) < 1e6 else f"{v:,.0f}"
    return f"{v:,}"


#: A trailing-number name component like ``j12`` (service job ids).
_NUMBERED_PART = re.compile(r"^(\D+?)(\d+)$")


def metric_sort_key(name: str) -> Tuple:
    """Sort key grouping metric names by dotted namespace, with numeric
    components compared as integers — so ``worker.2.*`` sorts before
    ``worker.10.*`` and each worker's metrics render as one contiguous
    block instead of interleaving lexicographically.  Components with a
    trailing number (service job ids: ``j2``, ``j10``) compare by prefix
    then numerically, so ``job.j2.*`` sorts before ``job.j10.*``."""
    parts = []
    for part in name.split("."):
        if part.isdigit():
            parts.append(("", int(part)))
            continue
        m = _NUMBERED_PART.match(part)
        parts.append((m.group(1), int(m.group(2))) if m else (part, -1))
    return tuple(parts)


#: Registry-name shape of a worker-shipped metric: ``worker.<N>.<rest>``.
_WORKER_NAME = re.compile(r"^worker\.(\d+)\.(.+)$")

#: Registry-name shape of a per-job service metric: ``job.<id>.<rest>``.
_JOB_NAME = re.compile(r"^job\.(j\d+)\.(.+)$")


def split_worker_metric(name: str) -> Tuple[str, Optional[str]]:
    """Split ``worker.N.rest`` into ``(rest, "N")``; any other name maps
    to ``(name, None)``.  This is how per-worker registry entries become
    one Prometheus metric family with a ``worker`` label."""
    m = _WORKER_NAME.match(name)
    if m is None:
        return name, None
    return m.group(2), m.group(1)


def split_labeled_metric(name: str) -> Tuple[str, Optional[Tuple[str, str]]]:
    """Split a labeled registry name into ``(base, (label, value))``:
    ``worker.N.rest`` -> ``(rest, ("worker", "N"))`` and the service
    tier's ``job.jN.rest`` -> ``(rest, ("job", "jN"))``; any other name
    maps to ``(name, None)``."""
    base, worker = split_worker_metric(name)
    if worker is not None:
        return base, ("worker", worker)
    m = _JOB_NAME.match(name)
    if m is not None:
        return m.group(2), ("job", m.group(1))
    return name, None


#: Registry-name shape of an explicitly labeled metric:
#: ``base{key="value",...}`` (produced by :func:`labeled`).
_BRACED_NAME = re.compile(r"^(?P<base>[^{}]+)\{(?P<labels>[^{}]*)\}$")

_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"\\{}]*)"$')


def labeled(name: str, **labels: str) -> str:
    """Build the canonical registry name for a labeled metric:
    ``labeled("service.job.total_us", outcome="done", tier="warm")`` ->
    ``service.job.total_us{outcome="done",tier="warm"}``.  Keys are
    sorted so one label set always maps to one registry entry; the
    Prometheus renderer folds all label sets of a base name into one
    metric family."""
    pairs = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{pairs}}}" if pairs else name


def parse_metric_name(name: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split any registry name into ``(base, [(label, value), ...])``:
    handles the ``worker.N.``/``job.jN.`` positional prefixes *and*
    explicit ``{key="value"}`` suffixes from :func:`labeled`.  A name
    with neither returns ``(name, [])``; a malformed brace suffix is
    treated as unlabeled rather than raising."""
    m = _BRACED_NAME.match(name)
    if m is not None:
        pairs: List[Tuple[str, str]] = []
        for chunk in filter(None, m.group("labels").split(",")):
            pm = _LABEL_PAIR.match(chunk)
            if pm is None:
                return name, []
            pairs.append((pm.group("key"), pm.group("value")))
        return m.group("base"), pairs
    base, pair = split_labeled_metric(name)
    return base, ([pair] if pair is not None else [])


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Prefix for every exported Prometheus metric family.
PROM_NAMESPACE = "repro"


def prometheus_name(name: str, namespace: str = PROM_NAMESPACE) -> str:
    """Sanitize a dotted registry name into a legal Prometheus metric
    name under ``namespace`` (dots and other invalid characters become
    underscores)."""
    flat = _PROM_INVALID.sub("_", name.strip("."))
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{namespace}_{flat}" if namespace else flat


def _prom_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def render_prometheus(snapshot: Dict[str, Dict[str, object]],
                      namespace: str = PROM_NAMESPACE) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in the Prometheus text
    exposition format (version 0.0.4).

    ``worker.N.`` prefixes are folded into a ``worker="N"`` label, the
    service tier's ``job.jN.`` prefixes into a ``job="jN"`` label, and
    explicit ``{key="value"}`` suffixes (see :func:`labeled`) into label
    pairs, so all label sets of one base name share one metric family.
    Histograms render as real Prometheus histograms — cumulative
    ``_bucket{le="..."}`` series ending in ``le="+Inf"`` plus
    ``_count``/``_sum`` (snapshots without bucket data fall back to a
    ``summary`` with quantile samples).  Gauges that were never set are
    omitted.  One ``# TYPE`` line is emitted per family, before its
    first sample.
    """
    families: Dict[str, List[Tuple[List[Tuple[str, str]],
                                   Dict[str, object]]]] = {}
    types: Dict[str, str] = {}
    for name, snap in snapshot.items():
        base, pairs = parse_metric_name(name)
        fam = prometheus_name(base, namespace)
        kind = str(snap.get("type"))
        if kind == "histogram":
            prom_type = "histogram" if snap.get("buckets") else "summary"
        else:
            prom_type = {"counter": "counter", "gauge": "gauge"}.get(kind)
        if prom_type is None:
            continue
        if types.setdefault(fam, prom_type) != prom_type:
            # Same sanitized family from two metric types: keep the first
            # declaration and skip the clashing sample.
            continue
        families.setdefault(fam, []).append((pairs, snap))

    def label(pairs: List[Tuple[str, str]], extra: str = "") -> str:
        parts = [f'{k}="{v}"' for k, v in pairs] + \
            ([extra] if extra else [])
        return "{" + ",".join(parts) + "}" if parts else ""

    lines: List[str] = []
    for fam in sorted(families, key=metric_sort_key):
        lines.append(f"# TYPE {fam} {types[fam]}")
        for pairs, snap in families[fam]:
            if types[fam] in ("counter", "gauge"):
                value = snap.get("value")
                if value is None:
                    continue
                lines.append(f"{fam}{label(pairs)} {_prom_value(value)}")
                continue
            if types[fam] == "histogram":
                for le, cumulative in snap.get("buckets") or []:
                    le_txt = "+Inf" if le == "+Inf" else _prom_value(le)
                    lines.append(
                        f"{fam}_bucket{label(pairs, 'le=%s' % _quote(le_txt))}"
                        f" {_prom_value(cumulative)}")
            else:
                for q, key in (("0.5", "p50"), ("0.95", "p95")):
                    if snap.get(key) is not None:
                        quantile = 'quantile="%s"' % q
                        lines.append(f"{fam}{label(pairs, quantile)} "
                                     f"{_prom_value(snap[key])}")
            lines.append(f"{fam}_count{label(pairs)} "
                         f"{_prom_value(snap.get('count', 0))}")
            lines.append(f"{fam}_sum{label(pairs)} "
                         f"{_prom_value(snap.get('sum', 0.0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _quote(v: str) -> str:
    return f'"{v}"'


#: The process-wide registry; cleared by ``obs.enable()``.
METRICS = MetricsRegistry()
