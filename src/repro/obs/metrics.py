"""Process-wide metrics: counters, gauges and histograms by name.

A :class:`MetricsRegistry` is a flat namespace of lazily-created
instruments::

    reg = MetricsRegistry()
    reg.counter("queries_total").inc()
    reg.histogram("planning_ms").observe(1.7)
    reg.gauge("buffer_hit_ratio").set(0.93)
    snap = reg.snapshot()   # plain dicts, JSON-safe

Histograms use fixed bucket upper bounds (default: a log-ish ladder in
milliseconds) plus exact count/sum/min/max, so percentile estimates come
from bucket interpolation-free upper bounds — coarse but allocation-free
and stable under heavy traffic.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram ladder (latencies in milliseconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Exposition help text for well-known instruments; anything else gets a
#: generated line.  Deliberately a flat table — instruments are created
#: lazily at call sites all over the engine, and threading help strings
#: through every call would couple those sites to the exporter.
HELP_TEXTS: Dict[str, str] = {
    "queries_total": "SELECT statements executed",
    "rows_returned_total": "rows returned to clients",
    "pages_read_total": "disk pages read on behalf of queries",
    "pages_written_total": "disk pages written on behalf of queries",
    "spills_total": "work-memory spill events",
    "temp_files_total": "temporary files created by spilling operators",
    "plan_changes_total": "statements whose plan differed from the baseline",
    "plan_regressions_total": "plan changes whose estimated cost went up",
    "slow_queries_captured_total": "slow requests captured by auto_explain",
    "cache_plan_hits_total": "statements planned from the plan cache",
    "cache_plan_misses_total": "cacheable statements that missed the plan cache",
    "cache_invalidations_total": "plan/result cache invalidation events",
    "exec_row_fallbacks_total": (
        "operators that converted columnar input to rows "
        "(marked engine=rows in EXPLAIN ANALYZE)"
    ),
    "planning_ms": "statement planning latency",
    "execution_ms": "statement execution latency",
    "buffer_hit_ratio": "buffer pool hit rate since startup",
    "buffer_pool_hits": "buffer pool page hits",
    "buffer_pool_misses": "buffer pool page misses",
    "buffer_pool_evictions": "buffer pool frame evictions",
    "buffer_pool_dirty_writebacks": "dirty frames written back on eviction",
    "buffer_pool_hit_rate": "buffer pool hit rate since startup",
    "buffer_pool_decoded_hits": (
        "seq-scan page fixes served by the frame's cached decoded columns"
    ),
    "buffer_pool_decoded_misses": (
        "seq-scan page fixes that decoded the page and cached its columns"
    ),
    "disk_reads": "pages read from the simulated disk",
    "disk_writes": "pages written to the simulated disk",
    "disk_seq_reads": "sequential page reads",
    "disk_allocations": "pages allocated",
    "query_log_entries": "records currently in the query log ring",
    "feedback_entries": "cardinality-feedback keys learned",
    "feedback_dropped": (
        "cardinality-feedback keys dropped because the feedback store was full"
    ),
    "plan_baselines": "statements with a stored plan baseline",
    "wait_events_total": "distinct wait events observed",
    "dml_statements_total": "INSERT/UPDATE/DELETE statements executed",
    "rows_modified_total": "rows inserted, updated, or deleted",
    "dml_execution_ms": "DML statement execution latency",
    "trace_spans_total": "spans recorded across auto_explain captures",
    "transactions_too_large_total": "writes refused: too many buffer frames owned",
    "statement_latency_ms": (
        "per-fingerprint statement execution latency quantiles "
        "(log-bucketed; labels: fingerprint, quantile)"
    ),
    "statement_latency_fingerprints": (
        "fingerprints currently tracked by the statement store"
    ),
    "statement_latency_dropped": (
        "fingerprints dropped because the statement store was full"
    ),
}


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with exact count/sum/min/max.

    ``observe`` is thread-safe: concurrent updates (metrics feeding from
    session threads) never lose counts or leave ``sum`` inconsistent
    with ``count``.
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "sum", "min", "max", "_lock"
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            # the first bound >= value; past the last one, the overflow bucket
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile
        observation (p in [0, 1]).  Exact max for the overflow bucket."""
        if not self.count:
            return 0.0
        target = max(1, math.ceil(p * self.count))
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max  # pragma: no cover - unreachable

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._bound: Dict[tuple, tuple] = {}
        # guards lazy instrument creation under concurrent first use
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter())
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge())
        return inst

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    name,
                    Histogram(
                        buckets if buckets is not None else DEFAULT_BUCKETS
                    ),
                )
        return inst

    def bind(self, names: Tuple[Sequence[str], ...]) -> tuple:
        """The instruments *names* = ``(counters, histograms, gauges)``
        lists, as one flat tuple in that order: resolved (and created) on
        the first call, remembered for the registry's life — a per-statement
        caller pays one lookup, not one per instrument."""
        bound = self._bound.get(names)
        if bound is None:
            counters, histograms, gauges = names
            bound = self._bound[names] = (
                *map(self.counter, counters),
                *map(self.histogram, histograms),
                *map(self.gauge, gauges),
            )
        return bound

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every instrument (JSON-safe)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def render_prometheus(
        self,
        prefix: str = "repro_",
        extras: Optional[Dict[str, float]] = None,
        labeled: Optional[
            List[Tuple[str, str, List[Tuple[str, float]]]]
        ] = None,
    ) -> str:
        """Prometheus text exposition of every instrument.

        Each metric family renders as a ``# HELP`` line, a ``# TYPE``
        line, then its samples — counters and gauges as one sample,
        histograms as cumulative ``_bucket{le="..."}`` series ending in
        ``+Inf`` plus ``_sum`` and ``_count``.  Families are emitted in
        one global sort by metric name regardless of kind, so the
        exposition is byte-stable across runs with the same values —
        scrape diffing never sees spurious reorderings.  ``extras``
        (plain name→value pairs, e.g. derived ratios the engine computes
        at scrape time) render as gauges in the same ordering.

        ``labeled`` supplies families with label sets the registry does
        not model itself (e.g. per-fingerprint latency quantiles): each
        entry is ``(name, kind, [(label_body, value), ...])`` where
        *label_body* is the pre-rendered ``key="value",...`` interior of
        the braces.  Samples are sorted by label body so the exposition
        stays byte-stable.
        """
        families: List[Tuple[str, str, List[str]]] = []

        def fam(name: str, kind: str, samples: List[str]) -> None:
            families.append((name, kind, samples))

        if labeled:
            for name, kind, pairs in labeled:
                full = prefix + name
                fam(
                    name,
                    kind,
                    [
                        f"{full}{{{body}}} {_fmt(value)}"
                        for body, value in sorted(pairs)
                    ],
                )

        for name, counter in self._counters.items():
            full = prefix + name
            fam(name, "counter", [f"{full} {_fmt(counter.value)}"])
        for name, gauge in self._gauges.items():
            full = prefix + name
            fam(name, "gauge", [f"{full} {_fmt(gauge.value)}"])
        if extras:
            for name, value in extras.items():
                full = prefix + name
                fam(name, "gauge", [f"{full} {_fmt(value)}"])
        for name, hist in self._histograms.items():
            full = prefix + name
            samples = []
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.bucket_counts):
                cumulative += count
                samples.append(
                    f'{full}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            samples.append(f'{full}_bucket{{le="+Inf"}} {hist.count}')
            samples.append(f"{full}_sum {_fmt(hist.sum)}")
            samples.append(f"{full}_count {hist.count}")
            fam(name, "histogram", samples)

        lines: List[str] = []
        for name, kind, samples in sorted(families):
            full = prefix + name
            help_text = HELP_TEXTS.get(name, f"{name.replace('_', ' ')}")
            lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"


def metrics_snapshot(db: Any, format: str = "json") -> Any:
    """A ``Database``'s process-wide observability snapshot: *db*'s
    registry instruments plus the storage layer's cumulative counters
    and the sizes of its stores.

    ``format="json"`` returns nested plain dicts; ``format="prom"``
    returns Prometheus text exposition (the storage counters and store
    sizes render as gauges alongside the registry instruments).
    """
    bstats, dstats, versions = db.pool.stats, db.disk.stats, db.txn.versions
    # the one list of storage counters: nested as it is for JSON,
    # flattened to ``section_name`` gauges for Prometheus
    storage = {
        "buffer_pool": {
            "hits": bstats.hits,
            "misses": bstats.misses,
            "evictions": bstats.evictions,
            "dirty_writebacks": bstats.dirty_writebacks,
            "hit_rate": bstats.hit_rate,
            "decoded_hits": bstats.decoded_hits,
            "decoded_misses": bstats.decoded_misses,
        },
        "disk": {
            "reads": dstats.reads,
            "writes": dstats.writes,
            "seq_reads": dstats.seq_reads,
            "allocations": dstats.allocations,
        },
        "mvcc": {
            "last_commit_ts": versions.last_commit_ts,
            "active_snapshots": versions.active_snapshots(),
            "live_versions": versions.live_versions(),
            "versions_recorded": versions.versions_recorded,
            "versions_pruned": versions.versions_pruned,
            "snapshots_taken": versions.snapshots_taken,
        },
    }
    # the one list of store sizes: Prometheus shows every one as a
    # gauge, JSON the query log's and the statement store's at the top
    # level and the slow-request captures in its ``auto_explain`` section
    sizes = {
        "query_log_entries": len(db.query_log),
        "feedback_entries": len(db.feedback),
        "feedback_dropped": db.feedback.dropped,
        "plan_baselines": db.statements.baselines(),
        "wait_events_total": len(db.waits),
        "slow_query_captures": db.auto_explain.captured_total,
        "statement_latency_fingerprints": len(db.statements),
        "statement_latency_dropped": db.statements.dropped,
    }
    if format == "prom":
        extras = {
            f"{section}_{name}": float(value)
            for section, counters in storage.items()
            for name, value in counters.items()
        }
        extras.update((name, float(size)) for name, size in sizes.items())
        # one pair of series per wait event, dots flattened for the
        # exposition grammar (io.read -> wait_io_read_*)
        for event, count, total_ms, _ in db.waits.rows():
            flat = event.replace(".", "_")
            extras[f"wait_{flat}_count"] = float(count)
            extras[f"wait_{flat}_seconds"] = total_ms / 1000.0
        # per-fingerprint latency quantiles as one labeled family;
        # sorted label bodies keep the exposition byte-stable
        labeled = []
        quantiles = db.statements.quantiles()
        if quantiles:
            labeled.append(
                (
                    "statement_latency_ms",
                    "gauge",
                    [
                        (f'fingerprint="{fp}",quantile="{q}"', value)
                        for fp, q, value in quantiles
                    ],
                )
            )
        return db.metrics.render_prometheus(extras=extras, labeled=labeled)
    snap: Dict[str, Any] = db.metrics.snapshot()
    snap.update(storage)
    # JSON only: None while no snapshot is open
    snap["mvcc"]["oldest_snapshot_ts"] = versions.oldest_snapshot_ts()
    snap["query_log_entries"] = sizes["query_log_entries"]
    snap["waits"] = db.waits.as_dict()
    snap["auto_explain"] = {
        "enabled": db.auto_explain.enabled,
        "captured_total": sizes["slow_query_captures"],
        "entries": len(db.auto_explain),
    }
    snap["statement_latency"] = db.statements.snapshot()
    snap["statement_latency_dropped"] = sizes["statement_latency_dropped"]
    return snap


def _fmt(value: float) -> str:
    """Prometheus-style number: integral values without the trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
