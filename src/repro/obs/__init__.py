"""Query-lifecycle and optimizer observability.

The pieces (all engine-independent; on a ``Database`` all live or all
idle, and fed by one recorder at the end of the statement path):

* :class:`ObsConfig` — the on/off switch; :class:`InstrumentLevel` —
  per-execution measurement depth (``config``).
* :class:`Tracer` / :class:`Span` — planner/query span trees with JSON
  round-tripping (``trace``).
* :class:`MetricsRegistry` — process-wide counters, gauges, latency
  histograms, with a Prometheus text exporter (``metrics``).
* :class:`QueryLog` / :func:`plan_fingerprint` — the per-query feedback
  store: est vs. actual cardinality, cost, latency (``querylog``).
* :class:`SearchTrace` — what the optimizer *considered*: memo entries,
  pruning decisions, ranked alternatives per join region (``search``).
* :class:`StatementStore` — the one per-statement store, keyed by
  normalized statement fingerprint: calls and an execution-time
  histogram, row and page sums, and a SELECT's plan baseline for
  plan-change/regression detection (``statements``), rendered by
  :func:`plan_diff` (``plandiff``).
* :class:`FeedbackStore` — LEO-style est-vs-actual aggregates keyed by
  (relation set, predicate fingerprint), driving opt-in estimate
  correction (``feedback``).
* :class:`WaitEventStats` — cumulative wait-event accounting: where time
  goes (I/O vs. lock vs. CPU), fed by storage/executor
  instrumentation (``waits``).
* :func:`register_system_tables` / :class:`ActivityRegistry` — the
  ``sys_stat_*`` virtual tables the engine serves through its own SQL,
  and the live-statement registry behind ``sys_stat_activity``
  (``systables``).
* :class:`AutoExplain` — slow-statement capture: full EXPLAIN ANALYZE
  trees persisted to a bounded JSONL log (``autoexplain``).
"""

from .autoexplain import AutoExplain, AutoExplainConfig
from .config import InstrumentLevel, ObsConfig
from .feedback import (
    FeedbackEntry,
    FeedbackStore,
    feedback_key,
    normalized_predicate,
    scan_key,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .plandiff import plan_diff, plan_shape_lines, plan_shape_text
from .querylog import QueryLog, QueryLogRecord, plan_fingerprint, q_error
from .search import PathAlt, RegionSearch, SearchTrace, plan_shape
from .statements import (
    PlanChange,
    StatementStore,
    normalize_statement,
    statement_fingerprint,
)
from .systables import (
    SYSTEM_TABLE_NAMES,
    ActivityEntry,
    ActivityRegistry,
    register_system_tables,
)
from .trace import (
    NULL_SPAN,
    RequestTrace,
    Span,
    Tracer,
    activate_tracer,
    active_tracer,
    new_trace_id,
    trace_span,
)
from .traceexport import (
    TraceRing,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from .waits import WaitEventStats

__all__ = [
    "AutoExplain",
    "AutoExplainConfig",
    "WaitEventStats",
    "ActivityEntry",
    "ActivityRegistry",
    "register_system_tables",
    "SYSTEM_TABLE_NAMES",
    "InstrumentLevel",
    "ObsConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "QueryLog",
    "QueryLogRecord",
    "plan_fingerprint",
    "q_error",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "RequestTrace",
    "new_trace_id",
    "active_tracer",
    "activate_tracer",
    "trace_span",
    "TraceRing",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "SearchTrace",
    "RegionSearch",
    "PathAlt",
    "plan_shape",
    "StatementStore",
    "PlanChange",
    "normalize_statement",
    "statement_fingerprint",
    "plan_diff",
    "plan_shape_lines",
    "plan_shape_text",
    "FeedbackStore",
    "FeedbackEntry",
    "feedback_key",
    "scan_key",
    "normalized_predicate",
]
