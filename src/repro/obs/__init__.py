"""Query-lifecycle and optimizer observability.

The pieces (all engine-independent; on a ``Database`` all live or all
idle, and fed by one recorder at the end of the statement path):

* :class:`ObsConfig` — the on/off switch; :class:`InstrumentLevel` —
  per-execution measurement depth (``config``).
* :class:`Tracer` / :class:`Span` — planner/query span trees; a traced
  reply carries ``Span.to_dict()`` (``trace``), exported for Perfetto by
  :func:`export_chrome_trace` (``traceexport``).
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
* :class:`AutoExplain` — slow-request capture: span trees and a SELECT's
  EXPLAIN ANALYZE tree in one bounded ring, mirrored to a JSONL log
  (``autoexplain``).

``__all__`` lists what the program outside this package imports
(``tests/test_obs_census.py`` pins it).  The names imported below but
not listed (``AutoExplainConfig``, ``SYSTEM_TABLE_NAMES``, ``Histogram``,
``NULL_SPAN``, ``new_trace_id``, ``chrome_trace_events``,
``normalize_statement``, ``normalized_predicate``) are read by this
package's own modules and its tests only.
"""

from .autoexplain import AutoExplain, AutoExplainConfig
from .config import InstrumentLevel, ObsConfig
from .feedback import FeedbackStore, feedback_key, normalized_predicate, scan_key
from .metrics import Histogram, MetricsRegistry
from .plandiff import plan_diff, plan_shape_text
from .querylog import QueryLog, QueryLogRecord, plan_fingerprint, q_error
from .search import RegionSearch, SearchTrace
from .statements import StatementStore, normalize_statement, statement_fingerprint
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
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from .waits import WaitEventStats

__all__ = [
    "ObsConfig",
    "InstrumentLevel",
    "MetricsRegistry",
    "QueryLog",
    "QueryLogRecord",
    "StatementStore",
    "FeedbackStore",
    "WaitEventStats",
    "AutoExplain",
    "ActivityRegistry",
    "ActivityEntry",
    "register_system_tables",
    "Span",
    "Tracer",
    "RequestTrace",
    "trace_span",
    "active_tracer",
    "activate_tracer",
    "export_chrome_trace",
    "validate_chrome_trace",
    "SearchTrace",
    "RegionSearch",
    "feedback_key",
    "scan_key",
    "plan_fingerprint",
    "q_error",
    "statement_fingerprint",
    "plan_diff",
    "plan_shape_text",
]

