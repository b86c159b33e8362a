"""Benchmark harness: measurement utilities and the E1-E10 experiments."""

from . import (
    e1_join_methods,
    e2_access_paths,
    e4_plan_quality,
    e6_estimation,
    e7_interesting_orders,
    e8_buffer_sweep,
    e9_rewrites,
    e10_wholesale,
    e11_ablations,
    e12_scaling,
    e13_batching,
    e15_feedback,
    e16_systables,
    e18_wal,
    e19_tracing,
)
from .figures import chart_from_table, line_chart
from .measure import (
    Measurement,
    fresh_db,
    measure_plan,
    measure_query,
    plan_with_strategy,
    time_planning,
)
from .tables import (
    Ratio,
    ResultTable,
    geometric_mean,
    q_error,
    quantile,
    render_all,
)

__all__ = [
    "e1_join_methods", "e2_access_paths", "e4_plan_quality", "e6_estimation",
    "e7_interesting_orders", "e8_buffer_sweep", "e9_rewrites", "e10_wholesale",
    "e11_ablations", "e12_scaling", "e13_batching", "e15_feedback",
    "e16_systables", "e18_wal", "e19_tracing",
    "Measurement", "fresh_db", "measure_plan", "measure_query",
    "plan_with_strategy", "time_planning", "Ratio", "ResultTable",
    "geometric_mean", "q_error", "quantile", "render_all",
    "chart_from_table", "line_chart",
]
