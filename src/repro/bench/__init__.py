"""The paper's tables: measurement utilities and experiments E1-E12 and E15.

Simulated page I/O, rows, modeled cost and q-error — deterministic, and
pinned by digest in ``tests/test_paper_tables.py``.  Wall-clock claims
about layers are measured by ``benchmarks/e2e/`` instead.
"""

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
    e15_feedback,
)
from .figures import chart_from_table, line_chart
from .measure import (
    Measurement,
    fresh_db,
    measure_plan,
    measure_repeated,
    plan_with_strategy,
    time_planning,
)
from .tables import (
    Ratio,
    ResultTable,
    geometric_mean,
    quantile,
    render_all,
)

__all__ = [
    "e1_join_methods", "e2_access_paths", "e4_plan_quality", "e6_estimation",
    "e7_interesting_orders", "e8_buffer_sweep", "e9_rewrites", "e10_wholesale",
    "e11_ablations", "e12_scaling", "e15_feedback",
    "Measurement", "fresh_db", "measure_plan",
    "measure_repeated", "plan_with_strategy", "time_planning",
    "Ratio", "ResultTable",
    "geometric_mean", "quantile", "render_all",
    "chart_from_table", "line_chart",
]
