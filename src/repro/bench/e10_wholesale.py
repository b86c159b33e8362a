"""E10 — End-to-end optimizer benefit on the wholesale workload (Table 7).

All eight analytical queries, planned by the full cost-based optimizer and
by a baseline planner; executed cold.  Two currencies are reported:

* actual page I/O — what the 1977 cost model predicts;
* wall-clock time — which also reflects the CPU term of the cost model
  (tuple comparisons dominate bad nested-loop plans even when the pages
  are cached).

The headline is the geometric-mean time ratio; per-query I/O shows where
the win comes from (join order + access paths).  Result sets are verified
identical between strategies (modulo float summation order).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale
from .measure import fresh_db, measure_repeated, plan_with_strategy
from .tables import Ratio, ResultTable, geometric_mean


def _rows_equal(a, b, rel_tol: float = 1e-9) -> bool:
    """Result-set equality tolerant of float summation order."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(sorted(a, key=repr), sorted(b, key=repr)):
        if len(row_a) != len(row_b):
            return False
        for x, y in zip(row_a, row_b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def run(
    scale: Optional[WholesaleScale] = None,
    seed: int = 42,
    baseline: str = "syntactic",
    queries: Optional[List[str]] = None,
    buffer_pages: int = 48,
    repeats: int = 1,
) -> List[ResultTable]:
    db = fresh_db(buffer_pages=buffer_pages, work_mem_pages=12)
    load_wholesale(db, scale or WholesaleScale.small(), seed=seed)
    names = queries or list(WHOLESALE_QUERIES)
    table = ResultTable(
        f"E10/Table 7 — optimized (dp) vs {baseline} on the wholesale workload",
        [
            "query", "rows",
            "dp: I/O", f"{baseline}: I/O",
            "dp: time (ms)", f"{baseline}: time (ms)", "time ratio",
        ],
    )
    time_ratios: List[float] = []
    total_dp_io = 0
    total_base_io = 0
    total_dp_t = 0.0
    total_base_t = 0.0
    for name in names:
        sql = WHOLESALE_QUERIES[name]
        dp_plan, _ = plan_with_strategy(db, sql, "dp")
        base_plan, _ = plan_with_strategy(db, sql, baseline, random_seed=seed)
        dp = measure_repeated(db, dp_plan, repeats, keep_result=True)
        base = measure_repeated(db, base_plan, repeats, keep_result=True)
        if not _rows_equal(dp.result.rows, base.result.rows):
            raise AssertionError(f"{name}: strategies disagree on results")
        ratio = (
            base.exec_seconds / dp.exec_seconds
            if dp.exec_seconds > 0
            else 1.0
        )
        time_ratios.append(max(ratio, 1e-9))
        total_dp_io += dp.actual_io
        total_base_io += base.actual_io
        total_dp_t += dp.exec_seconds
        total_base_t += base.exec_seconds
        table.add(
            name,
            dp.rows,
            dp.actual_io,
            base.actual_io,
            dp.exec_seconds * 1000,
            base.exec_seconds * 1000,
            Ratio(ratio),
        )
    table.add(
        "TOTAL",
        None,
        total_dp_io,
        total_base_io,
        total_dp_t * 1000,
        total_base_t * 1000,
        Ratio(total_base_t / total_dp_t if total_dp_t else 1.0),
    )
    table.notes = (
        f"geo-mean time ratio {geometric_mean(time_ratios):.2f}x "
        f"({baseline} / dp); identical result sets verified per query"
    )
    return [table]

