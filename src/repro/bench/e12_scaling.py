"""E12 — does the optimizer's win grow with data size?

The classic closing argument for cost-based optimization: at toy scale any
plan is fine (everything is cached, intermediates are small); as data
grows, the gap between the optimizer's plan and a heuristic plan widens.

Runs a three-join analytical query at increasing scale factors, planning
with DP and with the syntactic baseline, and reports wall-clock and I/O
per scale.
"""

from __future__ import annotations

from typing import List, Optional

from ..workloads import WholesaleScale, load_wholesale
from .measure import fresh_db, measure_repeated, plan_with_strategy
from .tables import Ratio, ResultTable

#: the measured query: 3 joins with selective filters on BOTH small sides,
#: written in the worst syntactic order (biggest table first) — exactly the
#: query class where cost-based join ordering pays
QUERY = (
    "SELECT c.segment, COUNT(*) AS n, SUM(l.price * l.qty) AS revenue "
    "FROM lineitem l, orders o, customer c "
    "WHERE l.order_id = o.id AND o.cust_id = c.id "
    "AND o.status = 'returned' AND c.segment = 'industrial' "
    "GROUP BY c.segment"
)

SCALES = {
    "tiny": WholesaleScale.tiny(),
    "small": WholesaleScale.small(),
    "medium": WholesaleScale.medium(),
}


def run(
    scales: Optional[List[str]] = None,
    baseline: str = "syntactic",
    buffer_pages: int = 48,
    repeats: int = 2,
    seed: int = 42,
) -> List[ResultTable]:
    scales = scales or list(SCALES)
    table = ResultTable(
        f"E12 — optimizer benefit vs data scale (dp vs {baseline})",
        [
            "scale", "lineitem rows",
            "dp: I/O", f"{baseline}: I/O",
            "dp: time (ms)", f"{baseline}: time (ms)", "time ratio",
        ],
        notes=f"query: 3-way join + aggregate; buffer {buffer_pages} pages",
    )
    for scale_name in scales:
        db = fresh_db(buffer_pages=buffer_pages, work_mem_pages=12)
        counts = load_wholesale(db, SCALES[scale_name], seed=seed)
        dp_plan, _ = plan_with_strategy(db, QUERY, "dp")
        base_plan, _ = plan_with_strategy(db, QUERY, baseline)
        dp = measure_repeated(db, dp_plan, repeats)
        base = measure_repeated(db, base_plan, repeats)
        ratio = (
            base.exec_seconds / dp.exec_seconds if dp.exec_seconds else 1.0
        )
        table.add(
            scale_name,
            counts["lineitem"],
            dp.actual_io,
            base.actual_io,
            dp.exec_seconds * 1000,
            base.exec_seconds * 1000,
            Ratio(ratio),
        )
    return [table]

