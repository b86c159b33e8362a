"""E9 — Rewrite ablation (Table 6): predicate pushdown on/off.

The same wholesale queries planned with and without predicate pushdown,
the one logical rewrite the planner runs (it has first-order cost impact:
filters that stay above a join multiply intermediate sizes).

Reported per query: modeled cost, actual I/O and actual rows flowing
through the top join, with pushdown on and off.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine import Database
from ..optimizer import PlannerOptions
from ..sql import SelectStmt, parse
from ..workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale
from .measure import fresh_db, measure_plan
from .tables import Ratio, ResultTable

#: queries with meaningful single-table filters to push
ABLATION_QUERIES = [
    "Q3_top_customers",
    "Q4_line_revenue",
    "Q5_big_orders_by_segment",
    "Q6_five_way",
]


def _plan(db: Database, sql: str, pushdown: bool):
    saved = db.options
    try:
        db.options = PlannerOptions(strategy="dp", pushdown=pushdown)
        stmt = parse(sql)
        assert isinstance(stmt, SelectStmt)
        plan, _ = db.plan_select(stmt)
        return plan
    finally:
        db.options = saved


def run(
    scale: Optional[WholesaleScale] = None,
    seed: int = 42,
    queries: Optional[List[str]] = None,
) -> List[ResultTable]:
    db = fresh_db(buffer_pages=128, work_mem_pages=16)
    load_wholesale(db, scale or WholesaleScale.small(), seed=seed)
    queries = queries or ABLATION_QUERIES
    table = ResultTable(
        "E9/Table 6 — predicate pushdown ablation",
        [
            "query",
            "pushdown: cost", "pushdown: I/O",
            "no pushdown: cost", "no pushdown: I/O",
            "I/O ratio",
        ],
    )
    for name in queries:
        sql = WHOLESALE_QUERIES[name]
        with_pd = measure_plan(db, _plan(db, sql, True))
        without = measure_plan(db, _plan(db, sql, False))
        ratio = Ratio(
            without.actual_io / with_pd.actual_io
            if with_pd.actual_io
            else 1.0
        )
        table.add(
            name,
            with_pd.est_cost_total,
            with_pd.actual_io,
            without.est_cost_total,
            without.actual_io,
            ratio,
        )
    return [table]
