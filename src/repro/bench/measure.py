"""Measurement helpers shared by all experiments.

The central routine is :func:`measure_plan`: run a physical plan from a
cold buffer pool and report estimated vs actual cost components.  "Actual
I/O" is page reads+writes on the simulated disk — the unit the 1977-era
cost model predicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..engine import Database, QueryResult
from ..physical import PhysicalPlan
from ..sql import SelectStmt, parse


@dataclass
class Measurement:
    """Everything one experimental run reports."""

    rows: int
    est_rows: float
    est_cost_total: float
    est_cost_io: float
    actual_reads: int
    actual_writes: int
    exec_seconds: float
    plan_text: str
    result: Optional[QueryResult] = None

    @property
    def actual_io(self) -> int:
        return self.actual_reads + self.actual_writes

    @property
    def cardinality_q_error(self) -> float:
        from .tables import q_error

        return q_error(self.est_rows, float(self.rows))


def measure_plan(
    db: Database,
    plan: PhysicalPlan,
    keep_result: bool = False,
    analyze: bool = False,
) -> Measurement:
    """Execute *plan* cold and compare estimates with actuals.

    ``analyze=True`` runs under FULL instrumentation, so every node of
    *plan* carries ``actual_time_ms`` and attributed I/O afterwards.
    """
    result = db.run_plan(plan, cold=True, analyze=analyze)
    cost = plan.est_cost
    return Measurement(
        rows=result.rowcount,
        est_rows=plan.est_rows,
        est_cost_total=cost.total if cost is not None else 0.0,
        est_cost_io=cost.io if cost is not None else 0.0,
        actual_reads=result.io.reads,
        actual_writes=result.io.writes,
        exec_seconds=result.execution_seconds,
        plan_text=plan.pretty(actuals=True),
        result=result if keep_result else None,
    )


def measure_repeated(
    db: Database, plan: PhysicalPlan, repeats: int, keep_result: bool = False
) -> Measurement:
    """The first of *repeats* cold runs, timed as the fastest of them.

    Cold runs on the simulated disk must agree on rows and page I/O, so
    which repeat was fastest never decides what a table reports.
    """
    first = measure_plan(db, plan, keep_result=keep_result)
    counted = (first.rows, first.actual_reads, first.actual_writes)
    for _ in range(repeats - 1):
        again = measure_plan(db, plan)
        recount = (again.rows, again.actual_reads, again.actual_writes)
        if recount != counted:
            raise AssertionError(
                f"cold repeats disagree on (rows, reads, writes): "
                f"{counted} then {recount}"
            )
        first.exec_seconds = min(first.exec_seconds, again.exec_seconds)
    return first


def measure_query(
    db: Database, sql: str, keep_result: bool = False
) -> Measurement:
    """Plan (with the database's current strategy) and measure a query."""
    plan = db.plan(sql)
    return measure_plan(db, plan, keep_result=keep_result)


def plan_with_strategy(db: Database, sql: str, strategy: str, **kwargs: Any):
    """Plan *sql* under a strategy without disturbing the DB's options."""
    from ..optimizer import PlannerOptions

    saved = db.options
    try:
        db.options = PlannerOptions(strategy=strategy, **kwargs)
        stmt = parse(sql)
        assert isinstance(stmt, SelectStmt)
        plan, stats = db.plan_select(stmt)
        return plan, stats
    finally:
        db.options = saved


def time_planning(
    db: Database, sql: str, strategy: str, repeats: int = 3, **kwargs: Any
) -> Tuple[float, Any]:
    """Median wall-clock planning time for *sql* under *strategy*."""
    times: List[float] = []
    stats = None
    for _ in range(repeats):
        start = time.perf_counter()
        _, stats = plan_with_strategy(db, sql, strategy, **kwargs)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2], stats


def fresh_db(
    buffer_pages: int = 256,
    work_mem_pages: int = 16,
    columnar: bool = False,
    **kwargs: Any,
) -> Database:
    """A new empty database with experiment-friendly defaults.

    This is where the paper harness chooses its engine: the experiments
    reproduce a tuple-at-a-time executor that reads every page of a scan
    and a cost model that charges full per-tuple CPU, so they run
    ``columnar=False`` whatever ``Database`` defaults to.
    """
    return Database(
        buffer_pages=buffer_pages,
        work_mem_pages=work_mem_pages,
        columnar=columnar,
        **kwargs,
    )
