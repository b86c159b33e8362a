"""E4 — Plan quality across optimizer strategies (Table 3) and
E5 — planning effort vs number of relations (Figure 2).

E4: for chain/star/clique workloads, plan with every strategy, execute
each plan cold, and report modeled cost and actual page I/O; the headline
number is each baseline's I/O as a multiple of the DP plan's.

E5: planning wall-clock time and subplans considered as the number of
relations grows — DP stays polynomial-ish (chain) while exhaustive
explodes factorially and greedy stays near-linear.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..optimizer import count_dp_subsets
from ..workloads import build_shape
from .measure import fresh_db, measure_plan, plan_with_strategy, time_planning
from .tables import Ratio, ResultTable

STRATEGIES = ("dp", "dp-bushy", "greedy", "syntactic", "random", "naive")


def run_plan_quality(
    shapes: Optional[List[str]] = None,
    n: int = 5,
    base_rows: int = 600,
    buffer_pages: int = 64,
    strategies: Optional[List[str]] = None,
    seed: int = 9,
) -> List[ResultTable]:
    """Table 3: modeled cost + actual I/O per strategy per shape."""
    shapes = shapes or ["chain", "star", "clique"]
    strategies = list(strategies or STRATEGIES)
    table = ResultTable(
        "E4/Table 3 — plan quality by strategy",
        ["shape", "strategy", "est cost", "actual I/O", "vs dp"],
        notes=f"{n} relations per query; actual I/O from cold execution",
    )
    for shape in shapes:
        db = fresh_db(buffer_pages=buffer_pages, work_mem_pages=8)
        kwargs: Dict = {"seed": seed}
        if shape == "star":
            kwargs.update(fact_rows=base_rows * 4, dim_base=max(20, base_rows // 10))
        elif shape == "clique":
            kwargs.update(base_rows=max(100, base_rows // 3))
        else:
            kwargs.update(base_rows=base_rows)
        workload = build_shape(db, shape, n, **kwargs)
        dp_io: Optional[int] = None
        for strategy in strategies:
            plan, _ = plan_with_strategy(db, workload.sql, strategy)
            m = measure_plan(db, plan)
            if strategy == "dp":
                dp_io = m.actual_io
            ratio = (
                Ratio(m.actual_io / dp_io)
                if dp_io
                else None
            )
            table.add(shape, strategy, m.est_cost_total, m.actual_io, ratio)
    return [table]


def run_planning_time(
    shape: str = "chain",
    max_n: int = 8,
    base_rows: int = 120,
    strategies: Optional[List[str]] = None,
    exhaustive_limit: int = 7,
    seed: int = 10,
) -> List[ResultTable]:
    """Figure 2: planning effort growth."""
    strategies = list(strategies or ["dp", "dp-bushy", "greedy", "exhaustive"])
    timing = ResultTable(
        f"E5/Figure 2 — planning time vs relations ({shape})",
        ["n"] + [f"{s} (ms)" for s in strategies],
    )
    effort = ResultTable(
        f"E5/Figure 2b — subplans considered ({shape})",
        ["n", "connected subsets (analytic)"]
        + [f"{s} plans" for s in strategies],
    )
    for n in range(2, max_n + 1):
        db = fresh_db(buffer_pages=64, work_mem_pages=8)
        workload = build_shape(
            db, shape, n, base_rows=base_rows, seed=seed
        ) if shape != "star" else build_shape(
            db, shape, n, fact_rows=base_rows * 4, dim_base=30, seed=seed
        )
        time_row: List[object] = [n]
        effort_row: List[object] = [n, count_dp_subsets(n, shape if shape in ("chain", "star", "clique") else "chain")]
        for strategy in strategies:
            if strategy == "exhaustive" and n > exhaustive_limit:
                time_row.append(None)
                effort_row.append(None)
                continue
            seconds, stats = time_planning(db, workload.sql, strategy, repeats=3)
            time_row.append(seconds * 1000.0)
            effort_row.append(stats.plans_considered if stats else None)
        timing.rows.append(time_row)
        effort.rows.append(effort_row)
    return [timing, effort]
