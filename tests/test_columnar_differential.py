"""Columnar-engine differential tests: the columnar batch engine must be
bit-identical to the row engine — same rows, same order, same per-node
actuals — on the seeded random-query matrix, across batch sizes.

Tier-1 runs a rotating slice; the ``slow``-marked sweep covers the full
matrix in nightly CI under the rotating ``REPRO_MATRIX_SEED``.
"""

import os

import pytest

from repro import Database
from repro.executor import ExecContext, run
from repro.expr import col
from repro.physical import PHashJoin, PSeqScan, walk_plan
from repro.qa import RandomWorkload
from repro.qa.randomqueries import load_dataset
from repro.workloads import WholesaleScale, load_wholesale

SEED = int(os.environ.get("REPRO_MATRIX_SEED", "1977"))

BATCH_SIZES = [1, 64, 1024]

_workload = RandomWorkload(SEED)
_reference = _workload.reference()
_databases = {}


def engines_for(batch_size: int):
    """A (row, columnar) engine pair sharing dataset and batch size.

    Both are ANALYZEd by the loader, so plans are identical and the only
    varying dimension is the execution engine."""
    if batch_size not in _databases:
        pair = []
        for columnar in (False, True):
            db = Database(
                buffer_pages=64,
                work_mem_pages=4,
                batch_size=batch_size,
                columnar=columnar,
            )
            # pin the cost model: a columnar Database discounts per-row
            # CPU (vector_cpu_factor), which can legitimately flip join
            # orders; the bit-identity differential must vary only the
            # execution engine, so both sides price plans identically
            db.model.vector_cpu_factor = 1.0
            load_dataset(db, _workload.dataset())
            pair.append(db)
        _databases[batch_size] = tuple(pair)
    return _databases[batch_size]


def actuals_of(plan):
    """(node type, actual rows) per node, in walk order."""
    return [
        (type(node).__name__, node.actual_rows)
        for node in walk_plan(plan)
    ]


def check_case(index: int, batch_size: int):
    case = _workload.case(index)
    row_db, col_db = engines_for(batch_size)
    row_result = row_db.query(case.sql)
    col_result = col_db.query(case.sql)
    assert col_result.rows == row_result.rows, (
        f"columnar rows differ from row engine for seed={SEED} "
        f"case={index} (batch={batch_size})\n"
        f"  sql: {case.sql}"
    )
    assert case.matches(col_result.rows, _reference), (
        f"columnar rows differ from reference for seed={SEED} "
        f"case={index}\n  sql: {case.sql}"
    )
    assert actuals_of(col_result.plan) == actuals_of(row_result.plan), (
        f"per-node actuals differ between engines for seed={SEED} "
        f"case={index} (batch={batch_size})\n"
        f"  sql: {case.sql}"
    )


class TestColumnarSlice:
    """Tier-1 slice: 30 cases, each under a rotating batch size, so
    every batch size is hit on every run."""

    @pytest.mark.parametrize("index", range(30))
    def test_case_matches_row_engine(self, index):
        check_case(index, BATCH_SIZES[index % len(BATCH_SIZES)])


@pytest.mark.slow
class TestColumnarFullMatrix:
    """Nightly sweep: 200 cases, every batch size per case."""

    @pytest.mark.parametrize("index", range(200))
    def test_case_matches_row_engine_all_cells(self, index):
        for batch_size in BATCH_SIZES:
            check_case(index, batch_size)


# -- one plan, both engines, cold and warm pool --------------------------------
#
# the two pipelines the retired E13b experiment timed; its non-timing
# check was that both engines return the same rows from the same plan
# whether or not the pages are already in the pool


@pytest.fixture(scope="module")
def wholesale_pipelines():
    db = Database(buffer_pages=64, work_mem_pages=64, columnar=False)
    load_wholesale(db, WholesaleScale.tiny(), seed=42)
    lineitem = PSeqScan(db.table("lineitem"), "l")
    orders = PSeqScan(db.table("orders"), "o")
    customer = PSeqScan(db.table("customer"), "c")
    return db, {
        "scan-filter-agg": db.plan(
            "SELECT status, COUNT(*) AS n, SUM(total) AS revenue "
            "FROM orders WHERE total > 500.0 GROUP BY status"
        ),
        "hash-join-3way": PHashJoin(
            PHashJoin(lineitem, orders, col("l.order_id"), col("o.id")),
            customer,
            col("o.cust_id"),
            col("c.id"),
        ),
    }


@pytest.mark.parametrize("pool", ["cold", "warm"])
@pytest.mark.parametrize("pipeline", ["scan-filter-agg", "hash-join-3way"])
def test_one_plan_same_rows_on_both_engines(wholesale_pipelines, pipeline, pool):
    db, plans = wholesale_pipelines

    def rows(columnar):
        if pool == "cold":
            db.pool.clear()
        ctx = ExecContext(db.pool, db.work_mem_pages, columnar=columnar)
        return run(plans[pipeline], ctx)

    if pool == "warm":
        rows(False)
    got = rows(True)
    assert got and got == rows(False)
