"""End-to-end checks that the batch size never changes query behaviour.

Every E-suite wholesale query must return identical rows AND identical
ROWS-level actuals (per-node actual_rows / actual_loops) whether the
engine runs tuple-at-a-time (``batch_size=1``) or fully batched
(``batch_size=1024``).  This pins down the invariants the batched
operator engine promises: batching is purely an execution-efficiency
knob, invisible to results, plans, and observability.
"""

import pytest

from repro.engine import Database
from repro.physical import walk_plan
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale


def _run_all(batch_size):
    """Run every wholesale query at *batch_size*; return per-query rows,
    per-node ROWS actuals, and executor metrics."""
    db = Database(buffer_pages=64, work_mem_pages=8, batch_size=batch_size)
    load_wholesale(db, WholesaleScale.tiny(), seed=7)
    results = {}
    for name, sql in WHOLESALE_QUERIES.items():
        plan = db.plan(sql)
        r = db.run_plan(plan, cold=True, analyze=True)
        actuals = [
            (n.describe(), n.actual_rows, n.actual_loops)
            for n in walk_plan(plan)
        ]
        results[name] = (r.rows, actuals, r.exec_metrics)
    return results


@pytest.fixture(scope="module")
def batch_size_runs():
    return _run_all(1), _run_all(1024)


class TestBatchSizeInvariance:
    def test_identical_rows(self, batch_size_runs):
        tuple_at_a_time, batched = batch_size_runs
        for name in WHOLESALE_QUERIES:
            assert tuple_at_a_time[name][0] == batched[name][0], name

    def test_identical_rows_actuals(self, batch_size_runs):
        tuple_at_a_time, batched = batch_size_runs
        for name in WHOLESALE_QUERIES:
            assert tuple_at_a_time[name][1] == batched[name][1], name

    def test_identical_spill_counts(self, batch_size_runs):
        # spill behaviour (sort runs, grace partitions) must not depend
        # on how rows are batched through the operators
        tuple_at_a_time, batched = batch_size_runs
        for name in WHOLESALE_QUERIES:
            m1, m2 = tuple_at_a_time[name][2], batched[name][2]
            assert m1.spills == m2.spills, name
            assert m1.temp_files == m2.temp_files, name

    def test_identical_work_metrics(self, batch_size_runs):
        tuple_at_a_time, batched = batch_size_runs
        for name in WHOLESALE_QUERIES:
            m1, m2 = tuple_at_a_time[name][2], batched[name][2]
            assert m1.rows_scanned == m2.rows_scanned, name
            assert m1.rows_emitted == m2.rows_emitted, name
            assert m1.hash_probes == m2.hash_probes, name


class TestBatchSizeConfig:
    def test_batch_size_reaches_context(self):
        db = Database(batch_size=7)
        assert db.batch_size == 7

    def test_invalid_batch_size_rejected(self):
        from repro.executor import ExecContext

        db = Database()
        with pytest.raises(ValueError):
            ExecContext(db.pool, batch_size=0)
        # fails at construction, not at the first SELECT
        with pytest.raises(ValueError, match="batch size"):
            Database(batch_size=0)

    def test_intermediate_batch_sizes_agree(self):
        # a non-power-of-two batch size exercises ragged final batches
        db1 = Database(buffer_pages=64, work_mem_pages=8, batch_size=3)
        db2 = Database(buffer_pages=64, work_mem_pages=8, batch_size=100)
        load_wholesale(db1, WholesaleScale.tiny(), seed=7)
        load_wholesale(db2, WholesaleScale.tiny(), seed=7)
        sql = WHOLESALE_QUERIES["Q3_top_customers"]
        r1 = db1.query(sql)
        r2 = db2.query(sql)
        assert r1.rows == r2.rows

