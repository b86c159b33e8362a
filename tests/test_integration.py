"""Cross-module integration tests: the whole stack under one roof.

The heavyweight invariant: for a pool of nontrivial queries over the
wholesale schema, every join-order strategy, both DP modes, pushdown
on/off, and different memory configurations all produce identical result
sets — while the instrumentation (I/O counters, actual-row annotations)
stays consistent with reality.
"""

import math

import pytest

from repro import Database
from repro.optimizer import PlannerOptions
from repro.physical import walk_plan
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale


def rows_equal(a, b, rel_tol=1e-9):
    if len(a) != len(b):
        return False
    for ra, rb in zip(sorted(a, key=repr), sorted(b, key=repr)):
        for x, y in zip(ra, rb):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


@pytest.fixture(scope="module")
def wh():
    db = Database(buffer_pages=96, work_mem_pages=8)
    load_wholesale(db, WholesaleScale.tiny(), seed=13)
    return db


class TestStrategyAgreementOnWholesale:
    @pytest.mark.parametrize("name", sorted(WHOLESALE_QUERIES))
    def test_strategies_agree(self, wh, name):
        sql = WHOLESALE_QUERIES[name]
        reference = None
        for strategy in ("dp", "dp-bushy", "greedy", "syntactic", "random"):
            wh.options = PlannerOptions(strategy=strategy)
            rows = wh.query(sql).rows
            if reference is None:
                reference = rows
            else:
                assert rows_equal(rows, reference), strategy

    @pytest.mark.parametrize(
        "name", ["Q2_region_revenue", "Q6_five_way", "Q7_selective_point"]
    )
    def test_memory_configs_agree(self, name):
        sql = WHOLESALE_QUERIES[name]
        results = []
        for buffer_pages, work_mem in ((16, 4), (64, 8), (512, 64)):
            db = Database(buffer_pages=buffer_pages, work_mem_pages=work_mem)
            load_wholesale(db, WholesaleScale.tiny(), seed=13)
            results.append(db.query(sql).rows)
        assert rows_equal(results[0], results[1])
        assert rows_equal(results[1], results[2])


class TestInstrumentationConsistency:
    def test_actual_rows_match_result(self, wh):
        wh.options = PlannerOptions(strategy="dp")
        plan = wh.plan(WHOLESALE_QUERIES["Q3_top_customers"])
        result = wh.run_plan(plan, cold=True)
        assert plan.actual_rows == result.rowcount

    def test_cold_io_at_least_table_pages(self, wh):
        plan = wh.plan("SELECT COUNT(*) AS n FROM lineitem")
        result = wh.run_plan(plan, cold=True)
        assert result.io.reads >= wh.table("lineitem").num_pages

    def test_warm_run_cheaper_than_cold(self, wh):
        plan = wh.plan("SELECT COUNT(*) AS n FROM orders")
        cold = wh.run_plan(plan, cold=True)
        warm = wh.run_plan(plan, cold=False)
        assert warm.io.reads <= cold.io.reads

    def test_every_node_annotated(self, wh):
        plan = wh.plan(WHOLESALE_QUERIES["Q6_five_way"])
        for node in walk_plan(plan):
            assert node.est_cost is not None
            assert node.est_rows >= 0

    def test_explain_renders_all_nodes(self, wh):
        plan = wh.plan(WHOLESALE_QUERIES["Q6_five_way"])
        text = plan.pretty()
        assert text.count("\n") + 1 == sum(1 for _ in walk_plan(plan))


class TestMixedWorkload:
    def test_ddl_dml_query_cycle(self):
        db = Database(buffer_pages=64, work_mem_pages=8)
        db.execute("CREATE TABLE log (id INT PRIMARY KEY, level TEXT, ts INT)")
        for batch in range(5):
            values = ", ".join(
                f"({batch * 100 + i}, 'info', {batch})" for i in range(100)
            )
            db.execute(f"INSERT INTO log VALUES {values}")
        db.execute("ANALYZE log")
        assert db.query("SELECT COUNT(*) AS n FROM log").rows == [(500,)]
        r = db.query("SELECT id FROM log WHERE id BETWEEN 250 AND 259")
        assert len(r.rows) == 10
        db.execute("DROP TABLE log")
        assert not db.catalog.has_table("log")

    def test_deletes_reflected_through_sql(self):
        db = Database(buffer_pages=64)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.insert_rows("t", [(i, i * 2) for i in range(100)])
        info = db.table("t")
        # delete via storage layer, maintaining the index by hand
        pos = info.schema.index_of("id")
        doomed = [
            (rid, row) for rid, row in info.heap.scan() if row[pos] < 10
        ]
        for rid, row in doomed:
            info.heap.delete(rid)
            info.index_on("id").structure.delete(row[pos], rid)
        db.execute("ANALYZE t")
        assert db.query("SELECT COUNT(*) AS n FROM t").rows == [(90,)]
        assert db.query("SELECT v FROM t WHERE id = 5").rows == []
        assert db.query("SELECT v FROM t WHERE id = 50").rows == [(100,)]

    def test_growing_table_replans(self):
        db = Database(buffer_pages=128, work_mem_pages=8)
        db.execute("CREATE TABLE g (id INT PRIMARY KEY, v INT)")
        db.insert_rows("g", [(i, i) for i in range(50)])
        db.execute("ANALYZE g")
        small_plan = db.plan("SELECT COUNT(*) AS n FROM g WHERE id < 10")
        db.insert_rows("g", [(i, i) for i in range(50, 20050)])
        db.execute("ANALYZE g")
        big_plan = db.plan("SELECT COUNT(*) AS n FROM g WHERE id < 10")
        # the big table should pick an index path (clustered range scan, or
        # index-only when the key covers the query) for the narrow range
        assert "Index" in big_plan.pretty()
        assert db.query("SELECT COUNT(*) AS n FROM g WHERE id < 10").rows == [
            (10,)
        ]
        assert small_plan.total_est_cost() <= big_plan.total_est_cost() * 10


class TestBufferPolicyEndToEnd:
    @pytest.mark.parametrize("policy", ["lru", "clock", "mru", "fifo"])
    def test_policies_answer_identically(self, policy):
        from repro.bench import fresh_db
        from repro.storage import Replacement

        db = fresh_db(
            buffer_pages=8,
            work_mem_pages=4,
            replacement=Replacement(policy),
        )
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        db.insert_rows("t", [(i, float(i)) for i in range(2000)])
        db.execute("ANALYZE t")
        r = db.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
        assert r.rows[0][0] == 2000
        assert r.rows[0][1] == pytest.approx(sum(range(2000)))
