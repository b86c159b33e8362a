"""Tests for executor internals: sort keys, exec context, spill plumbing,
physical plan rendering."""

import pytest

from repro.executor import ExecContext, cmp_values, make_key_fn, sorted_rows
from repro.physical import PSeqScan, RangeBound
from repro.storage import BufferPool, DiskError, DiskManager
from repro.types import DataType, schema_of


def make_ctx(work_mem=4, page_size=512, pool_pages=64):
    disk = DiskManager(page_size)
    pool = BufferPool(disk, pool_pages)
    return disk, ExecContext(pool, work_mem)


class TestSortUtil:
    def test_cmp_values_nulls_first(self):
        assert cmp_values(None, 1) == -1
        assert cmp_values(1, None) == 1
        assert cmp_values(None, None) == 0
        assert cmp_values(1, 2) == -1
        assert cmp_values("b", "a") == 1

    def test_sort_key_total_order(self):
        ev = [lambda r: r[0], lambda r: r[1]]
        key = make_key_fn(ev, [True, False])
        a = key((1, 5))
        b = key((1, 9))
        assert b < a  # second key descending
        assert not (a < a)
        assert a == key((1, 5))

    def test_sorted_rows_mixed_directions(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (None, "z")]
        out = sorted_rows(
            rows,
            [lambda r: r[0], lambda r: r[1]],
            [True, True],
        )
        assert out == [(None, "z"), (1, "a"), (1, "b"), (2, "a")]

    def test_descending_puts_nulls_last(self):
        rows = [(1,), (None,), (3,)]
        out = sorted_rows(rows, [lambda r: r[0]], [False])
        assert out == [(3,), (1,), (None,)]


class TestExecContext:
    def test_work_mem_validation(self):
        disk = DiskManager(512)
        pool = BufferPool(disk, 8)
        with pytest.raises(ValueError):
            ExecContext(pool, work_mem_pages=2)

    def test_rows_fit_in_memory(self):
        _, ctx = make_ctx(work_mem=4, page_size=512)
        schema = schema_of("t", ("a", DataType.INT))
        assert ctx.max_rows_in_memory(schema) >= 10
        assert ctx.max_rows_in_memory(schema) < 10**6

    def test_max_rows_positive(self):
        _, ctx = make_ctx()
        schema = schema_of("t", ("a", DataType.TEXT))
        assert ctx.max_rows_in_memory(schema) >= 1
        assert ctx.max_rows_in_memory(schema, pages=1) >= 1

    def test_spill_roundtrip(self):
        _, ctx = make_ctx()
        schema = schema_of("t", ("a", DataType.INT), ("b", DataType.TEXT))
        rows = [(i, f"r{i}") for i in range(50)]
        temp = ctx.create_temp(schema)
        for row in rows:
            temp.insert(row)
        assert list(temp.scan_rows()) == rows
        ctx.drop_temp(temp)

    def test_cleanup_drops_all_temps(self):
        disk, ctx = make_ctx()
        schema = schema_of("t", ("a", DataType.INT))
        temps = [ctx.create_temp(schema) for _ in range(3)]
        ctx.cleanup()
        for temp in temps:
            with pytest.raises(DiskError):
                disk.num_pages(temp.file_id)
        ctx.cleanup()  # idempotent

    def test_temp_files_counted(self):
        _, ctx = make_ctx()
        schema = schema_of("t", ("a", DataType.INT))
        ctx.create_temp(schema)
        ctx.create_temp(schema)
        assert ctx.metrics.temp_files == 2


class TestPhysicalRendering:
    def make_scan(self):
        from repro.catalog import Catalog

        disk = DiskManager()
        cat = Catalog(BufferPool(disk, 16))
        info = cat.create_table(
            "t", schema_of("t", ("a", DataType.INT))
        )
        return PSeqScan(info, "t")

    def test_pretty_without_annotations(self):
        scan = self.make_scan()
        text = scan.pretty()
        assert "SeqScan" in text and "rows≈0" in text

    def test_pretty_with_actuals(self):
        scan = self.make_scan()
        scan.actual_rows = 42
        scan.actual_loops = 1
        text = scan.pretty(actuals=True)
        assert "rows=42" in text and "loops=1" in text

    def test_pretty_with_full_actuals(self):
        scan = self.make_scan()
        scan.actual_rows = 7
        scan.actual_loops = 2
        scan.actual_time_ms = 1.25
        scan.actual_hits = 3
        scan.actual_reads = 4
        scan.actual_writes = 0
        scan.est_rows = 14.0
        text = scan.pretty(actuals=True)
        assert "actual time=1.250ms" in text
        assert "hits=3" in text and "reads=4" in text
        assert "writes=" not in text  # zero writes stay quiet
        assert "q-err=2.00" in text

    def test_range_bound_repr(self):
        assert str(RangeBound.open()) == "*"
        assert "5" in str(RangeBound.at(5, True))
        bound = RangeBound.at(5, False)
        assert not bound.inclusive and not bound.unbounded

    def test_total_est_cost_default(self):
        scan = self.make_scan()
        assert scan.total_est_cost() == 0.0


class TestExecMetricsCounters:
    """The executor's operator counters under deliberately tiny work_mem."""

    @pytest.fixture
    def db(self):
        from repro import Database

        db = Database(buffer_pages=64, work_mem_pages=3, page_size=512)
        db.execute("CREATE TABLE big (a INT, b INT)")
        db.insert_rows("big", [(i, (i * 37) % 101) for i in range(500)])
        db.execute("CREATE TABLE small (k INT, v INT)")
        db.insert_rows("small", [(i, i % 5) for i in range(40)])
        db.execute("ANALYZE")
        return db

    def test_external_sort_spills_and_compares(self, db):
        from repro.expr import col
        from repro.physical import PSort

        info = db.table("big")
        plan = PSort(PSeqScan(info, "big"), ((col("big.b"), True),))
        result = db.run_plan(plan)
        values = [row[1] for row in result.rows]
        assert values == sorted(values)
        m = result.exec_metrics
        assert m.spills > 0
        assert m.temp_files >= m.spills  # run files + merge passes

    def test_hash_join_grace_path_counters(self, db):
        from repro.expr import col
        from repro.physical import PHashJoin

        info = db.table("big")
        plan = PHashJoin(
            PSeqScan(info, "l"),
            PSeqScan(info, "r"),
            col("l.a"),
            col("r.a"),
        )
        result = db.run_plan(plan)
        assert result.rowcount == 500  # self-join on the unique column
        m = result.exec_metrics
        assert m.spills > 0  # build side cannot fit in 3 pages
        assert m.temp_files > 0  # Grace partitions
        assert m.hash_probes >= 500  # one probe per left row

    def test_hash_join_in_memory_probes_only(self, db):
        from repro.expr import col
        from repro.physical import PHashJoin

        info = db.table("small")
        plan = PHashJoin(
            PSeqScan(info, "l"),
            PSeqScan(info, "r"),
            col("l.k"),
            col("r.k"),
        )
        result = db.run_plan(plan)
        assert result.rowcount == 40
        m = result.exec_metrics
        assert m.hash_probes == 40
        assert m.spills == 0

    def test_block_nested_loop_comparisons(self, db):
        from repro.expr import col, eq
        from repro.physical import PNestedLoopJoin

        info = db.table("small")
        plan = PNestedLoopJoin(
            PSeqScan(info, "l"),
            PSeqScan(info, "r"),
            eq(col("l.k"), col("r.k")),
            block_pages=2,
        )
        result = db.run_plan(plan)
        assert result.rowcount == 40
        # every (outer, inner) pair is compared exactly once
        assert result.exec_metrics.comparisons == 40 * 40
