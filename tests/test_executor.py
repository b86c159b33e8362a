"""Tests for the execution engine: every physical operator against a
brute-force Python reference, including spill paths."""

import random

import pytest

from repro.engine import Database
from repro.executor import ExecContext, run
from repro.expr import AggCall, AggFunc, col, eq, gt, lit
from repro.physical import (
    PAggregate,
    PDistinct,
    PFilter,
    PHashJoin,
    PIndexNLJoin,
    PIndexOnlyScan,
    PIndexScan,
    PLimit,
    PNestedLoopJoin,
    PProject,
    PSeqScan,
    PSort,
    PSortMergeJoin,
    RangeBound,
)
from repro.types import DataType


@pytest.fixture(scope="module")
def env():
    db = Database(buffer_pages=64, work_mem_pages=4)
    db.execute("CREATE TABLE t (id INT, grp INT, val FLOAT)")
    rng = random.Random(9)
    t_rows = [(i, i % 13, rng.random() * 100) for i in range(3000)]
    db.insert_rows("t", t_rows)
    db.execute("CREATE INDEX ix_t_id ON t (id)")
    db.execute("CREATE TABLE u (id INT, tag TEXT)")
    u_rows = [(i, f"tag{i % 5}") for i in range(0, 3000, 3)]
    db.insert_rows("u", u_rows)
    db.execute("CREATE INDEX ix_u_id ON u (id)")
    db.analyze()
    return db, t_rows, u_rows


def execute(db, plan):
    ctx = ExecContext(db.pool, db.work_mem_pages)
    return run(plan, ctx), ctx


class TestScans:
    def test_seq_scan_all(self, env):
        db, t_rows, _ = env
        rows, _ = execute(db, PSeqScan(db.table("t"), "t"))
        assert rows == t_rows

    def test_seq_scan_with_predicate(self, env):
        db, t_rows, _ = env
        plan = PSeqScan(db.table("t"), "t", gt(col("t.val"), lit(50.0)))
        rows, _ = execute(db, plan)
        assert rows == [r for r in t_rows if r[2] > 50.0]

    def test_index_scan_range(self, env):
        db, t_rows, _ = env
        plan = PIndexScan(
            db.table("t"), "t", db.table("t").index_on("id"),
            RangeBound.at(100, True), RangeBound.at(110, False),
        )
        rows, _ = execute(db, plan)
        assert [r[0] for r in rows] == list(range(100, 110))

    def test_index_scan_residual(self, env):
        db, t_rows, _ = env
        plan = PIndexScan(
            db.table("t"), "t", db.table("t").index_on("id"),
            RangeBound.at(0, True), RangeBound.at(99, True),
            residual=eq(col("t.grp"), lit(0)),
        )
        rows, _ = execute(db, plan)
        assert all(r[1] == 0 for r in rows)
        assert len(rows) == len([r for r in t_rows[:100] if r[1] == 0])

    def test_index_scan_sorted_output(self, env):
        db, _, _ = env
        plan = PIndexScan(
            db.table("t"), "t", db.table("t").index_on("id"),
            RangeBound.open(), RangeBound.open(),
        )
        rows, _ = execute(db, plan)
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)

    def test_index_only_scan(self, env):
        db, _, _ = env
        plan = PIndexOnlyScan(
            db.table("t"), "t", db.table("t").index_on("id"),
            RangeBound.at(5, True), RangeBound.at(9, True),
        )
        rows, _ = execute(db, plan)
        assert rows == [(5,), (6,), (7,), (8,), (9,)]


class TestRowOperators:
    def test_filter(self, env):
        db, t_rows, _ = env
        plan = PFilter(PSeqScan(db.table("t"), "t"), eq(col("t.grp"), lit(3)))
        rows, _ = execute(db, plan)
        assert rows == [r for r in t_rows if r[1] == 3]

    def test_project_expressions(self, env):
        db, t_rows, _ = env
        from repro.expr import Arithmetic, ArithOp

        plan = PProject(
            PSeqScan(db.table("t"), "t"),
            (Arithmetic(ArithOp.MUL, col("t.val"), lit(2.0)),),
            ("doubled",),
            (DataType.FLOAT,),
        )
        rows, _ = execute(db, plan)
        assert rows[0][0] == pytest.approx(t_rows[0][2] * 2)

    def test_limit(self, env):
        db, t_rows, _ = env
        plan = PLimit(PSeqScan(db.table("t"), "t"), 7)
        rows, _ = execute(db, plan)
        assert rows == t_rows[:7]

    def test_limit_zero(self, env):
        db, _, _ = env
        rows, _ = execute(db, PLimit(PSeqScan(db.table("t"), "t"), 0))
        assert rows == []

    def test_distinct(self, env):
        db, t_rows, _ = env
        plan = PDistinct(
            PProject(
                PSeqScan(db.table("t"), "t"),
                (col("t.grp"),),
                ("grp",),
                (DataType.INT,),
            )
        )
        rows, _ = execute(db, plan)
        assert sorted(r[0] for r in rows) == sorted(set(r[1] for r in t_rows))


def brute_force_join(t_rows, u_rows):
    return sorted(
        t + u for t in t_rows for u in u_rows if t[0] == u[0]
    )


class TestJoins:
    def expected(self, env):
        _, t_rows, u_rows = env
        return brute_force_join(t_rows, u_rows)

    def test_hash_join(self, env):
        db, *_ = env
        plan = PHashJoin(
            PSeqScan(db.table("t"), "t"), PSeqScan(db.table("u"), "u"),
            col("t.id"), col("u.id"),
        )
        rows, ctx = execute(db, plan)
        assert sorted(rows) == self.expected(env)
        # build side (1000 rows) exceeds 4-page work memory: Grace spill
        assert ctx.metrics.spills > 0

    def test_hash_join_in_memory(self, env):
        db, *_ = env
        plan = PHashJoin(
            PSeqScan(db.table("t"), "t"), PSeqScan(db.table("u"), "u"),
            col("t.id"), col("u.id"),
        )
        ctx = ExecContext(db.pool, work_mem_pages=64)
        rows = run(plan, ctx)
        assert sorted(rows) == self.expected(env)
        assert ctx.metrics.spills == 0

    def test_sort_merge_join(self, env):
        db, *_ = env
        plan = PSortMergeJoin(
            PSort(PSeqScan(db.table("t"), "t"), ((col("t.id"), True),)),
            PSort(PSeqScan(db.table("u"), "u"), ((col("u.id"), True),)),
            col("t.id"), col("u.id"),
        )
        rows, _ = execute(db, plan)
        assert sorted(rows) == self.expected(env)

    def test_merge_join_duplicates(self, env):
        db, t_rows, _ = env
        # join t to itself on grp: many-to-many duplicate keys
        small_t = PLimit(PSeqScan(db.table("t"), "t"), 100)
        right = PSort(
            PProject(
                PLimit(PSeqScan(db.table("t").__class__ and db.table("t"), "t2"), 100),
                (col("t2.grp"),),
                ("g2",),
                (DataType.INT,),
            ),
            ((col("g2"), True),),
        )
        left = PSort(small_t, ((col("t.grp"), True),))
        plan = PSortMergeJoin(left, right, col("t.grp"), col("g2"))
        rows, _ = execute(db, plan)
        subset = t_rows[:100]
        expected = sorted(
            a + (b[1],) for a in subset for b in subset if a[1] == b[1]
        )
        assert sorted(rows) == expected

    def test_block_nested_loop(self, env):
        db, *_ = env
        plan = PNestedLoopJoin(
            PSeqScan(db.table("t"), "t"), PSeqScan(db.table("u"), "u"),
            eq(col("t.id"), col("u.id")), block_pages=2,
        )
        rows, _ = execute(db, plan)
        assert sorted(rows) == self.expected(env)

    def test_cross_join(self, env):
        db, t_rows, u_rows = env
        plan = PNestedLoopJoin(
            PLimit(PSeqScan(db.table("t"), "t"), 20),
            PLimit(PSeqScan(db.table("u"), "u"), 30),
            None,
        )
        rows, _ = execute(db, plan)
        assert len(rows) == 600

    def test_index_nl_join(self, env):
        db, *_ = env
        plan = PIndexNLJoin(
            PSeqScan(db.table("u"), "u"),
            db.table("t"), "t", db.table("t").index_on("id"),
            col("u.id"),
        )
        rows, _ = execute(db, plan)
        _, t_rows, u_rows = env
        expected = sorted(
            u + t for u in u_rows for t in t_rows if u[0] == t[0]
        )
        assert sorted(rows) == expected

    def test_null_keys_never_match(self, env):
        db, *_ = env
        cat = db.catalog
        cat.create_table(
            "nl", __import__("repro.types", fromlist=["schema_of"]).schema_of(
                "nl", ("k", DataType.INT)
            )
        )
        cat.insert_rows("nl", [(None,), (1,), (None,), (2,)])
        scan = PSeqScan(db.table("nl"), "nl")
        scan2 = PSeqScan(db.table("nl"), "nl2")
        for plan in (
            PHashJoin(scan, scan2, col("nl.k"), col("nl2.k")),
            PSortMergeJoin(
                PSort(scan, ((col("nl.k"), True),)),
                PSort(scan2, ((col("nl2.k"), True),)),
                col("nl.k"), col("nl2.k"),
            ),
        ):
            rows, _ = execute(db, plan)
            assert sorted(rows) == [(1, 1), (2, 2)]
        cat.drop_table("nl")


class TestSort:
    def test_in_memory_sort(self, env):
        db, _, u_rows = env
        plan = PSort(PSeqScan(db.table("u"), "u"), ((col("u.tag"), True), (col("u.id"), False)))
        ctx = ExecContext(db.pool, work_mem_pages=64)
        rows = run(plan, ctx)
        assert rows == sorted(u_rows, key=lambda r: (r[1], -r[0]))
        assert ctx.metrics.spills == 0

    def test_external_sort_spills(self, env):
        db, t_rows, _ = env
        plan = PSort(PSeqScan(db.table("t"), "t"), ((col("t.val"), True),))
        rows, ctx = execute(db, plan)  # 4-page work memory
        assert ctx.metrics.spills > 0
        assert [r[2] for r in rows] == sorted(r[2] for r in t_rows)

    def test_external_equals_in_memory(self, env):
        db, *_ = env
        plan = PSort(PSeqScan(db.table("t"), "t"), ((col("t.val"), False),))
        small_ctx = ExecContext(db.pool, 4)
        big_ctx = ExecContext(db.pool, 256)
        assert run(plan, small_ctx) == run(plan, big_ctx)

    def test_nulls_sort_first_asc(self, env):
        db, *_ = env
        cat = db.catalog
        from repro.types import schema_of

        cat.create_table("ns", schema_of("ns", ("x", DataType.INT)))
        cat.insert_rows("ns", [(3,), (None,), (1,)])
        plan = PSort(PSeqScan(db.table("ns"), "ns"), ((col("ns.x"), True),))
        rows, _ = execute(db, plan)
        assert rows == [(None,), (1,), (3,)]
        plan = PSort(PSeqScan(db.table("ns"), "ns"), ((col("ns.x"), False),))
        rows, _ = execute(db, plan)
        assert rows == [(3,), (1,), (None,)]
        cat.drop_table("ns")


class TestAggregation:
    def agg_schema(self, db, group_cols, aggs):
        from repro.algebra import LogicalAggregate, LogicalGet

        lagg = LogicalAggregate(
            LogicalGet(db.table("t"), "t"),
            tuple(col(c) for c in group_cols),
            tuple(c.split(".")[-1] for c in group_cols),
            aggs,
        )
        return lagg.schema

    def test_hash_aggregate(self, env):
        db, t_rows, _ = env
        aggs = (
            AggCall(AggFunc.COUNT, None),
            AggCall(AggFunc.SUM, col("t.val")),
            AggCall(AggFunc.MIN, col("t.id")),
            AggCall(AggFunc.MAX, col("t.id")),
            AggCall(AggFunc.AVG, col("t.val")),
        )
        plan = PAggregate(
            PSeqScan(db.table("t"), "t"), (col("t.grp"),), ("grp",),
            aggs, self.agg_schema(db, ["t.grp"], aggs),
        )
        rows, _ = execute(db, plan)
        by_grp = {}
        for r in t_rows:
            by_grp.setdefault(r[1], []).append(r)
        assert len(rows) == len(by_grp)
        for grp, count, total, mn, mx, avg in rows:
            ref = by_grp[grp]
            assert count == len(ref)
            assert total == pytest.approx(sum(r[2] for r in ref))
            assert mn == min(r[0] for r in ref)
            assert mx == max(r[0] for r in ref)
            assert avg == pytest.approx(total / count)

    def test_global_aggregate(self, env):
        db, t_rows, _ = env
        aggs = (AggCall(AggFunc.COUNT, None),)
        plan = PAggregate(
            PSeqScan(db.table("t"), "t"), (), (), aggs,
            self.agg_schema(db, [], aggs),
        )
        rows, _ = execute(db, plan)
        assert rows == [(len(t_rows),)]

    def test_streaming_equals_hash(self, env):
        db, *_ = env
        aggs = (AggCall(AggFunc.COUNT, None), AggCall(AggFunc.SUM, col("t.val")))
        schema = self.agg_schema(db, ["t.grp"], aggs)
        sorted_scan = PSort(
            PSeqScan(db.table("t"), "t"), ((col("t.grp"), True),)
        )
        stream = PAggregate(
            sorted_scan, (col("t.grp"),), ("grp",), aggs, schema,
            streaming=True,
        )
        hashp = PAggregate(
            PSeqScan(db.table("t"), "t"), (col("t.grp"),), ("grp",),
            aggs, schema,
        )
        srows, _ = execute(db, stream)
        hrows, _ = execute(db, hashp)
        assert sorted(srows) == sorted(
            (g, c, pytest.approx(s)) for g, c, s in hrows
        )

    def test_count_distinct(self, env):
        db, t_rows, _ = env
        aggs = (AggCall(AggFunc.COUNT, col("t.grp"), distinct=True),)
        plan = PAggregate(
            PSeqScan(db.table("t"), "t"), (), (), aggs,
            self.agg_schema(db, [], aggs),
        )
        rows, _ = execute(db, plan)
        assert rows == [(len({r[1] for r in t_rows}),)]

    def test_aggregates_ignore_nulls(self, env):
        db, *_ = env
        from repro.types import schema_of
        from repro.algebra import LogicalAggregate, LogicalGet

        db.catalog.create_table("an", schema_of("an", ("x", DataType.INT)))
        db.catalog.insert_rows("an", [(1,), (None,), (3,)])
        aggs = (
            AggCall(AggFunc.COUNT, col("an.x")),
            AggCall(AggFunc.SUM, col("an.x")),
            AggCall(AggFunc.AVG, col("an.x")),
        )
        lagg = LogicalAggregate(
            LogicalGet(db.table("an"), "an"), (), (), aggs
        )
        plan = PAggregate(
            PSeqScan(db.table("an"), "an"), (), (), aggs, lagg.schema
        )
        rows, _ = execute(db, plan)
        assert rows == [(2, 4, 2.0)]
        db.catalog.drop_table("an")
