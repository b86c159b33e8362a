"""The index nested-loop join, row engine against serving engine.

The row engine fetches one heap row per match, interleaved with the
index probes; the serving engine probes a whole outer batch, then gathers
the matched RIDs by page into a ColumnBatch (``GATHER_MIN_RIDS`` or more
of them, else RID by RID as the row engine does).  Same plan in, same
rows in the same order out, same ``hash_probes``, same actual row count
on every node — at every batch size, and under a snapshot.
"""

import pytest

from repro import Database
from repro.executor import ExecContext, run
from repro.executor.joins import GATHER_MIN_RIDS
from repro.expr import col, eq, gt, lit
from repro.physical import (
    PIndexNLJoin,
    PLimit,
    PSeqScan,
    walk_plan,
)
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale

BATCH_SIZES = [1, 64, 1024]

#: inner rows: ten per key over 300 keys
INNER = [(i, i % 300, i % 7, i / 4, f"s{i}") for i in range(3000)]
#: outer rows: NULL keys among them, keys with no match (>= 300) too
OUTER = [(None, "null0")] + [(k, f"t{k}") for k in range(0, 400, 3)] + [
    (None, "null1"),
    (5, "again"),
]


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE inn (id INT, k INT, g INT, v FLOAT, s TEXT)")
    db.insert_rows("inn", INNER)
    db.execute("CREATE INDEX ix_k ON inn (k)")
    # the same rows behind a composite index (one index per leading column)
    db.execute("CREATE TABLE inn2 (id INT, k INT, g INT, v FLOAT, s TEXT)")
    db.insert_rows("inn2", INNER)
    db.execute("CREATE INDEX ix_kg ON inn2 (k, g)")
    db.execute("CREATE TABLE out (k INT, tag TEXT)")
    db.insert_rows("out", OUTER)
    # an inner table whose rows carry NULLs: gathered like any other
    db.execute("CREATE TABLE holes (k INT, v INT)")
    db.insert_rows(
        "holes", [(i % 50, None if i % 9 == 0 else i) for i in range(1500)]
    )
    db.execute("CREATE INDEX ix_holes ON holes (k)")
    db.analyze()
    return db


def execute(db, plan, columnar, batch_size=1024, snapshot=None):
    ctx = ExecContext(
        db.pool,
        db.work_mem_pages,
        batch_size=batch_size,
        columnar=columnar,
        snapshot=snapshot,
    )
    rows = run(plan, ctx)
    actuals = [
        (type(node).__name__, node.actual_rows) for node in walk_plan(plan)
    ]
    marked = [node.actual_row_fallback for node in walk_plan(plan)]
    return rows, ctx.metrics, actuals, marked


def assert_engines_agree(db, plan, batch_sizes=BATCH_SIZES):
    """Both engines at every batch size: identical rows, probes and
    per-node actual rows; returns the row engine's rows."""
    for batch_size in batch_sizes:
        want, row_metrics, row_actuals, row_marked = execute(
            db, plan, False, batch_size
        )
        got, col_metrics, col_actuals, _ = execute(db, plan, True, batch_size)
        assert got == want, batch_size
        assert col_metrics.hash_probes == row_metrics.hash_probes, batch_size
        assert col_actuals == row_actuals, batch_size
        assert not any(row_marked)
    return want


def join(db, table="inn", outer=None, residual=None):
    """``out`` (or *outer*) joined to *table* through its index on k."""
    info = db.table(table)
    return PIndexNLJoin(
        outer if outer is not None else PSeqScan(db.table("out"), "o"),
        info,
        "i",
        info.indexes["k"],
        col("o.k"),
        residual,
    )


def expected(residual=lambda o, i: True):
    return sorted(
        o + i
        for o in OUTER
        for i in INNER
        if o[0] is not None and o[0] == i[1] and residual(o, i)
    )


def test_null_outer_keys_are_skipped_and_probes_counted_alike(db):
    plan = join(db)
    rows = assert_engines_agree(db, plan)
    assert sorted(rows) == expected()
    _, metrics, _, marked = execute(db, plan, True)
    assert metrics.hash_probes == sum(k is not None for k, _ in OUTER)
    # 1,010 RIDs from one outer batch: gathered, nothing turned into rows
    assert marked == [False, False]


def test_composite_index_is_probed_by_its_leading_component(db):
    plan = join(db, "inn2")
    assert plan.index.is_composite
    rows = assert_engines_agree(db, plan)
    assert sorted(rows) == expected()


def test_residual_with_a_kernel(db):
    residual = gt(col("i.v"), lit(300.0))
    plan = join(db, residual=residual)
    rows = assert_engines_agree(db, plan)
    assert sorted(rows) == expected(lambda o, i: i[3] > 300.0)
    assert execute(db, plan, True)[3] == [False, False]


@pytest.mark.parametrize("count", [1, 5, 64, 700, 5000])
def test_limit_above_the_join_sees_the_same_actual_rows(db, count):
    plan = PLimit(join(db), count)
    rows = assert_engines_agree(db, plan)
    assert len(rows) == min(count, len(expected()))


def test_a_probe_stream_under_the_crossover_is_fetched_per_rid(db):
    # one outer row, ten matches: the per-RID loop, which turns the
    # outer ColumnBatch into rows and is marked for it
    assert 10 < GATHER_MIN_RIDS
    outer = PSeqScan(db.table("out"), "o", eq(col("o.tag"), lit("t12")))
    plan = join(db, outer=outer)
    rows = assert_engines_agree(db, plan)
    assert rows == [(12, "t12") + i for i in INNER if i[1] == 12]
    assert execute(db, plan, True)[3] == [True, False]
    # ... per outer batch: at batch size 1 every batch is under it
    assert execute(db, join(db), True, batch_size=1)[3][0] is True


def test_inner_rows_with_nulls_are_gathered(db):
    plan = join(db, "holes")
    rows = assert_engines_agree(db, plan)
    assert len(rows) > GATHER_MIN_RIDS
    assert any(row[-1] is None for row in rows)
    assert execute(db, plan, True)[3] == [False, False]


def test_wholesale_q7_under_and_q4_over_the_crossover():
    pair = []
    for columnar in (True, False):
        engine = Database(buffer_pages=256, work_mem_pages=32, columnar=columnar)
        # one cost model, so both sides run the same plan
        engine.model.vector_cpu_factor = 1.0
        load_wholesale(engine, WholesaleScale.tiny(), seed=13)
        pair.append(engine)
    serving, paper = pair
    for name, gathered in (("Q7_selective_point", False), ("Q4_line_revenue", True)):
        sql = WHOLESALE_QUERIES[name]
        got, want = serving.query(sql), paper.query(sql)
        assert got.rows == want.rows, name
        assert got.exec_metrics.hash_probes == want.exec_metrics.hash_probes
        joins_ = [
            node for node in walk_plan(got.plan) if isinstance(node, PIndexNLJoin)
        ]
        assert joins_, name
        for node in joins_:
            assert (node.actual_rows >= GATHER_MIN_RIDS) is gathered, name
            assert not node.actual_row_fallback, name


def test_snapshot_overlay_on_the_inner_table_keeps_the_row_loop():
    db = Database(buffer_pages=64)
    db.execute("CREATE TABLE inn (id INT PRIMARY KEY, k INT, s TEXT)")
    inner = [(i, i % 20, f"s{i}") for i in range(400)]
    db.insert_rows("inn", inner)
    db.execute("CREATE INDEX ix_k ON inn (k)")
    db.execute("CREATE TABLE out (k INT, tag TEXT)")
    outer = [(k, f"t{k}") for k in range(25)]
    db.insert_rows("out", outer)
    db.analyze()
    reader, committer, open_writer = (db.create_session() for _ in range(3))
    reader.execute("BEGIN")
    reader.query("SELECT COUNT(*) FROM inn")  # pins the snapshot
    # committed after the snapshot was taken ...
    committer.execute("UPDATE inn SET k = 21, s = 'moved' WHERE id < 40")
    committer.execute("DELETE FROM inn WHERE id >= 380")
    committer.execute("INSERT INTO inn VALUES (1000, 3, 'late')")
    # ... and not committed at all
    open_writer.execute("BEGIN")
    open_writer.execute("UPDATE inn SET s = 'dirty' WHERE k = 7")
    open_writer.execute("DELETE FROM inn WHERE k = 8")

    info = db.table("inn")
    plan = PIndexNLJoin(
        PSeqScan(db.table("out"), "o"), info, "i", info.indexes["k"],
        col("o.k"),
    )
    snapshot = reader.txn.snapshot
    assert snapshot.scan_overlay(info) is not None
    want = sorted(o + i for o in outer for i in inner if o[0] == i[1])
    for batch_size in BATCH_SIZES:
        rows, _, row_actuals, _ = execute(db, plan, False, batch_size, snapshot)
        got, _, col_actuals, marked = execute(db, plan, True, batch_size, snapshot)
        assert got == rows
        assert sorted(got) == want
        assert col_actuals == row_actuals
        assert marked[0] is True  # the row loop, not the gather
    open_writer.execute("ROLLBACK")
    reader.execute("COMMIT")


@pytest.mark.parametrize("columnar", [True, False])
def test_sys_stat_tables_sees_the_inner_side_of_the_join(columnar):
    db = Database(columnar=columnar)
    load_wholesale(db, WholesaleScale.tiny())
    before = db.table("lineitem").access.snapshot()
    result = db.execute("EXPLAIN ANALYZE " + WHOLESALE_QUERIES["Q4_line_revenue"])
    (node,) = [n for n in walk_plan(result.plan) if isinstance(n, PIndexNLJoin)]
    assert node.table.name == "lineitem"
    seq, idx, rows_read, hits, reads = db.table("lineitem").access.delta(before)
    assert (seq, idx) == (0, 1)
    assert rows_read == node.actual_rows > GATHER_MIN_RIDS
    child = node.left
    assert hits + reads == (node.actual_hits + node.actual_reads) - (
        child.actual_hits + child.actual_reads
    )
    stat = {
        row[0]: row
        for row in db.query("SELECT * FROM sys_stat_tables").rows
    }
    assert stat["lineitem"][4:8] == (1, rows_read, hits, reads)
