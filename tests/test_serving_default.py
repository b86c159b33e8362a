"""What a default ``Database`` serves with: the vectorized engine and
plans priced for it — while the paper harness keeps the paper's engine.

Also here: the two places the default can quietly stop being vectorized
become visible (``engine=rows`` in ``EXPLAIN ANALYZE``, one
``exec_row_fallbacks_total`` increment per converting operator).
"""

import math

import pytest

from repro import Database
from repro.bench import fresh_db
from repro.optimizer import PlannerOptions
from repro.physical import (
    PAggregate,
    PFilter,
    PHashJoin,
    PIndexNLJoin,
    PNestedLoopJoin,
    PProject,
    PSeqScan,
    PDistinct,
    PSort,
    PSortMergeJoin,
    walk_plan,
)
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale


class TestDefaults:
    def test_database_serves_vectorized_and_prices_for_it(self):
        db = Database()
        assert db.columnar is True
        assert db.model.vector_cpu_factor == 0.25

    def test_row_engine_is_still_selectable_and_undiscounted(self):
        db = Database(columnar=False)
        assert db.columnar is False
        assert db.model.vector_cpu_factor == 1.0

    def test_paper_harness_pins_the_papers_engine(self):
        db = fresh_db()
        assert db.columnar is False
        assert db.model.vector_cpu_factor == 1.0


def rows_match(got, want):
    """Multiset equality, floats to 1e-9 relative — the comparison
    ``benchmarks/e2e`` makes against its oracle (the two engines may pick
    different plans and so sum in different orders)."""

    def key(row):
        return tuple(repr(v) for v in row if not isinstance(v, float))

    if len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=key), sorted(want, key=key)):
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


@pytest.fixture(scope="module", params=["tiny", "small"])
def engines(request):
    """(default, paper-engine) databases over the same wholesale data."""
    scale = getattr(WholesaleScale, request.param)()
    pair = []
    for kwargs in ({}, {"columnar": False}):
        db = Database(buffer_pages=256, work_mem_pages=32, **kwargs)
        load_wholesale(db, scale, seed=13)
        pair.append(db)
    return pair


@pytest.mark.parametrize("name", sorted(WHOLESALE_QUERIES))
def test_wholesale_answers_do_not_depend_on_the_engine(engines, name):
    default, paper = engines
    sql = WHOLESALE_QUERIES[name]
    assert rows_match(default.query(sql).rows, paper.query(sql).rows)


# -- row fallbacks are visible --------------------------------------------------

#: plan nodes docs/EXECUTION.md lists as converting at their boundary
CONVERTING = (
    PSort,
    PDistinct,
    PNestedLoopJoin,
    PIndexNLJoin,
    PSortMergeJoin,
)


def test_wholesale_marks_only_operators_that_convert(engines):
    default, _ = engines
    for name in sorted(WHOLESALE_QUERIES):
        before = default.metrics.counter("exec_row_fallbacks_total").value
        result = default.execute(
            "EXPLAIN ANALYZE " + WHOLESALE_QUERIES[name]
        )
        # every hash join below is the in-memory one (Grace converts)
        assert result.exec_metrics.spills == 0, name
        marked = [
            node
            for node in walk_plan(result.plan)
            if node.actual_row_fallback
        ]
        for node in marked:
            assert isinstance(node, CONVERTING), (name, node.describe())
        for node in walk_plan(result.plan):
            if isinstance(
                node, (PSeqScan, PFilter, PProject, PHashJoin, PAggregate)
            ):
                assert not node.actual_row_fallback, (name, node.describe())
        text = "\n".join(row[0] for row in result.rows)
        assert text.count("engine=rows") == len(marked), name
        after = default.metrics.counter("exec_row_fallbacks_total").value
        assert after - before == len(marked), name


def test_index_nested_loop_join_is_not_marked(engines):
    # Q4 probes lineitem once per supplier row and matches hundreds of
    # RIDs per outer batch: the join gathers them by page and emits a
    # ColumnBatch, so it converted nothing and counts no row fallback
    default, _ = engines
    before = default.metrics.counter("exec_row_fallbacks_total").value
    result = default.execute(
        "EXPLAIN ANALYZE " + WHOLESALE_QUERIES["Q4_line_revenue"]
    )
    nodes = list(walk_plan(result.plan))
    joins = [node for node in nodes if isinstance(node, PIndexNLJoin)]
    assert joins and not any(node.actual_row_fallback for node in joins)
    marked = sum(node.actual_row_fallback for node in nodes)
    after = default.metrics.counter("exec_row_fallbacks_total").value
    assert after - before == marked
    join_line = next(
        row[0] for row in result.rows if "IndexNLJoin" in row[0]
    )
    assert "engine=rows" not in join_line


def test_paper_engine_never_marks(engines):
    _, paper = engines
    for name in sorted(WHOLESALE_QUERIES):
        result = paper.execute("EXPLAIN ANALYZE " + WHOLESALE_QUERIES[name])
        assert "engine=rows" not in "\n".join(r[0] for r in result.rows)
    assert paper.metrics.counter("exec_row_fallbacks_total").value == 0


def test_filter_without_a_kernel_is_marked_and_counted_once():
    # pushdown off (E9's ablation) keeps the predicate in a Filter above
    # the scan, where it is handed ColumnBatches and stays columnar; the
    # DISTINCT above it has no columnar path and turns them into rows
    db = Database(options=PlannerOptions(pushdown=False))
    db.execute("CREATE TABLE a (x INT, y INT)")
    # several batches' worth, so "once" is not "once per batch"
    db.insert_rows("a", [(i, i % 5) for i in range(5000)])
    db.execute("ANALYZE a")
    sql = "SELECT x FROM a WHERE y > 2"
    counter = db.metrics.counter("exec_row_fallbacks_total")

    def marks(statement):
        result = db.execute("EXPLAIN ANALYZE " + statement)
        text = "\n".join(row[0] for row in result.rows)
        nodes = list(walk_plan(result.plan))
        assert any(isinstance(node, PFilter) for node in nodes)
        marked = [type(node) for node in nodes if node.actual_row_fallback]
        return marked, text.count("engine=rows")

    assert marks(sql) == ([], 0)
    assert counter.value == 0

    distinct = sql.replace("SELECT", "SELECT DISTINCT")
    assert marks(distinct) == ([PDistinct], 1)
    assert counter.value == 1
    assert marks(distinct) == ([PDistinct], 1)
    assert counter.value == 2
    assert sorted(db.query(distinct).rows) == [
        (i,) for i in range(5000) if i % 5 > 2
    ]
