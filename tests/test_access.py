"""Tests for access-path selection."""

import random

import pytest

from repro.algebra import LogicalGet, JoinGraph
from repro.engine import Database
from repro.expr import CmpOp, Comparison, col, eq, gt, lit, lt
from repro.optimizer import (
    Estimator,
    StatsResolver,
    access_paths,
    extract_bounds,
)
from repro.physical import PIndexOnlyScan, PIndexScan, PSeqScan


class TestExtractBounds:
    NAMES = {"x", "t.x"}

    def test_equality(self):
        bounds, residual = extract_bounds([eq(col("x"), lit(5))], self.NAMES)
        assert bounds.is_equality and bounds.low.value == 5
        assert residual == []

    def test_range_pair(self):
        conjuncts = [gt(col("x"), lit(1)), lt(col("x"), lit(9))]
        bounds, residual = extract_bounds(conjuncts, self.NAMES)
        assert bounds.low.value == 1 and not bounds.low.inclusive
        assert bounds.high.value == 9 and not bounds.high.inclusive
        assert residual == []

    def test_tightening(self):
        conjuncts = [gt(col("x"), lit(1)), gt(col("x"), lit(5))]
        bounds, _ = extract_bounds(conjuncts, self.NAMES)
        assert bounds.low.value == 5

    def test_inclusive_vs_exclusive_tightening(self):
        conjuncts = [Comparison(CmpOp.GE, col("x"), lit(5)), gt(col("x"), lit(5))]
        bounds, _ = extract_bounds(conjuncts, self.NAMES)
        assert bounds.low.value == 5 and not bounds.low.inclusive

    def test_other_columns_residual(self):
        conjuncts = [eq(col("x"), lit(1)), eq(col("y"), lit(2))]
        bounds, residual = extract_bounds(conjuncts, self.NAMES)
        assert len(bounds.used) == 1
        assert len(residual) == 1

    def test_ne_not_sargable(self):
        bounds, residual = extract_bounds(
            [Comparison(CmpOp.NE, col("x"), lit(5))], self.NAMES
        )
        assert not bounds.bounded
        assert len(residual) == 1

    def test_qualified_spelling(self):
        bounds, _ = extract_bounds([eq(col("t.x"), lit(5))], self.NAMES)
        assert bounds.is_equality


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_pages=48, work_mem_pages=8)
    db.execute("CREATE TABLE t (id INT, r INT, pad TEXT)")
    rng = random.Random(2)
    db.insert_rows(
        "t",
        [(i, rng.randrange(10000), "x" * 20) for i in range(10000)],
    )
    db.execute("CREATE CLUSTERED INDEX ix_id ON t (id)")
    db.execute("CREATE INDEX ix_r ON t (r)")
    db.analyze()
    return db


def paths_for(db, conjuncts, **kwargs):
    info = db.table("t")
    get = LogicalGet(info, "t")
    graph = JoinGraph(
        relations={"t": get},
        filters={"t": list(conjuncts)},
        syntactic_order=["t"],
    )
    est = Estimator(StatsResolver(graph))
    return access_paths(info, "t", conjuncts, est, db.model, **kwargs)


class TestAccessPaths:
    def test_always_offers_seq_scan(self, db):
        cands = paths_for(db, [])
        assert any(isinstance(c.plan, PSeqScan) for c in cands)

    def test_selective_point_prefers_index(self, db):
        cands = paths_for(db, [eq(col("t.id"), lit(42))])
        best = min(cands, key=lambda c: c.cost.total)
        assert isinstance(best.plan, PIndexScan)
        assert best.plan.low.value == best.plan.high.value == 42

    def test_full_table_prefers_seq(self, db):
        cands = paths_for(db, [])
        best = min(cands, key=lambda c: c.cost.total)
        assert isinstance(best.plan, PSeqScan)

    def test_unclustered_wide_range_prefers_seq(self, db):
        cands = paths_for(db, [lt(col("t.r"), lit(9000))])  # ~90%
        best = min(cands, key=lambda c: c.cost.total)
        assert isinstance(best.plan, PSeqScan)

    def test_unclustered_narrow_range_prefers_index(self, db):
        cands = paths_for(db, [lt(col("t.r"), lit(20))])  # ~0.2%
        best = min(cands, key=lambda c: c.cost.total)
        assert isinstance(best.plan, PIndexScan)
        assert best.plan.index.name == "ix_r"

    def test_clustered_range_beats_unclustered(self, db):
        # same 20% selectivity on both columns
        by_id = paths_for(db, [lt(col("t.id"), lit(2000))])
        by_r = paths_for(db, [lt(col("t.r"), lit(2000))])
        id_index = min(
            (c for c in by_id if isinstance(c.plan, PIndexScan)),
            key=lambda c: c.cost.total,
        )
        r_index = min(
            (c for c in by_r if isinstance(c.plan, PIndexScan) and c.plan.index.name == "ix_r"),
            key=lambda c: c.cost.total,
        )
        assert id_index.cost.total < r_index.cost.total

    def test_residual_attached(self, db):
        cands = paths_for(
            db, [eq(col("t.id"), lit(5)), gt(col("t.r"), lit(100))]
        )
        index_cands = [c for c in cands if isinstance(c.plan, PIndexScan)
                       and c.plan.index.name == "ix_id"]
        assert index_cands[0].plan.residual is not None

    def test_order_annotation(self, db):
        cands = paths_for(db, [eq(col("t.id"), lit(5))])
        orders = {c.order for c in cands}
        assert "t.id" in orders

    def test_unbounded_index_scan_offered_for_order(self, db):
        cands = paths_for(db, [])
        ordered = [c for c in cands if c.order == "t.id"]
        assert ordered  # kept for interesting-order value

    def test_index_only_when_key_suffices(self, db):
        cands = paths_for(
            db,
            [gt(col("t.id"), lit(9990))],
            needed_columns={"t.id"},
        )
        assert any(isinstance(c.plan, PIndexOnlyScan) for c in cands)

    def test_index_only_not_offered_when_more_needed(self, db):
        cands = paths_for(
            db,
            [gt(col("t.id"), lit(9990))],
            needed_columns={"t.id", "t.r"},
        )
        assert not any(isinstance(c.plan, PIndexOnlyScan) for c in cands)

    def test_estimated_rows_sane(self, db):
        cands = paths_for(db, [eq(col("t.id"), lit(5))])
        for c in cands:
            assert 0 <= c.rows <= 10
