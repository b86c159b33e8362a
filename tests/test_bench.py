"""Tests for the benchmark harness: table rendering, metrics, and miniature
runs of every experiment (checking structure and the expected *shape* of
results, not absolute numbers)."""

import pytest

from repro.bench import (
    Ratio,
    ResultTable,
    fresh_db,
    geometric_mean,
    measure_plan,
    quantile,
    render_all,
)
from repro.bench import (
    e1_join_methods,
    e2_access_paths,
    e4_plan_quality,
    e6_estimation,
    e7_interesting_orders,
    e8_buffer_sweep,
    e9_rewrites,
    e10_wholesale,
)
from repro.obs.querylog import q_error
from repro.workloads import WholesaleScale


class TestTables:
    def test_add_and_render(self):
        t = ResultTable("demo", ["a", "b"])
        t.add(1, 2.5)
        t.add("x", None)
        text = t.render()
        assert "demo" in text and "2.500" in text and "-" in text

    def test_add_validates_width(self):
        t = ResultTable("demo", ["a"])
        with pytest.raises(ValueError):
            t.add(1, 2)

    def test_ratio_formatting(self):
        t = ResultTable("demo", ["r"])
        t.add(Ratio(2.345))
        assert "2.35x" in t.render()

    def test_column_values(self):
        t = ResultTable("demo", ["a", "b"])
        t.add(1, 2)
        t.add(3, 4)
        assert t.column_values("b") == [2, 4]

    def test_render_all(self):
        a = ResultTable("one", ["x"])
        b = ResultTable("two", ["y"])
        assert "one" in render_all([a, b]) and "two" in render_all([a, b])


class TestMetrics:
    def test_q_error_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0
        assert q_error(5, 5) == 1.0
        assert q_error(0, 0) == 1.0  # clamped

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0

    def test_quantile(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert quantile(vals, 0.0) == 1.0
        assert quantile(vals, 1.0) == 4.0
        assert quantile(vals, 0.5) == pytest.approx(2.5)

    def test_measure_query(self):
        db = fresh_db(buffer_pages=32)
        db.execute("CREATE TABLE t (a INT)")
        db.insert_rows("t", [(i,) for i in range(500)])
        db.analyze()
        m = measure_plan(db, db.plan("SELECT COUNT(*) AS n FROM t"))
        assert m.rows == 1
        assert m.actual_reads > 0
        assert m.est_cost_total > 0


class TestExperimentsMiniature:
    """Each experiment in miniature: structure + classic shape assertions."""

    def test_e1_join_methods(self):
        tables = e1_join_methods.run(
            sizes=[(300, 300), (2500, 2500)],
            buffer_pages=16,
            work_mem_pages=6,
        )
        assert len(tables) == 2
        actual = tables[0]
        assert len(actual.rows) == 2
        big = actual.rows[1]
        methods = dict(zip(e1_join_methods.METHODS, big[2:]))
        # at sizes exceeding the buffer, index-NL thrashes vs hash/merge
        assert methods["hash"] < methods["index-NL"]

    def test_e2_access_paths_crossovers(self):
        tables = e2_access_paths.run(
            num_rows=4000, fractions=[0.002, 0.05, 0.5], buffer_pages=16
        )
        actual, validation = tables
        # clustered index beats seq at high selectivity
        first = actual.rows[0]
        cols = actual.columns
        assert first[cols.index("clustered-index")] < first[cols.index("seq-scan")]
        # unclustered crosses over somewhere in the sweep
        cross = e2_access_paths.crossover_fraction(actual, "unclustered-index")
        assert cross is not None and cross <= 0.5
        # E3: cost model's unclustered estimate within 2x of actual
        for row in validation.rows:
            est = row[validation.columns.index("unclustered est")]
            act = row[validation.columns.index("unclustered act")]
            assert q_error(est, act) < 3.0

    def test_e4_plan_quality(self):
        tables = e4_plan_quality.run_plan_quality(
            shapes=["chain"], n=4, base_rows=200,
            strategies=["dp", "greedy", "random"],
        )
        table = tables[0]
        assert len(table.rows) == 3
        dp_cost = table.rows[0][2]
        for row in table.rows[1:]:
            assert row[2] >= dp_cost * (1 - 1e-9)  # dp never modeled-worse

    def test_e5_planning_time(self):
        timing, effort = e4_plan_quality.run_planning_time(
            shape="chain", max_n=4, base_rows=60,
            strategies=["dp", "greedy", "exhaustive"],
        )
        assert len(timing.rows) == 3
        dp_plans = effort.column_values("dp plans")
        assert dp_plans == sorted(dp_plans)  # grows with n

    def test_e6_estimation_hierarchy(self):
        detail, summary = e6_estimation.run(num_rows=4000, domain=80)
        tiers = {row[0]: row[1] for row in summary.rows}  # geo-mean
        assert tiers["hist+mcv"] <= tiers["uniform"] * (1 + 1e-9)

    def test_e7_interesting_orders(self):
        (table,) = e7_interesting_orders.run(rows_a=2000, rows_b=500)
        cols = table.columns
        on_sorts = cols.index("orders on: sorts")
        off_sorts = cols.index("orders off: sorts")
        # at least one query avoids a sort only with order tracking
        saved = [
            row
            for row in table.rows
            if row[on_sorts] is False and row[off_sorts] is True
        ]
        assert saved

    def test_e8_buffer_sweep(self):
        (table,) = e8_buffer_sweep.run(
            outer_rows=1500, inner_rows=1500, buffer_sizes=[8, 48]
        )
        cols = table.columns
        bnl = table.column_values("block-NL")
        assert bnl[0] > bnl[-1]  # more memory -> fewer rescans

    def test_e9_rewrites(self):
        (table,) = e9_rewrites.run(
            scale=WholesaleScale.tiny(), queries=["Q5_big_orders_by_segment"]
        )
        row = table.rows[0]
        cols = table.columns
        assert (
            row[cols.index("no pushdown: cost")]
            >= row[cols.index("pushdown: cost")]
        )

    def test_e10_wholesale(self):
        (table,) = e10_wholesale.run(
            scale=WholesaleScale.tiny(),
            queries=["Q2_region_revenue", "Q7_selective_point"],
            buffer_pages=32,
        )
        assert table.rows[-1][0] == "TOTAL"
        assert len(table.rows) == 3


class TestE12Miniature:
    def test_scaling_structure(self):
        from repro.bench import e12_scaling

        (table,) = e12_scaling.run(scales=["tiny"], repeats=1)
        assert table.rows[0][0] == "tiny"
        assert table.rows[0][1] == 1600  # lineitem rows at tiny scale
        ratio = table.rows[0][table.columns.index("time ratio")]
        assert ratio.value > 0


class TestRepeats:
    """E10/E12 run each plan ``repeats`` times cold.  The repeats must
    agree on what they counted, and the reported counts are the first
    run's whichever run the wall clock liked best."""

    @staticmethod
    def second_runs(monkeypatch, extra_reads):
        """Make every second cold run the fastest by far."""
        from repro.bench import measure

        real, calls = measure.measure_plan, []

        def skewed(db, plan, **kwargs):
            m = real(db, plan, **kwargs)
            calls.append(m)
            if len(calls) % 2 == 0:
                m.exec_seconds = 0.0
                m.actual_reads += extra_reads
            return m

        monkeypatch.setattr(measure, "measure_plan", skewed)

    def test_fastest_repeat_lends_only_its_time(self, monkeypatch):
        from repro.bench import e12_scaling

        (once,) = e12_scaling.run(scales=["tiny"], repeats=1)
        self.second_runs(monkeypatch, extra_reads=0)
        (twice,) = e12_scaling.run(scales=["tiny"], repeats=2)
        cols = twice.columns
        for name in ("dp: I/O", "syntactic: I/O"):
            assert twice.rows[0][cols.index(name)] == once.rows[0][cols.index(name)]
        assert twice.rows[0][cols.index("dp: time (ms)")] == 0.0

    def test_disagreeing_repeats_are_an_error(self, monkeypatch):
        from repro.bench import e10_wholesale

        self.second_runs(monkeypatch, extra_reads=1)
        with pytest.raises(AssertionError, match="cold repeats disagree"):
            e10_wholesale.run(
                scale=WholesaleScale.tiny(),
                queries=["Q7_selective_point"],
                repeats=2,
            )
